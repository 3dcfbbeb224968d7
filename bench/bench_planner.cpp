// Planner bench: the production hybrid-A* (co::HybridAStar) against the
// frozen pre-refactor planner (bench/legacy_planner.hpp, row `legacy`)
// across the scenario generator families, with crowded_lot additionally
// swept over clutter density. Both planners collision-check with the exact
// OBB narrow phase, the one path co::CoPlanner takes in an episode. Three
// measurements per (family, density, planner):
//
//   1. Plan wall time over a fixed seed set (mean/max ms) plus the search
//      counters (expansions and RS-shot attempts per plan).
//   2. Success parity: every scenario the legacy planner solves must still
//      be solved by the production planner — its arena, cached heuristic
//      and throttled shots change node order, not completeness, so a drop
//      is a bug (the CI gate).
//   3. Deadline-hit rate: an optional second pass re-plans each scenario
//      under a core::FrameContext budget and counts tripped frames.
//
// Results land in the `planner` table of a sim::RunReport, one row per
// (generator, density, planner); `speedup` is the legacy mean plan time
// over the production planner's on the cell.
//
// Usage: bench_planner [options]; the flag table in main() documents every
// flag, and a bad flag prints the usage generated from it.
//
// Exit codes: 0 ok, 1 success-parity failure, 2 usage error, 3 I/O error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "co/hybrid_astar.hpp"
#include "driver.hpp"
#include "legacy_planner.hpp"
#include "mathkit/rng.hpp"
#include "mathkit/table.hpp"
#include "sim/evaluator.hpp"
#include "sim/report.hpp"
#include "sim/suite.hpp"
#include "world/generators/registry.hpp"
#include "world/scenario.hpp"

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// One planning problem: the scenario's statics, bounds and start/goal —
/// the inputs the production co::CoPlanner hands hybrid-A*.
struct Problem {
  icoil::geom::Pose2 start, goal;
  std::vector<icoil::geom::Obb> obstacles;
  icoil::geom::Aabb bounds;
};

Problem make_problem(const icoil::world::Scenario& scenario) {
  Problem p;
  p.start = scenario.start_pose;
  p.goal = scenario.map.goal_pose;
  p.bounds = scenario.map.bounds;
  for (const icoil::world::Obstacle& o : scenario.obstacles)
    if (!o.dynamic()) p.obstacles.push_back(o.shape);
  return p;
}

/// One planner's measurements on one (family, density) cell.
struct PlannerRow {
  std::string planner;           ///< "hybrid-astar" or "legacy"
  int plans = 0;                 ///< scenarios attempted
  int solved = 0;
  double plan_ms_mean = 0.0;
  double plan_ms_max = 0.0;
  double expansions_mean = 0.0;  ///< nodes popped per plan
  double rs_shots_mean = 0.0;    ///< analytic expansions tried per plan
  double path_cost_mean = 0.0;   ///< solution cost per solved plan
  double speedup = 0.0;          ///< legacy plan_ms_mean / this planner's
  double deadline_ms = 0.0;      ///< budgeted pass frame deadline (0 = off)
  int deadline_hits = 0;         ///< budgeted plans that tripped the frame
};

struct PlannerResult {
  PlannerRow row;
  std::vector<bool> solved;  ///< per problem index
};

int g_reps = 3;           ///< --reps: timing repetitions per plan
bool g_per_plan = false;  ///< --per-plan: dump per-scenario lines to stderr

/// Times `plan(problem, &stats)` on every problem and folds the counters
/// of each problem's last run into a row. The planners are deterministic,
/// so every rep does identical work: the per-plan time is the minimum, the
/// run least perturbed by the scheduler.
template <class Stats, class Plan>
PlannerResult time_plans(const std::vector<Problem>& problems,
                         const char* planner, const Plan& plan) {
  PlannerResult out;
  out.row.planner = planner;
  double total_ms = 0.0, total_exp = 0.0, total_shots = 0.0, total_cost = 0.0;
  for (const Problem& p : problems) {
    Stats stats;
    bool solved = false;
    double ms = 0.0;
    for (int rep = 0; rep < g_reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      solved = plan(p, &stats);
      const double rep_ms = ms_since(t0);
      ms = rep == 0 ? rep_ms : std::min(ms, rep_ms);
    }
    if (g_per_plan)
      std::fprintf(stderr, "[plan] %-9s #%zu %s %.2f ms exp %d shots %d\n",
                   planner, out.solved.size(), solved ? "ok  " : "FAIL", ms,
                   stats.expansions, stats.rs_shot_attempts);
    total_ms += ms;
    out.row.plan_ms_max = std::max(out.row.plan_ms_max, ms);
    total_exp += stats.expansions;
    total_shots += stats.rs_shot_attempts;
    if (solved) total_cost += stats.solution_cost;
    out.solved.push_back(solved);
    if (solved) ++out.row.solved;
    ++out.row.plans;
  }
  const int n = out.row.plans;
  out.row.plan_ms_mean = n > 0 ? total_ms / n : 0.0;
  out.row.expansions_mean = n > 0 ? total_exp / n : 0.0;
  out.row.rs_shots_mean = n > 0 ? total_shots / n : 0.0;
  out.row.path_cost_mean = out.row.solved > 0 ? total_cost / out.row.solved : 0.0;
  return out;
}

/// The production planner at its defaults, as co::CoPlanner builds it.
PlannerResult run_hybrid_astar(const std::vector<Problem>& problems,
                               double deadline_ms) {
  using namespace icoil;
  const co::HybridAStar astar(co::HybridAStarConfig{},
                              vehicle::VehicleParams{});

  // Warm pass: plans every problem once outside the timed loop, filling the
  // shared RS-table entries those plans read, as a long-lived process would
  // have. The one-time fill is a cold-start cost (cold_start_test gates
  // it), not a per-plan one.
  for (const Problem& w : problems)
    (void)astar.plan(w.start, w.goal, w.obstacles, w.bounds);

  PlannerResult out = time_plans<co::PlanStats>(
      problems, "hybrid-astar", [&](const Problem& p, co::PlanStats* stats) {
        return astar.plan(p.start, p.goal, p.obstacles, p.bounds, nullptr, stats)
            .has_value();
      });

  // Budgeted pass: same problems under a per-frame deadline; count plans
  // that tripped it (returned early without a path).
  if (deadline_ms > 0.0) {
    out.row.deadline_ms = deadline_ms;
    math::Rng rng(42);
    for (const Problem& p : problems) {
      core::FrameContext frame(rng, nullptr, deadline_ms);
      const auto path =
          astar.plan(p.start, p.goal, p.obstacles, p.bounds, &frame);
      if (!path.has_value() && frame.deadline_hit()) ++out.row.deadline_hits;
    }
  }
  return out;
}

/// The pre-refactor planner on the same problems: the speedup denominator.
/// No budgeted pass — the legacy loop predates stats/deadline plumbing and
/// is kept byte-for-byte faithful instead.
PlannerResult run_legacy(const std::vector<Problem>& problems) {
  const icoil::co::HybridAStarConfig config;  // planner defaults
  const icoil::vehicle::VehicleParams params;
  return time_plans<icoil::bench::LegacyStats>(
      problems, "legacy",
      [&](const Problem& p, icoil::bench::LegacyStats* stats) {
        return icoil::bench::legacy_plan(config, params, p.start, p.goal,
                                         p.obstacles, p.bounds, stats);
      });
}

/// "1,4" -> {1, 4}; every item a positive finite number.
bool parse_densities(const char* text, std::vector<double>* out) {
  out->clear();
  for (const std::string& item : icoil::bench::split_csv(text)) {
    double value = 0.0;
    if (!icoil::bench::parse_number(item.c_str(), &value) || value <= 0.0)
      return false;
    out->push_back(value);
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;

  int plans = 10;
  double deadline_ms = 50.0;
  std::vector<double> densities = {1.0, 4.0};
  std::vector<std::string> families = {"canonical", "perpendicular",
                                       "parallel_street", "crowded_lot",
                                       "dynamic_gauntlet"};
  bench::ReportOptions report_options;
  bool quick = false;
  using bench::flag;
  bench::Cli cli(
      "bench_planner", {},
      {flag("--plans", "N",
            "scenarios per (family, density) cell (default 10)", &plans, 1),
       flag("--reps", "K",
            "timing repetitions per plan; the per-plan time is the minimum "
            "(default 3)",
            &g_reps, 1),
       {"--families", "LIST", "generator families (default canonical, perpendicular, "
        "parallel_street, crowded_lot, dynamic_gauntlet)",
        [&](const char* v) {
          families = bench::split_csv(v);
          return !families.empty();
        }},
       {"--densities", "LIST",
        "crowded_lot clutter multipliers (default 1,4)",
        [&](const char* v) { return parse_densities(v, &densities); }},
       flag("--frame-deadline-ms", "X",
            "budgeted-pass deadline (default 50; 0 = skip the pass)",
            &deadline_ms, 0.0),
       flag("--report", "PATH", "write the RunReport JSON artifact",
            &report_options.path),
       flag("--per-plan", "print one line per plan to stderr", &g_per_plan),
       flag("--quick", "smoke mode: 3 plans, 1 rep, no budgeted pass",
            &quick)});
  if (const auto code = cli.parse(argc, argv)) return *code;
  if (quick) {
    plans = std::min(plans, 3);
    g_reps = 1;
    deadline_ms = 0.0;
  }

  constexpr std::uint64_t kScenarioSeed = 300;
  // Reject unknown families before any planning: make_scenario would throw
  // on the first one mid-run.
  for (const std::string& family : families)
    if (world::GeneratorRegistry::instance().find(family) == nullptr)
      return cli.usage_error("unknown family \"" + family +
                             "\" — bench_suite --list-generators prints the "
                             "registered names");

  sim::MetricsTable stats(
      "planner", {"generator", "density", "planner"},
      {"plans", "solved", "plan_ms_mean", "plan_ms_max", "expansions_mean",
       "rs_shots_mean", "path_cost_mean", "speedup", "deadline_ms",
       "deadline_hits"});
  bool parity_ok = true;
  math::TextTable table({"family", "density", "planner", "solved",
                         "plan [ms]", "max [ms]", "expansions", "rs shots",
                         "cost", "speedup", "ddl hits"});

  for (const std::string& family : families) {
    // Density sweeps only the family whose generator reads it.
    const std::vector<double> family_densities =
        family == "crowded_lot" ? densities : std::vector<double>{1.0};
    for (const double density : family_densities) {
      sim::SuiteCell cell;
      cell.generator = family;
      cell.difficulty = world::Difficulty::kNormal;
      if (density != 1.0) cell.params.set("density", density);

      std::vector<Problem> problems;
      problems.reserve(static_cast<std::size_t>(plans));
      for (int s = 0; s < plans; ++s)
        problems.push_back(make_problem(
            world::make_scenario(cell.options(), kScenarioSeed + s)));

      auto emit = [&](const PlannerResult& r, bool is_reference) {
        const PlannerRow& m = r.row;
        stats.add_row({family, bench::number_key(density), m.planner},
                      {double(m.plans), double(m.solved), m.plan_ms_mean,
                       m.plan_ms_max, m.expansions_mean, m.rs_shots_mean,
                       m.path_cost_mean, m.speedup, m.deadline_ms,
                       double(m.deadline_hits)});
        table.add_row(
            {family, math::format_double(density, 1), r.row.planner,
             std::to_string(r.row.solved) + "/" + std::to_string(r.row.plans),
             math::format_double(r.row.plan_ms_mean, 2),
             math::format_double(r.row.plan_ms_max, 2),
             math::format_double(r.row.expansions_mean, 0),
             math::format_double(r.row.rs_shots_mean, 1),
             math::format_double(r.row.path_cost_mean, 1),
             is_reference ? std::string("1.00x")
                          : math::format_double(r.row.speedup, 2) + "x",
             r.row.deadline_ms > 0.0 ? std::to_string(r.row.deadline_hits)
                                     : "-"});
      };
      PlannerResult legacy = run_legacy(problems);
      emit(legacy, /*is_reference=*/true);

      PlannerResult r = run_hybrid_astar(problems, deadline_ms);
      r.row.speedup = r.row.plan_ms_mean > 0.0
                          ? legacy.row.plan_ms_mean / r.row.plan_ms_mean
                          : 0.0;
      // Success parity: every scenario the pre-refactor planner solves must
      // stay solved.
      for (std::size_t s = 0; s < legacy.solved.size(); ++s) {
        if (legacy.solved[s] && !r.solved[s]) {
          parity_ok = false;
          std::fprintf(stderr,
                       "[planner] PARITY: %s density %.1f seed %llu solved "
                       "by legacy but not by hybrid-astar\n",
                       family.c_str(), density,
                       static_cast<unsigned long long>(kScenarioSeed + s));
        }
      }
      emit(r, /*is_reference=*/false);
      std::fprintf(stderr, "[planner] %s density %.1fx done (%d plans)\n",
                   family.c_str(), density, plans);
    }
  }

  std::printf("\nPlanner vs legacy — %d plans per cell, "
              "budgeted pass %s\n\n",
              plans,
              deadline_ms > 0.0
                  ? (math::format_double(deadline_ms, 0) + " ms").c_str()
                  : "off");
  table.print(std::cout);

  sim::RunReport report;
  sim::EvalConfig eval_config;
  eval_config.episodes = plans;
  eval_config.base_seed = kScenarioSeed;
  bench::stamp_meta(report, "planner", 1, eval_config);
  report.tables.push_back(stats);
  if (!parity_ok)
    std::fprintf(stderr,
                 "bench_planner: FAIL — hybrid-astar lost a scenario the "
                 "legacy planner solves\n");
  return bench::finish("planner", report, report_options, parity_ok);
}
