// Planner-heuristic ablation: hybrid-A* under every heuristic mode
// (euclid-rs | lut | dijkstra | max) across the scenario generator
// families, with crowded_lot additionally swept over clutter density.
// Each cell also runs `legacy` — the frozen pre-refactor planner
// (bench/legacy_planner.hpp) — as the speedup reference, so the euclid-rs
// row isolates the search-core restructure and the cached rows add the
// heuristic effect on top. Every planner, legacy included, collision-checks
// with the exact OBB narrow phase, the one path co::CoPlanner takes in an
// episode. Three measurements per (family, density, mode):
//
//   1. Plan wall time over a fixed seed set (mean/max ms) plus the search
//      counters (expansions and RS-shot attempts per plan).
//   2. Success parity: every scenario the legacy planner or the euclid-rs
//      baseline solves must still be solved by every other mode — the
//      cached heuristics change node order, not completeness, so a drop is
//      a bug (the CI gate).
//   3. Deadline-hit rate: an optional second pass re-plans each scenario
//      under a core::FrameContext budget and counts tripped frames.
//
// Results land in the `planner` table of a sim::RunReport, one row per
// (generator, density, heuristic); `speedup` is each mode's mean plan time
// relative to the legacy planner on the cell.
//
// Usage:
//   bench_planner [options]
//     --plans N             scenarios per (family, density) cell (default 10)
//     --reps K              timing repetitions per plan; the per-plan time
//                           is the minimum of K runs (default 3) — the
//                           planner is deterministic, so spread across reps
//                           is scheduler noise, not work
//     --families LIST       generator families to run (default: all five)
//     --densities LIST      crowded_lot clutter multipliers (default 1,4)
//     --frame-deadline-ms X budgeted-pass deadline (default 50; 0 = skip)
//     --lut-res X           override HybridAStarConfig::lut_xy_resolution
//     --lut-bins N          override HybridAStarConfig::lut_heading_bins
//     --report PATH         write the RunReport JSON artifact
//     --quick               smoke mode: 3 plans, no budgeted pass
//
// Exit codes: 0 ok, 1 success-parity failure, 2 usage error, 3 I/O error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "legacy_planner.hpp"
#include "co/heuristic.hpp"
#include "co/hybrid_astar.hpp"
#include "mathkit/rng.hpp"
#include "mathkit/table.hpp"
#include "sim/evaluator.hpp"
#include "sim/report.hpp"
#include "sim/suite.hpp"
#include "world/scenario.hpp"

namespace {

using icoil::bench::parse_double_arg;
using icoil::bench::parse_int_arg;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--plans N] [--reps K] [--families LIST] "
               "[--densities LIST] [--frame-deadline-ms X] [--lut-res X] "
               "[--lut-bins N] [--report PATH] [--per-plan] [--quick]\n",
               argv0);
  return 2;
}

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

/// One heuristic mode's measurements on one (family, density) cell.
struct ModeRow {
  std::string heuristic;         ///< co::to_string(HeuristicMode) or legacy
  int plans = 0;                 ///< scenarios attempted
  int solved = 0;
  double plan_ms_mean = 0.0;
  double plan_ms_max = 0.0;
  double expansions_mean = 0.0;  ///< nodes popped per plan
  double rs_shots_mean = 0.0;    ///< analytic expansions tried per plan
  double path_cost_mean = 0.0;   ///< solution cost per solved plan
  double speedup = 0.0;          ///< legacy plan_ms_mean / this mode's
  double deadline_ms = 0.0;      ///< budgeted pass frame deadline (0 = off)
  int deadline_hits = 0;         ///< budgeted plans that tripped the frame
};

struct ModeResult {
  ModeRow row;
  std::vector<bool> solved;  ///< per problem index
};

double g_lut_res = 0.0;   ///< --lut-res override (0 = planner default)
int g_lut_bins = 0;       ///< --lut-bins override (0 = planner default)
int g_reps = 3;           ///< --reps: timing repetitions per plan
bool g_per_plan = false;  ///< --per-plan: dump per-scenario lines to stderr

ModeResult run_mode(const std::vector<Problem>& problems,
                    icoil::co::HeuristicMode mode, double deadline_ms) {
  using namespace icoil;
  ModeResult out;
  co::HybridAStarConfig config;
  config.heuristic = mode;
  if (g_lut_res > 0.0) config.lut_xy_resolution = g_lut_res;
  if (g_lut_bins > 0) config.lut_heading_bins = g_lut_bins;
  const co::HybridAStar astar(config, vehicle::VehicleParams{});

  // Warm pass: fills the shared-LUT entries the first plan reads (and
  // touches the code paths) outside the timed loop, as a long-lived process
  // would.
  if (!problems.empty()) {
    const Problem& w = problems.front();
    (void)astar.plan(w.start, w.goal, w.obstacles, w.bounds);
  }

  double total_ms = 0.0, max_ms = 0.0;
  double total_exp = 0.0, total_shots = 0.0, total_cost = 0.0;
  for (const Problem& p : problems) {
    co::PlanStats stats;
    bool solved = false;
    double ms = 0.0;
    // The planner is deterministic, so every rep does identical work: the
    // minimum is the run least perturbed by the scheduler.
    for (int rep = 0; rep < g_reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto path = astar.plan(p.start, p.goal, p.obstacles, p.bounds,
                                   nullptr, &stats);
      const double rep_ms = ms_since(t0);
      ms = rep == 0 ? rep_ms : std::min(ms, rep_ms);
      solved = path.has_value();
    }
    if (g_per_plan)
      std::fprintf(stderr, "[plan] %-9s #%zu %s %.2f ms exp %d shots %d\n",
                   co::to_string(mode), out.solved.size(),
                   solved ? "ok  " : "FAIL", ms, stats.expansions,
                   stats.rs_shot_attempts);
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
    total_exp += stats.expansions;
    total_shots += stats.rs_shot_attempts;
    if (solved) total_cost += stats.solution_cost;
    out.solved.push_back(solved);
    if (solved) ++out.row.solved;
    ++out.row.plans;
  }

  // Budgeted pass: same problems under a per-frame deadline; count plans
  // that tripped it (returned early without a path).
  if (deadline_ms > 0.0) {
    out.row.deadline_ms = deadline_ms;
    math::Rng rng(42);
    for (std::size_t i = 0; i < problems.size(); ++i) {
      const Problem& p = problems[i];
      core::FrameContext frame(rng, nullptr, deadline_ms);
      const auto path =
          astar.plan(p.start, p.goal, p.obstacles, p.bounds, &frame);
      if (!path.has_value() && frame.deadline_hit()) ++out.row.deadline_hits;
    }
  }

  const int n = out.row.plans;
  out.row.heuristic = co::to_string(mode);
  out.row.plan_ms_mean = n > 0 ? total_ms / n : 0.0;
  out.row.plan_ms_max = max_ms;
  out.row.expansions_mean = n > 0 ? total_exp / n : 0.0;
  out.row.rs_shots_mean = n > 0 ? total_shots / n : 0.0;
  out.row.path_cost_mean = out.row.solved > 0 ? total_cost / out.row.solved : 0.0;
  return out;
}

/// The pre-refactor planner on the same problems: the speedup denominator.
/// No budgeted pass — the legacy loop predates stats/deadline plumbing and
/// is kept byte-for-byte faithful instead.
ModeResult run_legacy(const std::vector<Problem>& problems) {
  using namespace icoil;
  ModeResult out;
  const co::HybridAStarConfig config;  // planner defaults, heuristic unused
  const vehicle::VehicleParams params;

  double total_ms = 0.0, max_ms = 0.0;
  double total_exp = 0.0, total_shots = 0.0, total_cost = 0.0;
  for (const Problem& p : problems) {
    bench::LegacyStats stats;
    bool solved = false;
    double ms = 0.0;
    for (int rep = 0; rep < g_reps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      solved = bench::legacy_plan(config, params, p.start, p.goal, p.obstacles,
                                  p.bounds, &stats);
      const double rep_ms = ms_since(t0);
      ms = rep == 0 ? rep_ms : std::min(ms, rep_ms);
    }
    if (g_per_plan)
      std::fprintf(stderr, "[plan] %-9s #%zu %s %.2f ms exp %d shots %d\n",
                   "legacy", out.solved.size(), solved ? "ok  " : "FAIL", ms,
                   stats.expansions, stats.rs_shot_attempts);
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
    total_exp += stats.expansions;
    total_shots += stats.rs_shot_attempts;
    if (solved) total_cost += stats.solution_cost;
    out.solved.push_back(solved);
    if (solved) ++out.row.solved;
    ++out.row.plans;
  }

  const int n = out.row.plans;
  out.row.heuristic = "legacy";
  out.row.plan_ms_mean = n > 0 ? total_ms / n : 0.0;
  out.row.plan_ms_max = max_ms;
  out.row.expansions_mean = n > 0 ? total_exp / n : 0.0;
  out.row.rs_shots_mean = n > 0 ? total_shots / n : 0.0;
  out.row.path_cost_mean = out.row.solved > 0 ? total_cost / out.row.solved : 0.0;
  return out;
}

std::vector<double> parse_densities(const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) {
      double v = 0.0;
      if (!parse_double_arg(item.c_str(), &v) || v <= 0.0) return {};
      out.push_back(v);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;

  int plans = 10;
  double deadline_ms = 50.0;
  std::string densities_csv = "1,4";
  std::string families_csv =
      "canonical,perpendicular,parallel_street,crowded_lot,dynamic_gauntlet";
  std::string report_path;
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--plans") {
      const char* v = next_value();
      if (v == nullptr || !parse_int_arg(v, &plans) || plans <= 0)
        return usage(argv[0]);
    } else if (arg == "--reps") {
      const char* v = next_value();
      if (v == nullptr || !parse_int_arg(v, &g_reps) || g_reps <= 0)
        return usage(argv[0]);
    } else if (arg == "--densities") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      densities_csv = v;
    } else if (arg == "--families") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      families_csv = v;
    } else if (arg == "--frame-deadline-ms") {
      const char* v = next_value();
      if (v == nullptr || !parse_double_arg(v, &deadline_ms) ||
          deadline_ms < 0.0)
        return usage(argv[0]);
    } else if (arg == "--report") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      report_path = v;
    } else if (arg == "--lut-res") {
      const char* v = next_value();
      if (v == nullptr || !parse_double_arg(v, &g_lut_res) || g_lut_res <= 0.0)
        return usage(argv[0]);
    } else if (arg == "--lut-bins") {
      const char* v = next_value();
      if (v == nullptr || !parse_int_arg(v, &g_lut_bins) || g_lut_bins <= 0)
        return usage(argv[0]);
    } else if (arg == "--per-plan") {
      g_per_plan = true;
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "bench_planner: unknown argument \"%s\"\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }
  if (quick) {
    plans = std::min(plans, 3);
    g_reps = 1;
    deadline_ms = 0.0;
  }

  const std::vector<double> densities = parse_densities(densities_csv);
  if (densities.empty()) {
    std::fprintf(stderr, "bench_planner: bad --densities \"%s\"\n",
                 densities_csv.c_str());
    return usage(argv[0]);
  }

  constexpr std::uint64_t kScenarioSeed = 300;
  std::vector<std::string> families;
  {
    std::size_t start = 0;
    while (start <= families_csv.size()) {
      const std::size_t comma = families_csv.find(',', start);
      const std::string item = families_csv.substr(
          start,
          comma == std::string::npos ? std::string::npos : comma - start);
      if (!item.empty()) families.push_back(item);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    if (families.empty()) return usage(argv[0]);
  }
  const std::vector<co::HeuristicMode> modes = {
      co::HeuristicMode::kEuclidRs, co::HeuristicMode::kLut,
      co::HeuristicMode::kDijkstra, co::HeuristicMode::kMax};

  sim::MetricsTable stats(
      "planner", {"generator", "density", "heuristic"},
      {"plans", "solved", "plan_ms_mean", "plan_ms_max", "expansions_mean",
       "rs_shots_mean", "path_cost_mean", "speedup", "deadline_ms",
       "deadline_hits"});
  bool parity_ok = true;
  math::TextTable table({"family", "density", "heuristic", "solved",
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

      auto emit = [&](const ModeResult& r, bool is_reference) {
        const ModeRow& m = r.row;
        stats.add_row({family, bench::number_key(density), m.heuristic},
                      {double(m.plans), double(m.solved), m.plan_ms_mean,
                       m.plan_ms_max, m.expansions_mean, m.rs_shots_mean,
                       m.path_cost_mean, m.speedup, m.deadline_ms,
                       double(m.deadline_hits)});
        table.add_row(
            {family, math::format_double(density, 1), r.row.heuristic,
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
      auto check_parity = [&](const std::vector<bool>& ref_solved,
                              const char* ref_name, const ModeResult& r) {
        for (std::size_t s = 0; s < ref_solved.size(); ++s) {
          if (ref_solved[s] && !r.solved[s]) {
            parity_ok = false;
            std::fprintf(stderr,
                         "[planner] PARITY: %s density %.1f seed %llu "
                         "solved by %s but not by %s\n",
                         family.c_str(), density,
                         static_cast<unsigned long long>(kScenarioSeed + s),
                         ref_name, r.row.heuristic.c_str());
          }
        }
      };

      ModeResult legacy = run_legacy(problems);
      const double legacy_ms = legacy.row.plan_ms_mean;
      emit(legacy, /*is_reference=*/true);

      std::vector<bool> baseline_solved;
      for (const co::HeuristicMode mode : modes) {
        ModeResult r = run_mode(problems, mode, deadline_ms);
        r.row.speedup =
            r.row.plan_ms_mean > 0.0 ? legacy_ms / r.row.plan_ms_mean : 0.0;
        // Success parity: every scenario the pre-refactor planner solves
        // must stay solved; cached modes must also keep everything the
        // euclid-rs baseline solves.
        check_parity(legacy.solved, "legacy", r);
        if (mode == co::HeuristicMode::kEuclidRs)
          baseline_solved = r.solved;
        else
          check_parity(baseline_solved, "euclid-rs", r);
        emit(r, /*is_reference=*/false);
      }
      std::fprintf(stderr, "[planner] %s density %.1fx done (%d plans/mode)\n",
                   family.c_str(), density, plans);
    }
  }

  std::printf("\nPlanner heuristic ablation — %d plans per cell, "
              "budgeted pass %s\n\n",
              plans,
              deadline_ms > 0.0
                  ? (math::format_double(deadline_ms, 0) + " ms").c_str()
                  : "off");
  table.print(std::cout);

  if (!report_path.empty()) {
    sim::RunReport report;
    report.meta.suite = "planner";
    report.meta.git_describe = sim::build_git_describe();
    report.meta.threads = 1;
    report.meta.episodes_per_cell = plans;
    report.meta.base_seed = kScenarioSeed;
    sim::EvalConfig eval_config;
    eval_config.episodes = plans;
    eval_config.base_seed = kScenarioSeed;
    report.meta.config_fingerprint = sim::config_fingerprint(eval_config);
    report.tables.push_back(stats);
    std::string error;
    if (!report.save(report_path, &error)) {
      std::fprintf(stderr, "bench_planner: %s\n", error.c_str());
      return 3;
    }
    std::fprintf(stderr, "[planner] report written to %s\n",
                 report_path.c_str());
  }

  if (!parity_ok) {
    std::fprintf(stderr,
                 "bench_planner: FAIL — a cached heuristic lost a scenario "
                 "the euclid-rs baseline solves\n");
    return 1;
  }
  return 0;
}
