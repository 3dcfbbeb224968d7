// Mission benchmark: multi-leg parking missions (enter -> cruise -> park ->
// dwell -> unpark -> exit) with behavior-driven traffic, per
// mission::MissionRegistry template. Each (template, mission index) pair is
// one TaskPool task with its own Mission instance and fresh controller, so
// the fan-out is embarrassingly parallel; per-mission seeds are fixed up
// front, which makes the run bit-deterministic across thread counts.
//
// Gates:
//   1. Determinism: every mission is re-run on a single-thread pool and the
//      MissionResult fingerprints must match the wide pool's bit-for-bit.
//   2. --quick (CI smoke): contested_lot rows must average >= 3 legs per
//      mission and force >= 1 replan — the template's reason to exist.
//   3. --baseline PATH: sim::compare_to_baseline over the `mission` table,
//      with per-column gates on success_ratio (max drop) and
//      replans_per_mission (max |delta|). Rows are keyed by template,
//      method and template fingerprint, so an edited template shows up as
//      a row missing from the baseline until it is re-recorded.
//
// Results land in the `mission` table of a sim::RunReport.
//
// Usage: bench_mission [options]; the flag table in main() documents every
// flag, and a bad flag prints the usage generated from it.
//
// Exit codes: 0 ok, 1 gate failure (determinism, quick gate or baseline
// regression), 2 usage error, 3 I/O error.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/controller_registry.hpp"
#include "core/task_pool.hpp"
#include "driver.hpp"
#include "mathkit/fnv.hpp"
#include "mathkit/stats.hpp"
#include "mathkit/table.hpp"
#include "mission/mission.hpp"
#include "sim/report.hpp"

namespace {

/// Runs every (template, mission index) pair on a pool of `threads` workers.
/// Results are indexed template-major so the fold and the fingerprint digest
/// are independent of completion order.
std::vector<icoil::mission::MissionResult> run_missions(
    const std::vector<std::string>& templates, int missions,
    const std::string& method, std::uint64_t base_seed, int threads) {
  using namespace icoil;
  const auto total = templates.size() * static_cast<std::size_t>(missions);
  std::vector<mission::MissionResult> results(total);
  core::TaskPool pool(threads);
  for (std::size_t t = 0; t < templates.size(); ++t) {
    for (int m = 0; m < missions; ++m) {
      const std::size_t idx = t * static_cast<std::size_t>(missions) +
                              static_cast<std::size_t>(m);
      pool.submit([&, t, m, idx](const core::TaskPool::Context&) {
        const mission::MissionSpec& spec =
            mission::MissionRegistry::instance().at(templates[t]);
        // Fresh controller per mission: controllers are stateful and must
        // not be shared across concurrent missions.
        const std::unique_ptr<core::Controller> controller =
            core::ControllerRegistry::instance().build(method);
        mission::Mission mission(spec, base_seed + static_cast<std::uint64_t>(m));
        results[idx] = mission.run(*controller);
      });
    }
  }
  pool.wait_idle();
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;

  std::string templates_csv;
  int missions = 4;
  std::string method = "co";
  std::uint64_t seed = 9000;
  int threads = 0;
  bench::ReportOptions report_options;
  double success_tol = 0.02;
  double replan_tol = 0.5;
  bool list_templates = false;
  bool quick = false;
  using bench::flag;
  bench::Cli cli(
      "bench_mission", {},
      {flag("--templates", "LIST",
            "comma list of templates (default: all registered)",
            &templates_csv),
       flag("--missions", "N", "missions per template (default 4)", &missions,
            1),
       flag("--method", "NAME", "controller registry key (default co)",
            &method),
       flag("--seed", "S",
            "base seed, an unsigned 64-bit integer; mission m uses S+m "
            "(default 9000)",
            &seed, 0),
       flag("--threads", "N", "pool width for the wide pass (0 = recommended)",
            &threads, 0),
       flag("--report", "PATH", "write the RunReport JSON artifact",
            &report_options.path),
       flag("--baseline", "PATH", "compare against a committed baseline report",
            &report_options.baseline),
       flag("--success-tol", "X",
            "allowed mission success-ratio drop (default 0.02)", &success_tol,
            0.0),
       flag("--replan-tol", "X",
            "allowed |replans/mission| drift (default 0.5)", &replan_tol,
            0.0),
       flag("--list-templates", "print registered mission templates and exit",
            &list_templates),
       flag("--quick", "smoke mode: contested_lot only, 2 missions", &quick)});
  if (const auto code = cli.parse(argc, argv)) return *code;
  const auto& registry = mission::MissionRegistry::instance();
  if (list_templates) {
    for (const std::string& name : registry.names())
      std::printf("%-16s %s\n", name.c_str(),
                  registry.at(name).description.c_str());
    return 0;
  }

  std::vector<std::string> templates = bench::split_csv(templates_csv);
  if (templates.empty()) {
    templates = quick ? std::vector<std::string>{"contested_lot"}
                      : registry.names();
  }
  if (quick) missions = std::min(missions, 2);
  for (const std::string& t : templates)
    if (registry.find(t) == nullptr)
      return cli.usage_error("unknown template \"" + t + "\"");
  if (core::ControllerRegistry::instance().find(method) == nullptr)
    return cli.usage_error("unknown method \"" + method + "\"");

  // The wide pass deliberately ignores hardware concurrency: the gate is
  // "16 workers and 1 worker agree bit-for-bit", and a 16-worker pool on a
  // small machine still interleaves tasks — which is exactly the scheduling
  // nondeterminism the gate must prove irrelevant.
  const int total_jobs = static_cast<int>(templates.size()) * missions;
  const int wide_threads =
      threads > 0 ? threads : std::max(2, std::min(16, total_jobs * 2));

  std::fprintf(stderr, "[mission] wide pass: %d missions on %d threads\n",
               total_jobs, wide_threads);
  const std::vector<mission::MissionResult> wide =
      run_missions(templates, missions, method, seed, wide_threads);

  // Determinism gate: the same fan-out on a single worker must produce
  // bit-identical MissionResult fingerprints (wall clock excluded by
  // construction).
  std::fprintf(stderr, "[mission] narrow pass: %d missions on 1 thread\n",
               total_jobs);
  const std::vector<mission::MissionResult> narrow =
      run_missions(templates, missions, method, seed, 1);
  bool deterministic = true;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    if (wide[i].fingerprint() != narrow[i].fingerprint()) {
      deterministic = false;
      std::fprintf(stderr,
                   "[mission] DETERMINISM MISMATCH %s seed %llu: "
                   "%016llx (x%d threads) vs %016llx (x1)\n",
                   wide[i].mission.c_str(),
                   static_cast<unsigned long long>(wide[i].seed),
                   static_cast<unsigned long long>(wide[i].fingerprint()),
                   wide_threads,
                   static_cast<unsigned long long>(narrow[i].fingerprint()));
    }
  }

  // Fold template-major rows.
  sim::MetricsTable stats(
      "mission", {"mission", "method", "spec_fingerprint"},
      {"missions", "succeeded", "success_ratio", "legs", "legs_per_mission",
       "replans", "replans_per_mission", "collisions", "timeouts",
       "park_time_p50", "park_time_p95", "exit_time_p50", "exit_time_p95",
       "wall_seconds_mean"});
  math::TextTable table({"template", "method", "missions", "success", "legs/m",
                         "replans/m", "collisions", "timeouts", "park p50 [s]",
                         "exit p50 [s]", "wall mean [s]", "results digest"});
  bool quick_gate_ok = true;
  for (std::size_t t = 0; t < templates.size(); ++t) {
    const std::uint64_t spec_fingerprint =
        mission::MissionRegistry::instance().at(templates[t]).fingerprint();
    // The digest of every per-mission fingerprint in seed order: two runs of
    // one build, seeds and template print the same value at any width.
    math::Fnv1a digest;
    int succeeded = 0, legs = 0, replans = 0, collisions = 0, timeouts = 0;
    std::vector<double> park_times, exit_times;
    double wall_total = 0.0;
    for (int m = 0; m < missions; ++m) {
      const mission::MissionResult& r =
          wide[t * static_cast<std::size_t>(missions) +
               static_cast<std::size_t>(m)];
      digest.add_int(static_cast<std::int64_t>(r.fingerprint()));
      succeeded += r.success ? 1 : 0;
      legs += static_cast<int>(r.legs.size());
      replans += r.replans;
      for (const mission::LegResult& leg : r.legs) {
        if (leg.status != mission::LegStatus::kFailed) continue;
        if (leg.outcome == sim::Outcome::kCollision) ++collisions;
        if (leg.outcome == sim::Outcome::kTimeout) ++timeouts;
      }
      if (r.success) {
        park_times.push_back(r.park_time);
        exit_times.push_back(r.exit_time);
      }
      wall_total += r.wall_seconds;
    }
    const double n = static_cast<double>(missions);
    const double legs_per_mission = legs / n;
    const double replans_per_mission = replans / n;
    const double wall_mean = wall_total / n;
    const double park_p50 = math::percentile(park_times, 50.0);
    const double exit_p50 = math::percentile(exit_times, 50.0);

    // Quick gate: the contested template must actually contest — multi-leg
    // missions with at least one forced replan.
    if (quick && templates[t] == "contested_lot" &&
        (legs_per_mission < 3.0 || replans < 1)) {
      quick_gate_ok = false;
      std::fprintf(stderr,
                   "[mission] QUICK GATE FAIL %s: legs/mission %.1f "
                   "(need >= 3), replans %d (need >= 1)\n",
                   templates[t].c_str(), legs_per_mission, replans);
    }

    char spec_hex[17], digest_hex[17];
    std::snprintf(spec_hex, sizeof(spec_hex), "%016llx",
                  static_cast<unsigned long long>(spec_fingerprint));
    std::snprintf(digest_hex, sizeof(digest_hex), "%016llx",
                  static_cast<unsigned long long>(digest.value()));
    stats.add_row({templates[t], method, spec_hex},
                  {n, double(succeeded), succeeded / n, double(legs),
                   legs_per_mission, double(replans), replans_per_mission,
                   double(collisions), double(timeouts),
                   park_p50, math::percentile(park_times, 95.0), exit_p50,
                   math::percentile(exit_times, 95.0), wall_mean});
    table.add_row({templates[t], method, std::to_string(missions),
                   math::format_double(succeeded / n, 2),
                   math::format_double(legs_per_mission, 1),
                   math::format_double(replans_per_mission, 2),
                   std::to_string(collisions), std::to_string(timeouts),
                   math::format_double(park_p50, 1),
                   math::format_double(exit_p50, 1),
                   math::format_double(wall_mean, 1), digest_hex});
  }

  std::printf("\nMission benchmark — %d missions/template, method %s, base "
              "seed %llu, %d threads (determinism checked vs 1)\n\n",
              missions, method.c_str(),
              static_cast<unsigned long long>(seed), wide_threads);
  table.print(std::cout);

  sim::RunReport report;
  sim::EvalConfig eval_config;
  eval_config.episodes = missions;
  eval_config.base_seed = seed;
  bench::stamp_meta(report, "mission", wide_threads, eval_config);
  report.tables.push_back(stats);
  report_options.tolerance.gates = {
      {"mission", "success_ratio", sim::ColumnGate::Kind::kMaxDrop,
       success_tol},
      {"mission", "replans_per_mission", sim::ColumnGate::Kind::kMaxAbsDelta,
       replan_tol}};
  if (!deterministic)
    std::fprintf(stderr,
                 "bench_mission: FAIL — results differ across thread counts\n");
  return bench::finish("mission", report, report_options,
                       deterministic && quick_gate_ok);
}
