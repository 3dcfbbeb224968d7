#pragma once

// The one suite-runner behind `bench_suite` and the thin table2/fig8
// wrappers: builds the named suite, fans it out per method through
// sim::Evaluator, prints/saves the aggregate table, and optionally writes a
// sim::RunReport artifact and gates against a committed baseline report.

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/controller_registry.hpp"
#include "core/task_pool.hpp"
#include "mathkit/table.hpp"
#include "sim/evaluator.hpp"
#include "sim/report.hpp"
#include "world/generators/registry.hpp"

namespace icoil::bench {

/// Options shared by every bench_suite subcommand (defaults resolved per
/// subcommand inside run_suite_command).
struct RunSuiteOptions {
  int episodes = -1;           ///< -1 = subcommand default (env-overridable)
  std::string methods;         ///< csv of registry keys; "" = subcommand default
  std::string report_path;     ///< write a RunReport JSON here when set
  std::string baseline_path;   ///< compare against this RunReport when set
  std::string csv_path;        ///< "" = subcommand default (may be none)
  bool per_episode = false;    ///< include per-episode records in the report
  bool quick = false;          ///< smoke mode: 2 episodes, no training
  int threads = 0;             ///< EvalConfig::num_threads (0 = hardware)
  double wall_budget = 0.0;    ///< per-cell wall-clock budget [s]; <=0 = off
  double frame_deadline_ms = 0.0;  ///< per-frame controller budget; <=0 = off
  /// Pool-level abort token (typically tripped by a SIGINT handler): when it
  /// cancels mid-run, evaluation drains promptly and the partial report is
  /// still written, flagged meta.aborted.
  const core::CancelToken* abort = nullptr;
  sim::BaselineTolerance tolerance;
};

/// Prints the controller registry (key, label, description) — the
/// `bench_suite --list-methods` discovery listing.
inline void print_registered_methods(std::FILE* out) {
  const auto& registry = core::ControllerRegistry::instance();
  std::fprintf(out, "Registered controller methods (%zu):\n", registry.size());
  for (const std::string& key : registry.keys()) {
    const core::ControllerSpec& spec = *registry.find(key);
    std::fprintf(out, "  %-12s %-12s %s%s\n", key.c_str(),
                 ("[" + spec.display_name + "]").c_str(),
                 spec.description.c_str(),
                 spec.needs_policy ? " (needs trained policy)" : "");
  }
}

/// Prints the scenario generator registry (name, description) — the
/// `bench_suite --list-generators` discovery listing, the scenario-side
/// mirror of --list-methods.
inline void print_registered_generators(std::FILE* out) {
  const auto& registry = world::GeneratorRegistry::instance();
  std::fprintf(out, "Registered scenario generators (%zu):\n", registry.size());
  for (const std::string& name : registry.names()) {
    const world::ScenarioGenerator* gen = registry.find(name);
    std::fprintf(out, "  %-18s %s\n", name.c_str(),
                 gen != nullptr ? gen->description().c_str() : "");
  }
}

namespace detail {

inline sim::ScenarioSuite build_suite(const std::string& which) {
  sim::ScenarioSuite suite;
  suite.name = which;
  if (which == "table2") {
    for (auto level : {world::Difficulty::kEasy, world::Difficulty::kNormal,
                       world::Difficulty::kHard}) {
      sim::SuiteCell cell;
      cell.difficulty = level;
      cell.start_class = world::StartClass::kRandom;
      cell.label = world::to_string(level);
      suite.add(cell);
    }
  } else if (which == "fig8") {
    for (auto start : {world::StartClass::kClose, world::StartClass::kRemote,
                       world::StartClass::kRandom}) {
      for (int k = 1; k <= 5; ++k) {
        sim::SuiteCell cell;
        cell.difficulty = world::Difficulty::kNormal;
        cell.start_class = start;
        cell.num_obstacles_override = k;
        cell.label = world::to_string(start) + "/" + std::to_string(k);
        suite.add(cell);
      }
    }
  } else if (which == "zoo") {
    suite = sim::ScenarioSuite::cross(
        world::GeneratorRegistry::instance().names(),
        {world::Difficulty::kEasy, world::Difficulty::kNormal},
        {world::StartClass::kRandom});
    suite.name = which;
  }
  return suite;
}

inline int default_episodes(const std::string& which) {
  if (which == "table2") return 50;
  if (which == "fig8") return 15;
  return 4;  // zoo
}

inline std::string default_methods(const std::string& which, bool quick) {
  if (which == "zoo" || quick) return "co";  // no trained policy needed
  if (which == "fig8") return "icoil";
  return "icoil,il,co";  // table2
}

inline std::string default_csv(const std::string& which) {
  if (which == "table2") return "table2_success.csv";
  if (which == "fig8") return "fig8_sensitivity.csv";
  return "";
}

/// The paper context each suite reproduces (printed above the table).
inline std::string suite_title(const std::string& which) {
  if (which == "table2")
    return "Table II — parking time and success ratio per task level";
  if (which == "fig8")
    return "Fig. 8 — iCOIL parking time vs starting point and obstacle count";
  return "Scenario zoo — every registered generator family";
}

inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace detail

/// Runs one suite subcommand end to end; returns the process exit code
/// (0 ok, 1 baseline regression, 2 usage error, 3 I/O error).
inline int run_suite_command(const std::string& which, RunSuiteOptions opts) {
  if (which != "table2" && which != "fig8" && which != "zoo") {
    std::fprintf(stderr,
                 "bench_suite: unknown suite \"%s\" (expected table2|fig8|zoo)\n",
                 which.c_str());
    return 2;
  }

  if (opts.episodes <= 0)
    opts.episodes =
        opts.quick ? 2 : episodes_override(detail::default_episodes(which));
  if (opts.methods.empty())
    opts.methods = detail::default_methods(which, opts.quick);
  if (opts.csv_path.empty() && !opts.quick)
    opts.csv_path = detail::default_csv(which);

  sim::ScenarioSuite suite = detail::build_suite(which);
  if (opts.wall_budget > 0.0)
    for (sim::SuiteCell& cell : suite.cells) cell.wall_budget = opts.wall_budget;

  // Resolve methods up front through the controller registry; the trained
  // policy loads (or trains) once and only when a policy-backed method asks
  // for it. It must be constructed HERE, on the main thread, before
  // evaluation starts: the evaluator invokes the controller factories
  // concurrently from its pool workers, so a lazy first-use construction
  // inside a factory would race.
  struct Method {
    std::string name;
    core::ControllerFactory factory;
  };
  const auto& registry = core::ControllerRegistry::instance();
  std::unique_ptr<il::IlPolicy> policy;
  std::vector<Method> methods;
  for (const std::string& m : detail::split_csv(opts.methods)) {
    const core::ControllerSpec* spec = registry.find(m);
    if (spec == nullptr) {
      std::fprintf(stderr,
                   "bench_suite: unknown method \"%s\" — run --list-methods "
                   "for the registered keys\n",
                   m.c_str());
      return 2;
    }
    core::ControllerBuildArgs args;
    if (spec->needs_policy) {
      if (!policy) policy = shared_policy();
      args.policy = policy.get();
    }
    methods.push_back({spec->display_name, registry.factory(m, args)});
  }

  sim::EvalConfig eval_config;
  eval_config.episodes = opts.episodes;
  eval_config.num_threads = opts.threads;
  eval_config.abort = opts.abort;
  if (opts.frame_deadline_ms > 0.0)
    eval_config.sim.frame_deadline_ms = opts.frame_deadline_ms;
  sim::Evaluator evaluator(eval_config);

  sim::RunReport report;
  report.meta.suite = which;
  report.meta.git_describe = sim::build_git_describe();
  report.meta.threads = evaluator.resolved_workers(
      opts.episodes * static_cast<int>(suite.cells.size()));
  report.meta.episodes_per_cell = opts.episodes;
  report.meta.base_seed = eval_config.base_seed;
  report.meta.config_fingerprint = sim::config_fingerprint(eval_config);

  const auto aborted = [&] {
    return opts.abort != nullptr && opts.abort->cancelled();
  };

  math::TextTable table({"cell", "method", "avg [s]", "std [s]", "max [s]",
                         "min [s]", "success", "over budget", "episodes"});
  for (const Method& method : methods) {
    if (aborted()) break;  // drain: later methods never even start
    const auto detailed = evaluator.evaluate_suite_detailed(
        method.factory, suite,
        [&](const sim::SuiteCell& cell, int completed, int total) {
          std::fprintf(stderr, "[%s] %s / %s done (%d/%d)\n", which.c_str(),
                       cell.display_label().c_str(), method.name.c_str(),
                       completed, total);
        });

    const std::vector<sim::SuiteCellResult> results =
        sim::aggregate_suite(detailed, method.name);
    if (opts.per_episode)
      report.add_cells_detailed(results, detailed);
    else
      report.add_cells(results);

    for (const sim::SuiteCellResult& r : results) {
      const sim::Aggregate& agg = r.aggregate;
      table.add_row({r.cell.display_label(), method.name,
                     math::format_double(agg.park_time.mean(), 2),
                     math::format_double(agg.park_time.stddev(), 2),
                     math::format_double(agg.park_time.max(), 2),
                     math::format_double(agg.park_time.min(), 2),
                     math::format_double(100.0 * agg.success_ratio(), 0) + "%",
                     std::to_string(agg.budget_exceeded),
                     std::to_string(agg.episodes)});
    }
  }

  report.meta.aborted = aborted();

  std::printf("\n%s (%d episodes/cell, %d worker thread%s)%s\n\n",
              detail::suite_title(which).c_str(), opts.episodes,
              report.meta.threads, report.meta.threads == 1 ? "" : "s",
              report.meta.aborted ? " — ABORTED, partial results" : "");
  table.print(std::cout);
  if (!opts.csv_path.empty()) table.save_csv(opts.csv_path);

  if (!opts.report_path.empty()) {
    std::string error;
    if (!report.save(opts.report_path, &error)) {
      std::fprintf(stderr, "bench_suite: %s\n", error.c_str());
      return 3;
    }
    std::fprintf(stderr, "[%s] %sreport written to %s\n", which.c_str(),
                 report.meta.aborted ? "partial (aborted) " : "",
                 opts.report_path.c_str());
  }

  if (report.meta.aborted) {
    // 128 + SIGINT, the conventional "died on ctrl-C" exit — but only after
    // the partial report hit disk. Baseline gating a partial run would only
    // produce spurious regressions, so it is skipped.
    std::fprintf(stderr, "[%s] aborted by cancellation token\n", which.c_str());
    return 130;
  }

  if (!opts.baseline_path.empty()) {
    sim::RunReport baseline;
    std::string error;
    if (!sim::RunReport::load(opts.baseline_path, &baseline, &error)) {
      std::fprintf(stderr, "bench_suite: cannot load baseline: %s\n",
                   error.c_str());
      return 3;
    }
    const sim::BaselineVerdict verdict =
        sim::compare_to_baseline(report, baseline, opts.tolerance);
    std::printf("\n%s\n", verdict.summary().c_str());
    if (!verdict.ok) return 1;
  }
  return 0;
}

}  // namespace icoil::bench
