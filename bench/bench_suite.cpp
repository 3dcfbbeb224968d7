// The one bench driver: runs a named evaluation suite (table2 | fig8 | zoo)
// through sim::Evaluator, prints the aggregate table, and optionally writes
// a versioned sim::RunReport JSON artifact and/or gates the run against a
// committed baseline report (nonzero exit on success-rate or park-time
// regression beyond tolerance). `table2_success` stays as a wrapper only for
// its --curriculum-compare mode.
//
// Ctrl-C is clean: SIGINT trips a shared core::CancelToken, the evaluation
// fan-out drains, and the partial report is still written (meta.aborted)
// before the process exits 130.
//
// Usage:
//   bench_suite [table2|fig8|zoo] [options]
//     --episodes N       episodes per cell (default: suite-specific;
//                        ICOIL_EPISODES honoured)
//     --methods LIST     comma list of controller registry keys
//                        (default: suite-specific; see --list-methods)
//     --list-methods     print the registered method keys and exit 0
//     --list-generators  print the registered scenario generators and exit 0
//     --planner-heuristic NAME  hybrid-A* heuristic for CO-backed methods:
//                        euclid-rs | lut | dijkstra | max (default: max)
//     --report PATH      write the RunReport JSON artifact
//     --baseline PATH    load a reference RunReport and exit 1 on regression
//     --success-tol X    allowed absolute success-ratio drop (default 0.02)
//     --park-tol X       allowed relative park-time slowdown (default 0.10)
//     --budget S         per-cell wall-clock budget in seconds
//     --frame-deadline-ms X  per-frame controller budget in milliseconds
//     --per-episode      include per-episode records in the report
//     --threads N        evaluator worker threads (0 = hardware)
//     --csv PATH         also save the table as CSV
//     --quick            smoke mode: 2 episodes, CO only (no training);
//                        default suite: zoo
//
// Exit codes: 0 ok, 1 baseline regression, 2 usage error, 3 I/O error,
// 130 aborted by SIGINT (partial report written).

#include <cstdio>
#include <cstring>
#include <string>

#include "suite_runner.hpp"

namespace {

using icoil::bench::parse_double_arg;
using icoil::bench::parse_int_arg;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [table2|fig8|zoo] [--episodes N] [--methods LIST] "
               "[--list-methods] [--list-generators] [--report PATH] "
               "[--baseline PATH] [--success-tol X] [--park-tol X] "
               "[--budget S] [--frame-deadline-ms X] "
               "[--planner-heuristic euclid-rs|lut|dijkstra|max] "
               "[--per-episode] [--threads N] [--csv PATH] [--quick]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;

  std::string which;
  bench::RunSuiteOptions opts;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "table2" || arg == "fig8" || arg == "zoo") {
      if (!which.empty()) return usage(argv[0]);
      which = arg;
    } else if (arg == "--list-methods") {
      bench::print_registered_methods(stdout);
      return 0;
    } else if (arg == "--list-generators") {
      bench::print_registered_generators(stdout);
      return 0;
    } else if (arg == "--planner-heuristic") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      opts.planner_heuristic = v;
    } else if (arg == "--episodes") {
      const char* v = next_value();
      if (v == nullptr || !parse_int_arg(v, &opts.episodes) || opts.episodes <= 0)
        return usage(argv[0]);
    } else if (arg == "--methods") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      opts.methods = v;
    } else if (arg == "--report") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      opts.report_path = v;
    } else if (arg == "--baseline") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      opts.baseline_path = v;
    } else if (arg == "--csv") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      opts.csv_path = v;
    } else if (arg == "--success-tol") {
      const char* v = next_value();
      if (v == nullptr || !parse_double_arg(v, &opts.tolerance.success_drop) ||
          opts.tolerance.success_drop < 0.0)
        return usage(argv[0]);
    } else if (arg == "--park-tol") {
      const char* v = next_value();
      if (v == nullptr ||
          !parse_double_arg(v, &opts.tolerance.park_time_slowdown) ||
          opts.tolerance.park_time_slowdown < 0.0)
        return usage(argv[0]);
    } else if (arg == "--budget") {
      // A negative budget is a typo, not "no budget": reject it rather than
      // silently running without the wall-clock gate.
      const char* v = next_value();
      if (v == nullptr || !parse_double_arg(v, &opts.wall_budget) ||
          opts.wall_budget <= 0.0)
        return usage(argv[0]);
    } else if (arg == "--frame-deadline-ms") {
      const char* v = next_value();
      if (v == nullptr || !parse_double_arg(v, &opts.frame_deadline_ms) ||
          opts.frame_deadline_ms <= 0.0)
        return usage(argv[0]);
    } else if (arg == "--threads") {
      const char* v = next_value();
      if (v == nullptr || !parse_int_arg(v, &opts.threads) || opts.threads < 0)
        return usage(argv[0]);
    } else if (arg == "--per-episode") {
      opts.per_episode = true;
    } else if (arg == "--quick") {
      opts.quick = true;
    } else {
      std::fprintf(stderr, "bench_suite: unknown argument \"%s\"\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }

  if (which.empty()) {
    if (!opts.quick) return usage(argv[0]);
    which = "zoo";  // the smoke default: fast, no trained policy
  }

  // Ctrl-C trips the shared token; the suite drains and the partial report
  // is still written instead of the process dying mid-write.
  opts.abort = &bench::sigint_token();
  bench::install_sigint_handler();

  return bench::run_suite_command(which, opts);
}
