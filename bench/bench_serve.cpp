// Thin driver over the serve:: front-end subsystem. All serving-loop logic
// — session lifecycle, tick scheduling, admission control, load shedding,
// deadline autotuning, latency accounting — lives in serve::Frontend (and
// core::LatencyHistogram); this file only parses flags, runs one Frontend
// per load level, prints tables and assembles the RunReport.
//
// --sessions takes either one count (single run) or a comma list
// ("--sessions 1,10,100") which sweeps offered load level by level and
// reports frames/sec and tail latency vs. load, flagging the saturation
// knee (the last level whose throughput still grew meaningfully).
//
// The report records one row per completed load level in its `serve` and
// `serve_latency` tables (plus `serve_tuning` / `serve_batching` when the
// tuner or the batched service ran), keyed by method and offered load.
//
// One discarded single-session run precedes the first level, so the
// process's cold first frame is not charged to it.
//
// Ctrl-C is clean: SIGINT trips a shared core::CancelToken that every
// session polls, episodes end as budget_exceeded, and the partial report —
// containing the load levels completed so far — is written (meta.aborted)
// before exit 130.
//
// Usage: bench_serve [options]; the flag table in main() documents every
// flag, and a bad flag prints the usage generated from it.
//
// Exit codes: 0 ok, 2 usage error, 3 I/O error, 130 aborted by SIGINT.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller_registry.hpp"
#include "driver.hpp"
#include "mathkit/gemm.hpp"
#include "mathkit/table.hpp"
#include "serve/frontend.hpp"
#include "sim/report.hpp"

namespace {

using namespace icoil;

struct ServeOptions {
  std::vector<int> session_levels = {8};
  serve::FrontendConfig frontend;  ///< shared knobs; sessions set per level
  bench::ReportOptions report;
  bool quick = false;
};

/// "1,10,100" -> {1, 10, 100}, sorted ascending and deduplicated (the knee
/// heuristic reads the rows as an offered-load-ascending curve).
bool parse_session_levels(const char* text, std::vector<int>* out) {
  out->clear();
  for (const std::string& item : bench::split_csv(text)) {
    int value = 0;
    if (!bench::parse_number(item.c_str(), &value) || value < 1) return false;
    out->push_back(value);
  }
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
  return !out->empty();
}

bool parse_difficulty(const char* text, world::Difficulty* out) {
  for (const auto level : {world::Difficulty::kEasy, world::Difficulty::kNormal,
                           world::Difficulty::kHard}) {
    if (world::to_string(level) == text) {
      *out = level;
      return true;
    }
  }
  return false;
}

void print_single_run(const serve::ServeStats& stats,
                      const sim::Aggregate& aggregate) {
  math::TextTable table({"metric", "value"});
  table.add_row({"sessions offered", std::to_string(stats.offered)});
  table.add_row({"admitted", std::to_string(stats.admitted)});
  table.add_row({"queued", std::to_string(stats.queued)});
  table.add_row({"shed", std::to_string(stats.shed)});
  table.add_row({"workers", std::to_string(stats.threads)});
  table.add_row({"frames served", std::to_string(stats.frames)});
  table.add_row({"warmup frames", std::to_string(stats.warmup.count)});
  table.add_row({"wall time [s]", math::format_double(stats.wall_seconds, 2)});
  table.add_row({"frames/sec", math::format_double(stats.frames_per_second, 1)});
  table.add_row({"frame p50 [ms]", math::format_double(stats.frame.p50_ms, 2)});
  table.add_row({"frame p99 [ms]", math::format_double(stats.frame.p99_ms, 2)});
  table.add_row({"frame max [ms]", math::format_double(stats.frame.max_ms, 2)});
  table.add_row({"queue p99 [ms]", math::format_double(stats.queue.p99_ms, 2)});
  table.add_row({"deadline hits", std::to_string(stats.deadline_hits)});
  if (stats.tuning.has_value()) {
    const serve::ServeStats::Tuning& t = *stats.tuning;
    table.add_row({"tuned deadline min [ms]",
                   math::format_double(t.deadline_min_ms, 2)});
    table.add_row({"tuned deadline mean [ms]",
                   math::format_double(t.deadline_mean_ms, 2)});
    table.add_row({"tuned deadline max [ms]",
                   math::format_double(t.deadline_max_ms, 2)});
  }
  if (stats.batching.has_value()) {
    const serve::ServeStats::Batching& b = *stats.batching;
    table.add_row({"batch ticks", std::to_string(b.ticks)});
    table.add_row({"mean batch", math::format_double(b.mean_batch, 2)});
    table.add_row({"max batch", std::to_string(b.max_batch)});
    table.add_row({"gather [ms]", math::format_double(b.gather_seconds * 1e3, 1)});
    table.add_row({"forward [ms]", math::format_double(b.forward_seconds * 1e3, 1)});
    table.add_row({"scatter [ms]", math::format_double(b.scatter_seconds * 1e3, 1)});
  }
  table.add_row({"parked", std::to_string(aggregate.successes)});
  table.add_row({"collided", std::to_string(aggregate.collisions)});
  table.add_row({"timed out", std::to_string(aggregate.timeouts)});
  table.add_row({"over budget", std::to_string(aggregate.budget_exceeded)});
  table.print(std::cout);
}

void print_sweep(const std::vector<serve::ServeLoadLevel>& levels,
                 int knee_offered) {
  math::TextTable table({"offered", "admitted", "shed", "frames", "frames/sec",
                         "p50 [ms]", "p99 [ms]", "queue p99 [ms]",
                         "deadline hits", "knee"});
  for (const serve::ServeLoadLevel& level : levels)
    table.add_row({std::to_string(level.offered),
                   std::to_string(level.admitted), std::to_string(level.shed),
                   std::to_string(level.frames),
                   math::format_double(level.frames_per_second, 1),
                   math::format_double(level.frame_p50_ms, 2),
                   math::format_double(level.frame_p99_ms, 2),
                   math::format_double(level.queue_p99_ms, 2),
                   std::to_string(level.deadline_hits),
                   level.knee ? "<-- knee" : ""});
  table.print(std::cout);
  if (knee_offered > 0)
    std::printf("\nsaturation knee at offered load %d: adding sessions "
                "beyond it no longer buys throughput, only latency\n",
                knee_offered);
  else if (!levels.empty())
    std::printf("\nno saturation knee observed: throughput still scaled at "
                "offered load %d\n", levels.back().offered);
}

/// Fills the report's serve tables from the completed levels' stats;
/// `levels` is the parallel sweep view that carries the knee flag.
void add_serve_tables(sim::RunReport& report,
                      const std::vector<serve::ServeStats>& runs,
                      const std::vector<serve::ServeLoadLevel>& levels) {
  sim::MetricsTable serve(
      "serve", {"method", "offered"},
      {"admitted", "queued", "shed", "threads", "frames", "wall_seconds",
       "frames_per_second", "frame_deadline_ms", "deadline_hits",
       "warmup_frames_per_session", "knee"});
  sim::MetricsTable latency(
      "serve_latency", {"method", "offered", "series"},
      {"count", "mean_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms"});
  sim::MetricsTable tuning(
      "serve_tuning", {"method", "offered"},
      {"min_ms", "max_ms", "headroom", "window", "deadline_min_ms",
       "deadline_mean_ms", "deadline_max_ms"});
  sim::MetricsTable batching(
      "serve_batching", {"method", "offered"},
      {"ticks", "requests", "batches", "max_batch", "mean_batch",
       "gather_seconds", "forward_seconds", "scatter_seconds"});
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const serve::ServeStats& s = runs[i];
    const std::string offered = std::to_string(s.offered);
    serve.add_row({s.method, offered},
                  {double(s.admitted), double(s.queued), double(s.shed),
                   double(s.threads), double(s.frames), s.wall_seconds,
                   s.frames_per_second, s.frame_deadline_ms,
                   double(s.deadline_hits), double(s.warmup_frames_per_session),
                   levels[i].knee ? 1.0 : 0.0});
    for (const auto& [series, l] :
         {std::pair{"frame", &s.frame}, std::pair{"queue", &s.queue},
          std::pair{"warmup", &s.warmup}})
      latency.add_row({s.method, offered, series},
                      {double(l->count), l->mean_ms, l->p50_ms, l->p90_ms,
                       l->p99_ms, l->max_ms});
    if (const auto& t = s.tuning)
      tuning.add_row({s.method, offered},
                     {t->min_ms, t->max_ms, t->headroom, double(t->window),
                      t->deadline_min_ms, t->deadline_mean_ms,
                      t->deadline_max_ms});
    if (const auto& b = s.batching)
      batching.add_row({s.method, offered},
                       {double(b->ticks), double(b->requests),
                        double(b->batches), double(b->max_batch),
                        b->mean_batch, b->gather_seconds, b->forward_seconds,
                        b->scatter_seconds});
  }
  for (sim::MetricsTable* t : {&serve, &latency, &tuning, &batching})
    if (!t->rows.empty()) report.tables.push_back(std::move(*t));
}

int run_serve(const ServeOptions& opts) {
  const core::ControllerSpec* spec =
      core::ControllerRegistry::instance().find(opts.frontend.method);
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "bench_serve: unknown method \"%s\" — run `bench_suite "
                 "--list-methods` for the registered keys\n",
                 opts.frontend.method.c_str());
    return 2;
  }

  // Policy (when needed) is acquired once and shared across all levels.
  std::unique_ptr<il::IlPolicy> policy;
  serve::FrontendConfig base = opts.frontend;
  if (spec->needs_policy) {
    policy = bench::shared_policy();
    base.policy = policy.get();
  }

  // Warm-up: one discarded single-session run through the same Frontend
  // path, so the process's cold first frame (first-touch allocations,
  // lazily filled Reeds-Shepp table entries) is not charged to the first
  // timed level. Frontend::run validates its config first, so a bad knob
  // (or a batched method without a batching session) exits 2 here, before
  // any level runs; no other config check depends on the session count.
  try {
    serve::FrontendConfig warmup = base;
    warmup.sessions = 1;
    (void)serve::Frontend(warmup, &bench::sigint_token()).run();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench_serve: %s\n", e.what());
    return 2;
  }

  const bool sweep = opts.session_levels.size() > 1;
  std::vector<serve::ServeLoadLevel> levels;
  std::vector<serve::ServeStats> runs;
  std::vector<sim::SuiteCellResult> cells;
  int last_workers = 0;
  bool aborted = false;

  for (const int sessions : opts.session_levels) {
    serve::FrontendConfig level_config = base;
    level_config.sessions = sessions;
    if (sweep) level_config.label = "serve@" + std::to_string(sessions);

    std::fprintf(
        stderr, "[serve] %d session%s of %s%s%s\n", sessions,
        sessions == 1 ? "" : "s", spec->display_name.c_str(),
        level_config.tuner.enabled ? ", autotuned deadline" : "",
        level_config.batch_inference
            ? (std::string(", batched inference via ") +
               math::gemm_kernel_name() + " gemm")
                  .c_str()
            : "");

    const serve::FrontendResult result =
        serve::Frontend(level_config, &bench::sigint_token()).run();

    if (result.aborted) {
      // Partial level: keep only the levels completed so far in the report.
      aborted = true;
      std::fprintf(stderr,
                   "[serve] aborted at offered load %d — report keeps the "
                   "%zu completed level%s\n",
                   sessions, levels.size(), levels.size() == 1 ? "" : "s");
      break;
    }

    levels.push_back(serve::to_load_level(result.stats));
    runs.push_back(result.stats);
    last_workers = result.workers;
    sim::SuiteCell cell;
    cell.difficulty = level_config.difficulty;
    cell.time_limit = level_config.time_limit;
    cell.label = level_config.label;
    cells.push_back({cell, result.aggregate});
    std::fprintf(stderr, "[serve]   %llu frames, %.1f frames/sec, p99 %.2f ms\n",
                 static_cast<unsigned long long>(result.stats.frames),
                 result.stats.frames_per_second, result.stats.frame.p99_ms);
  }

  int knee_offered = 0;
  if (sweep && levels.size() > 1) {
    const int knee = serve::find_knee(levels);
    if (knee >= 0) {
      levels[static_cast<std::size_t>(knee)].knee = true;
      knee_offered = levels[static_cast<std::size_t>(knee)].offered;
    }
  }

  // ---- human-readable summary ------------------------------------------
  std::printf("\nServing run — %s%s\n\n", spec->display_name.c_str(),
              aborted ? " — ABORTED, partial results" : "");
  if (sweep) {
    print_sweep(levels, knee_offered);
  } else if (!levels.empty()) {
    print_single_run(runs.back(), cells.back().aggregate);
  }

  // ---- RunReport artifact ----------------------------------------------
  sim::EvalConfig eval_config;  // provenance fingerprint only
  eval_config.episodes =
      levels.empty() ? opts.session_levels.front() : levels.back().offered;
  eval_config.base_seed = opts.frontend.base_seed;
  eval_config.sim.frame_deadline_ms = opts.frontend.frame_deadline_ms;
  sim::RunReport report;
  bench::stamp_meta(report, "serve", last_workers, eval_config);
  report.meta.aborted = aborted;
  add_serve_tables(report, runs, levels);
  report.add_cells(cells);
  return bench::finish("serve", report, opts.report);
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions opts;
  serve::FrontendConfig& fe = opts.frontend;
  using bench::flag;
  bench::Cli cli(
      "bench_serve", {},
      {{"--sessions", "N[,N...]", "offered load level(s) (default 8)",
        [&](const char* v) {
          return parse_session_levels(v, &opts.session_levels);
        }},
       flag("--method", "KEY", "controller registry key (default co)",
            &fe.method),
       flag("--frame-deadline-ms", "X",
            "static per-frame budget (default: none)", &fe.frame_deadline_ms,
            bench::kPositive),
       flag("--capacity", "N", "max active sessions (default 0 = unlimited)",
            &fe.admission.max_active, 0),
       flag("--queue-limit", "N",
            "arrivals that may wait for a slot before shedding starts "
            "(default -1 = unbounded)",
            &fe.admission.queue_limit, -1),
       flag("--warmup-frames", "N",
            "leading frames per session excluded from the latency "
            "percentiles (default 1)",
            &fe.warmup_frames, 0),
       flag("--autotune-deadline",
            "tune each session's frame deadline from its rolling p99",
            &fe.tuner.enabled),
       flag("--deadline-min-ms", "X", "tuner clamp floor (default 5)",
            &fe.tuner.min_ms, bench::kPositive),
       flag("--deadline-max-ms", "X", "tuner clamp ceiling (default 200)",
            &fe.tuner.max_ms, bench::kPositive),
       flag("--deadline-headroom", "X",
            "tuner target = X * rolling p99 (default 1.5)", &fe.tuner.headroom,
            bench::kPositive),
       flag("--time-limit", "S",
            "per-episode simulated time limit (default 60)", &fe.time_limit,
            bench::kPositive),
       {"--difficulty", "LEVEL", "easy|normal|hard (default normal)",
        [&](const char* v) { return parse_difficulty(v, &fe.difficulty); }},
       flag("--threads", "N", "pool workers (0 = hardware, capped at 16)",
            &fe.threads, 0),
       flag("--seed", "S", "base seed; session i uses seed+i (default 1000)",
            &fe.base_seed, 0),
       flag("--report", "PATH", "write the RunReport JSON artifact",
            &opts.report.path),
       flag("--quick",
            "smoke mode: easy 6 s episodes (4 sessions unless --sessions)",
            &opts.quick),
       flag("--batch-inference",
            "batch IL forwards across sessions per tick (policy-backed "
            "methods only; the default method becomes il)",
            &fe.batch_inference),
       flag("--max-batch", "N", "cap one batched forward (default 32)",
            &fe.max_batch, 1)});
  if (const auto code = cli.parse(argc, argv)) return *code;

  if (opts.quick) {
    // Smoke settings: tiny interleaved run that needs no trained policy and
    // finishes in seconds. Explicit flags given alongside --quick still win
    // for method/deadline/sessions, but the episode shape is pinned.
    if (!cli.given("--sessions")) opts.session_levels = {4};
    fe.difficulty = world::Difficulty::kEasy;
    fe.time_limit = 6.0;
  }

  // Batching only applies to policy-backed methods; when the user asked for
  // it without picking one, serve the IL baseline instead of erroring on
  // the (policy-less) co default.
  if (fe.batch_inference && !cli.given("--method")) fe.method = "il";

  bench::install_sigint_handler();
  return run_serve(opts);
}
