#include "serve/frontend.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/controller_registry.hpp"
#include "core/latency_histogram.hpp"
#include "core/task_pool.hpp"
#include "il/batch_inferencer.hpp"
#include "mathkit/stats.hpp"
#include "sim/session.hpp"

namespace icoil::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Everything one arrival owns. Controllers and sessions are built up front
/// on the calling thread (workers only ever step), measurements accumulate
/// per session so the hot loop shares nothing across threads.
struct Served {
  std::unique_ptr<core::Controller> controller;
  std::unique_ptr<sim::Session> session;
  core::LatencyHistogram frame_hist;   ///< steady-state frame latencies
  core::LatencyHistogram warmup_hist;  ///< cold-start frame latencies
  std::optional<DeadlineTuner> tuner;
  math::RunningStats applied_deadlines;
};

}  // namespace

bool Frontend::validate(const FrontendConfig& config, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = why;
    return false;
  };
  const core::ControllerSpec* spec =
      core::ControllerRegistry::instance().find(config.method);
  if (spec == nullptr)
    return fail("unknown method \"" + config.method +
                "\" — run `bench_suite --list-methods` for the registered "
                "keys");
  if (config.sessions < 1) return fail("sessions must be >= 1");
  if (spec->needs_policy && config.policy == nullptr)
    return fail("method \"" + config.method +
                "\" needs a policy (set FrontendConfig::policy)");
  if (config.batch_inference && !spec->needs_policy)
    return fail("batch inference requires a policy-backed method (il or "
                "icoil), not \"" + config.method + "\"");
  if (config.batch_inference && config.max_batch < 1)
    return fail("max_batch must be >= 1");
  if (config.warmup_frames < 0) return fail("warmup_frames must be >= 0");
  if (config.admission.max_active < 0)
    return fail("admission.max_active must be >= 0 (0 = unlimited)");
  if (config.tuner.enabled &&
      !(config.tuner.min_ms > 0.0 &&
        config.tuner.max_ms >= config.tuner.min_ms))
    return fail("deadline tuner needs 0 < min_ms <= max_ms");
  return true;
}

FrontendResult Frontend::run() {
  std::string error;
  if (!validate(config_, &error))
    throw std::invalid_argument("serve::Frontend: " + error);

  const auto& registry = core::ControllerRegistry::instance();
  const core::ControllerSpec& spec = registry.at(config_.method);
  core::ControllerBuildArgs args;
  args.policy = config_.policy;

  // The static deadline every session starts with; the tuner (when on)
  // replaces it frame by frame from its permissive end.
  sim::SimConfig sim_config;
  sim_config.frame_deadline_ms = config_.frame_deadline_ms;
  if (config_.tuner.enabled) {
    DeadlineTuner seed_tuner(config_.tuner, config_.frame_deadline_ms);
    sim_config.frame_deadline_ms = seed_tuner.deadline_ms();
  }

  const int n = config_.sessions;
  std::vector<Served> served(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const std::uint64_t seed =
        config_.base_seed + static_cast<std::uint64_t>(i);
    world::ScenarioOptions scenario_opts;
    scenario_opts.difficulty = config_.difficulty;
    scenario_opts.time_limit = config_.time_limit;
    const world::Scenario scenario = world::make_scenario(scenario_opts, seed);
    Served& s = served[static_cast<std::size_t>(i)];
    s.controller = registry.build(config_.method, args);
    s.session = std::make_unique<sim::Session>(scenario, *s.controller, seed,
                                               sim_config, abort_);
    const std::size_t frame_cap =
        static_cast<std::size_t>(config_.time_limit / sim_config.dt) + 1;
    s.frame_hist.reserve(frame_cap);
    if (config_.tuner.enabled)
      s.tuner.emplace(config_.tuner, config_.frame_deadline_ms);
  }

  std::unique_ptr<il::BatchInferencer> service;
  if (config_.batch_inference) {
    service = std::make_unique<il::BatchInferencer>(
        *config_.policy, static_cast<std::size_t>(config_.max_batch));
    for (const Served& s : served)
      if (!s.session->supports_batching())
        throw std::invalid_argument(
            "serve::Frontend: method \"" + config_.method +
            "\" does not implement core::BatchClient");
  }

  // ---- admission: every arrival is offered up front (offered load), so
  // the admit/queue/shed split is a pure function of N and the capacity
  // policy — deterministic across runs and thread counts.
  AdmissionController admission(config_.admission);
  std::mutex admission_mutex;  ///< guards admission + queue_hist + arrivals
  core::LatencyHistogram queue_hist;
  std::vector<Clock::time_point> offered_at(static_cast<std::size_t>(n));
  std::vector<std::size_t> initial;
  for (int i = 0; i < n; ++i) {
    offered_at[static_cast<std::size_t>(i)] = Clock::now();
    switch (admission.offer(i)) {
      case AdmissionController::Decision::kAdmit:
        queue_hist.add(0.0);  // admitted on arrival: zero queue time
        initial.push_back(static_cast<std::size_t>(i));
        break;
      case AdmissionController::Decision::kQueue:
      case AdmissionController::Decision::kShed:
        break;  // queued arrivals are timed at admission; shed never run
    }
  }

  // Pool width follows the concurrency admission actually allows, not the
  // raw offered load — a capacity of 4 never needs 16 workers.
  const int effective_jobs =
      config_.admission.max_active > 0
          ? std::min(n, config_.admission.max_active)
          : n;
  const int workers = core::TaskPool::recommended_workers(
      config_.threads, effective_jobs, config_.thread_cap);
  core::TaskPool pool(workers);

  // One served frame's bookkeeping: warmup split, steady-state histogram,
  // tuner feedback into the session's next-frame deadline. `frame_index` is
  // the index of the frame that just ran.
  auto record_frame = [&](Served& s, std::size_t frame_index, double ms) {
    if (frame_index < static_cast<std::size_t>(config_.warmup_frames)) {
      s.warmup_hist.add(ms);
      return;
    }
    s.frame_hist.add(ms);
    if (s.tuner.has_value()) {
      const double deadline = s.tuner->observe(ms);
      s.session->set_frame_deadline_ms(deadline);
      s.applied_deadlines.add(deadline);
    }
  };

  // A finished session frees its slot; the queue head (if any) is admitted,
  // its queue time recorded, and the caller pumps/activates it.
  auto admit_next = [&]() -> int {
    std::lock_guard<std::mutex> lock(admission_mutex);
    const int next = admission.on_complete();
    if (next >= 0)
      queue_hist.add(ms_since(offered_at[static_cast<std::size_t>(next)]));
    return next;
  };

  const auto wall0 = Clock::now();
  if (!config_.batch_inference) {
    // Self-rescheduling frame tasks: one step per task, FIFO through the
    // shared queue, so no session monopolizes a worker; completions admit
    // the next queued arrival from the worker that observed them.
    std::function<void(std::size_t)> pump = [&](std::size_t i) {
      pool.submit([&, i](const core::TaskPool::Context&) {
        Served& s = served[i];
        const std::size_t before = s.session->frame();
        const auto t0 = Clock::now();
        const sim::Session::Status status = s.session->step();
        // Only steps that ran a control frame count as served: the
        // terminal timeout/cancel finalize does no work and would deflate
        // the latency percentiles it is supposed to measure.
        if (s.session->frame() > before)
          record_frame(s, before, ms_since(t0));
        if (status == sim::Session::Status::kRunning) {
          pump(i);
        } else {
          const int next = admit_next();
          if (next >= 0) pump(static_cast<std::size_t>(next));
        }
      });
    };
    for (const std::size_t i : initial) pump(i);
    pool.wait_idle();
  } else {
    // Tick-synchronized loop over the ACTIVE set: stage all live sessions
    // (parallel), one batched forward for the tick, commit the staged
    // frames (parallel), then swap finished sessions for queued arrivals.
    // SIGINT needs no special casing — stage() finalizes cancelled
    // episodes exactly like step() would, and the loop drains.
    std::vector<std::size_t> active = initial;
    std::vector<char> staged(served.size(), 0);
    std::vector<Clock::time_point> stage_t0(served.size());
    std::vector<std::size_t> frame_before(served.size(), 0);
    while (!active.empty()) {
      for (const std::size_t i : active) {
        if (served[i].session->done()) continue;
        pool.submit([&, i](const core::TaskPool::Context&) {
          stage_t0[i] = Clock::now();
          frame_before[i] = served[i].session->frame();
          staged[i] = served[i].session->stage(*service) ? 1 : 0;
        });
      }
      pool.wait_idle();

      service->run_tick();

      for (const std::size_t i : active) {
        if (staged[i] == 0) continue;
        staged[i] = 0;
        pool.submit([&, i](const core::TaskPool::Context&) {
          served[i].session->commit(*service);
          // A batched frame's latency spans stage-start to commit-end: the
          // synchronization wall of its tick is part of what it costs.
          record_frame(served[i], frame_before[i], ms_since(stage_t0[i]));
        });
      }
      pool.wait_idle();

      std::vector<std::size_t> still_active;
      still_active.reserve(active.size());
      for (const std::size_t i : active) {
        if (!served[i].session->done()) {
          still_active.push_back(i);
          continue;
        }
        const int next = admit_next();
        if (next >= 0) still_active.push_back(static_cast<std::size_t>(next));
      }
      active = std::move(still_active);
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(Clock::now() - wall0).count();

  // ---- fold the per-session measurements --------------------------------
  FrontendResult out;
  out.workers = workers;
  out.aborted = abort_ != nullptr && abort_->cancelled();
  out.shed_sessions = admission.shed_sessions();

  core::LatencyHistogram frame_hist;
  core::LatencyHistogram warmup_hist;
  math::RunningStats applied_deadlines;
  int deadline_hits = 0;
  std::vector<char> was_shed(static_cast<std::size_t>(n), 0);
  for (const int i : out.shed_sessions)
    was_shed[static_cast<std::size_t>(i)] = 1;
  for (int i = 0; i < n; ++i) {
    if (was_shed[static_cast<std::size_t>(i)]) continue;
    const Served& s = served[static_cast<std::size_t>(i)];
    frame_hist.merge(s.frame_hist);
    warmup_hist.merge(s.warmup_hist);
    applied_deadlines.merge(s.applied_deadlines);
    out.episodes.push_back(s.session->result());
    deadline_hits += s.session->result().deadline_hits;
  }
  out.aggregate =
      sim::aggregate_episodes(out.episodes, spec.display_name, config_.label);

  ServeStats& stats = out.stats;
  stats.method = config_.method;
  stats.sessions = n;
  stats.threads = workers;
  stats.offered = admission.offered();
  stats.admitted = admission.admitted();
  stats.queued = admission.queued();
  stats.shed = admission.shed();
  stats.frames = frame_hist.count() + warmup_hist.count();
  stats.wall_seconds = wall_seconds;
  stats.frames_per_second =
      wall_seconds > 0.0 ? static_cast<double>(stats.frames) / wall_seconds
                         : 0.0;
  stats.frame = frame_hist.summary();
  stats.queue = queue_hist.summary();
  stats.warmup = warmup_hist.summary();
  stats.warmup_frames_per_session = config_.warmup_frames;
  stats.frame_deadline_ms = config_.frame_deadline_ms;
  stats.deadline_hits = deadline_hits;
  if (config_.tuner.enabled) {
    ServeStats::Tuning tuning;
    tuning.min_ms = config_.tuner.min_ms;
    tuning.max_ms = config_.tuner.max_ms;
    tuning.headroom = config_.tuner.headroom;
    tuning.window = static_cast<int>(config_.tuner.window);
    tuning.deadline_min_ms = applied_deadlines.min();
    tuning.deadline_mean_ms = applied_deadlines.mean();
    tuning.deadline_max_ms = applied_deadlines.max();
    stats.tuning = tuning;
  }
  if (service != nullptr) {
    const il::BatchStats& bs = service->stats();
    ServeStats::Batching batching;
    batching.ticks = bs.ticks;
    batching.requests = bs.requests;
    batching.batches = bs.batches;
    batching.max_batch = bs.max_batch;
    batching.mean_batch = bs.mean_batch();
    batching.gather_seconds = bs.gather_seconds;
    batching.forward_seconds = bs.forward_seconds;
    batching.scatter_seconds = bs.scatter_seconds;
    stats.batching = batching;
  }
  return out;
}

ServeLoadLevel to_load_level(const ServeStats& stats) {
  ServeLoadLevel level;
  level.offered = stats.offered;
  level.admitted = stats.admitted;
  level.shed = stats.shed;
  level.frames = stats.frames;
  level.wall_seconds = stats.wall_seconds;
  level.frames_per_second = stats.frames_per_second;
  level.frame_p50_ms = stats.frame.p50_ms;
  level.frame_p99_ms = stats.frame.p99_ms;
  level.queue_p99_ms = stats.queue.p99_ms;
  level.deadline_hits = stats.deadline_hits;
  return level;
}

int find_knee(const std::vector<ServeLoadLevel>& levels) {
  constexpr double kMinGain = 1.10;  // < 10% throughput gain = saturated
  for (std::size_t i = 1; i < levels.size(); ++i) {
    if (levels[i].frames_per_second <
        kMinGain * levels[i - 1].frames_per_second)
      return static_cast<int>(i - 1);
  }
  return -1;
}

}  // namespace icoil::serve
