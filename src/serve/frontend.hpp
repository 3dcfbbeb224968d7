#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/latency_histogram.hpp"
#include "serve/admission.hpp"
#include "serve/deadline_tuner.hpp"
#include "sim/evaluator.hpp"
#include "world/scenario.hpp"

namespace icoil::il {
class IlPolicy;
}

namespace icoil::serve {

/// One row of a saturation sweep (`bench_serve --sessions 1,10,100,...`):
/// the headline numbers of one load level, offered load ascending.
struct ServeLoadLevel {
  int offered = 0;                   ///< sessions offered at this level
  int admitted = 0;                  ///< sessions actually served
  int shed = 0;                      ///< sessions dropped by admission
  std::uint64_t frames = 0;          ///< frames served (incl. warmup)
  double wall_seconds = 0.0;
  double frames_per_second = 0.0;
  double frame_p50_ms = 0.0;         ///< warmup-excluded frame latency
  double frame_p99_ms = 0.0;
  double queue_p99_ms = 0.0;         ///< admission queue-time tail
  int deadline_hits = 0;
  bool knee = false;                 ///< the identified saturation knee row
};

/// Serving-workload metrics of one serve::Frontend run: N concurrent
/// stepwise sessions interleaved on one pool behind admission control, each
/// step() timed as one served frame.
struct ServeStats {
  /// Batched-inference service counters (il::BatchStats), recorded when the
  /// run used --batch-inference: tick/batch shape plus where the service's
  /// time went (the shared forwards vs the gather/scatter around them).
  struct Batching {
    std::uint64_t ticks = 0;        ///< service ticks that had work
    std::uint64_t requests = 0;     ///< observations batched
    std::uint64_t batches = 0;      ///< batched forward passes
    std::uint64_t max_batch = 0;    ///< largest single forward batch
    double mean_batch = 0.0;        ///< requests / batches
    double gather_seconds = 0.0;    ///< observation packing overhead
    double forward_seconds = 0.0;   ///< shared batched forwards
    double scatter_seconds = 0.0;   ///< result unpacking overhead
  };

  /// serve::DeadlineTuner provenance + what it actually applied: the config
  /// echo plus min/mean/max over every deadline the tuner handed a session.
  struct Tuning {
    double min_ms = 0.0;            ///< configured clamp floor
    double max_ms = 0.0;            ///< configured clamp ceiling
    double headroom = 0.0;          ///< configured p99 multiplier
    int window = 0;                 ///< configured rolling-window length
    double deadline_min_ms = 0.0;   ///< tightest deadline ever applied
    double deadline_mean_ms = 0.0;  ///< mean applied deadline
    double deadline_max_ms = 0.0;   ///< loosest deadline ever applied
  };

  std::string method;                ///< controller registry key
  int sessions = 0;                  ///< sessions offered (== offered)
  int threads = 0;                   ///< pool worker count
  int offered = 0;                   ///< arrivals offered to admission
  int admitted = 0;                  ///< arrivals served (now or from queue)
  int queued = 0;                    ///< admitted arrivals that had to wait
  int shed = 0;                      ///< arrivals dropped (queue full)
  std::uint64_t frames = 0;          ///< total frames served (incl. warmup)
  double wall_seconds = 0.0;
  double frames_per_second = 0.0;
  core::LatencySummary frame;        ///< per-frame latency, warmup excluded
  core::LatencySummary queue;        ///< admission queue time per admission
  core::LatencySummary warmup;       ///< cold-start frames, kept separately
  int warmup_frames_per_session = 0; ///< leading frames classed as warmup
  double frame_deadline_ms = 0.0;    ///< configured static budget (0 = none)
  int deadline_hits = 0;             ///< frames degraded by a frame budget
  std::optional<Tuning> tuning;      ///< present when autotuning ran
  std::optional<Batching> batching;  ///< present for --batch-inference runs
};

/// Everything one serving run needs: the workload shape (method, offered
/// load, scenario knobs), the execution shape (threads, batching) and the
/// front-end policies (admission, warmup, deadline autotuning).
struct FrontendConfig {
  std::string method = "co";         ///< controller registry key
  int sessions = 8;                  ///< offered load (arrivals)
  double frame_deadline_ms = 0.0;    ///< static per-frame budget (0 = none)
  double time_limit = 60.0;          ///< per-episode simulated seconds
  world::Difficulty difficulty = world::Difficulty::kNormal;
  int threads = 0;                   ///< pool workers (0 = hardware)
  int thread_cap = 16;               ///< cap on the hardware-derived default
  std::uint64_t base_seed = 1000;    ///< session i uses base_seed + i
  bool batch_inference = false;      ///< tick-synchronized batched IL path
  int max_batch = 32;                ///< cap on one batched forward
  /// Leading frames of each session classed as cold-start warmup: their
  /// latencies are recorded separately (ServeStats::warmup) and excluded
  /// from the frame percentiles and the deadline tuner.
  int warmup_frames = 1;
  /// The policy for policy-backed methods; must outlive the Frontend.
  /// Required when the registry spec says needs_policy (validate()).
  /// Non-const because the BatchInferencer shares its eval workspace.
  il::IlPolicy* policy = nullptr;
  std::string label = "serve";       ///< aggregate/report cell label
  AdmissionConfig admission;
  DeadlineTunerConfig tuner;
};

/// What one serving run produced: the folded ServeStats of its one load
/// level (the driver owns multi-level runs), the admitted episodes and
/// their aggregate, and the shed set for determinism checks.
struct FrontendResult {
  ServeStats stats;
  /// Episode outcomes of the admitted sessions, ascending session index.
  std::vector<sim::EpisodeResult> episodes;
  /// Session indices admission dropped, offer order (never ran at all).
  std::vector<int> shed_sessions;
  sim::Aggregate aggregate;          ///< folded over `episodes`
  int workers = 0;                   ///< resolved pool width
  bool aborted = false;              ///< the abort token tripped mid-run
};

/// The serving front end: owns session lifecycle (scenario + controller +
/// sim::Session per arrival), pushes arrivals through an
/// AdmissionController, runs the tick loop on one core::TaskPool — the
/// self-rescheduling per-session pump, or the tick-synchronized
/// il::BatchInferencer path — times every served frame into
/// core::LatencyHistograms (warmup split out), and feeds a per-session
/// DeadlineTuner back into Session::set_frame_deadline_ms.
///
/// With admission unconstrained and autotuning off, episode outcomes are
/// bit-identical to stepping each session alone (Simulator::run) — serving
/// interleave never changes results (tested).
class Frontend {
 public:
  /// Checks `config` against the controller registry without running
  /// anything: unknown method, missing policy, batching on a non-policy
  /// method, bad knob ranges. False fills *error with a CLI-ready message.
  static bool validate(const FrontendConfig& config, std::string* error);

  /// `abort` (e.g. a SIGINT token) is polled by every session; tripping it
  /// finishes remaining episodes as budget_exceeded and run() returns a
  /// partial, aborted-flagged result. Must outlive the Frontend.
  explicit Frontend(FrontendConfig config,
                    const core::CancelToken* abort = nullptr)
      : config_(std::move(config)), abort_(abort) {}

  /// Runs the whole serving workload to completion (or abort). Call once.
  /// Throws std::invalid_argument on a config validate() would reject.
  FrontendResult run();

  const FrontendConfig& config() const { return config_; }

 private:
  FrontendConfig config_;
  const core::CancelToken* abort_;
};

/// Converts one level's folded stats into its sweep-table row.
ServeLoadLevel to_load_level(const ServeStats& stats);

/// Identifies the saturation knee of an offered-load-ascending sweep: the
/// last level whose throughput still grew meaningfully — i.e. the level
/// before the first one whose frames/sec gained less than 10% over its
/// predecessor. Returns the knee index, or -1 when throughput kept scaling
/// through the final level (no saturation observed).
int find_knee(const std::vector<ServeLoadLevel>& levels);

}  // namespace icoil::serve
