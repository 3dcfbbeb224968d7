// Coverage for the serve:: front-end subsystem: AdmissionController
// sequencing and determinism (same seed + capacity => identical shed set),
// serve::Frontend bit-identity against Simulator::run at unconstrained
// capacity (serving interleave must never change outcomes), the
// DeadlineTuner clamp/convergence contract, the shared
// core::LatencyHistogram, warmup-frame exclusion, and the saturation-knee
// heuristic of the sweep driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/controller_registry.hpp"
#include "core/latency_histogram.hpp"
#include "il/policy.hpp"
#include "mathkit/stats.hpp"
#include "serve/admission.hpp"
#include "serve/deadline_tuner.hpp"
#include "serve/frontend.hpp"
#include "sim/session.hpp"
#include "sim/simulator.hpp"
#include "world/scenario.hpp"

namespace icoil {
namespace {

/// Always emits a fixed command — cheap deterministic episodes that time
/// out after exactly time_limit / dt frames.
class FixedController final : public core::Controller {
 public:
  explicit FixedController(vehicle::Command cmd) : cmd_(cmd) {}
  std::string name() const override { return "fixed"; }
  void reset(const world::Scenario&) override {}
  using core::Controller::act;
  vehicle::Command act(const world::World&, const vehicle::State&,
                       core::FrameContext&) override {
    frame_.command = cmd_;
    frame_.mode = core::Mode::kCo;
    return cmd_;
  }
  const core::FrameInfo& last_frame() const override { return frame_; }

 private:
  vehicle::Command cmd_;
  core::FrameInfo frame_;
};

/// Registers (idempotently) a registry method serving FixedController
/// full-stops — the cheapest deterministic serving workload a test can ask
/// for — and returns its key.
const std::string& fixed_method() {
  static const std::string key = [] {
    core::ControllerSpec spec;
    spec.key = "test-fixed-stop";
    spec.display_name = "FixedStop";
    spec.description = "test-only: holds a full stop until timeout";
    spec.needs_policy = false;
    spec.build = [](const core::ControllerBuildArgs&) {
      return std::make_unique<FixedController>(vehicle::Command::full_stop());
    };
    core::ControllerRegistry::instance().add(spec);
    return spec.key;
  }();
  return key;
}

// ------------------------------------------------- AdmissionController

TEST(AdmissionControllerTest, CapacityAndQueueSequencing) {
  serve::AdmissionConfig config;
  config.max_active = 2;
  config.queue_limit = 2;
  serve::AdmissionController admission(config);

  using Decision = serve::AdmissionController::Decision;
  EXPECT_EQ(admission.offer(0), Decision::kAdmit);
  EXPECT_EQ(admission.offer(1), Decision::kAdmit);
  EXPECT_EQ(admission.offer(2), Decision::kQueue);
  EXPECT_EQ(admission.offer(3), Decision::kQueue);
  EXPECT_EQ(admission.offer(4), Decision::kShed);
  EXPECT_EQ(admission.offer(5), Decision::kShed);

  EXPECT_EQ(admission.offered(), 6);
  EXPECT_EQ(admission.active(), 2);
  EXPECT_EQ(admission.waiting(), 2);
  EXPECT_EQ(admission.shed(), 2);
  EXPECT_EQ(admission.shed_sessions(), (std::vector<int>{4, 5}));

  // Completions admit the queue FIFO, then leave slots idle.
  EXPECT_EQ(admission.on_complete(), 2);
  EXPECT_EQ(admission.on_complete(), 3);
  EXPECT_EQ(admission.on_complete(), -1);
  EXPECT_EQ(admission.on_complete(), -1);
  EXPECT_EQ(admission.active(), 0);
  EXPECT_EQ(admission.admitted(), 4);
  EXPECT_EQ(admission.queued(), 2);
}

TEST(AdmissionControllerTest, UnlimitedAdmitsEverything) {
  serve::AdmissionController admission({});  // max_active 0 = unlimited
  using Decision = serve::AdmissionController::Decision;
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(admission.offer(i), Decision::kAdmit) << i;
  EXPECT_EQ(admission.admitted(), 100);
  EXPECT_EQ(admission.queued(), 0);
  EXPECT_EQ(admission.shed(), 0);
}

TEST(AdmissionControllerTest, ShedSetDeterministicThroughFrontend) {
  // The shed set must be a pure function of (N, capacity, queue limit) —
  // independent of thread scheduling. 12 arrivals into capacity 3 with a
  // queue of 4 always sheds exactly the last five.
  serve::FrontendConfig config;
  config.method = fixed_method();
  config.sessions = 12;
  config.time_limit = 0.5;
  config.difficulty = world::Difficulty::kEasy;
  config.admission.max_active = 3;
  config.admission.queue_limit = 4;
  config.threads = 4;

  const serve::FrontendResult first = serve::Frontend(config).run();
  const serve::FrontendResult second = serve::Frontend(config).run();

  EXPECT_EQ(first.shed_sessions, (std::vector<int>{7, 8, 9, 10, 11}));
  EXPECT_EQ(second.shed_sessions, first.shed_sessions);
  EXPECT_EQ(first.stats.offered, 12);
  EXPECT_EQ(first.stats.admitted, 7);
  EXPECT_EQ(first.stats.queued, 4);
  EXPECT_EQ(first.stats.shed, 5);
  EXPECT_EQ(first.episodes.size(), 7u);
  // Queue times were recorded for every admission (zeros for the
  // immediately admitted, waits for the queued).
  EXPECT_EQ(first.stats.queue.count, 7u);
}

// ---------------------------------------------------------- Frontend

void expect_bit_identical(const sim::EpisodeResult& a,
                          const sim::EpisodeResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.mode_switches, b.mode_switches);
  EXPECT_EQ(a.deadline_hits, b.deadline_hits);
  EXPECT_EQ(a.park_time, b.park_time);
  EXPECT_EQ(a.min_clearance, b.min_clearance);
  EXPECT_EQ(a.il_fraction, b.il_fraction);
}

TEST(FrontendTest, UnconstrainedOutcomesBitIdenticalToSimulatorRun) {
  // With admission unconstrained and autotuning off, serving N sessions
  // interleaved on a pool must produce the same episodes as running each
  // alone through Simulator::run — the refactor's no-behavior-change gate.
  serve::FrontendConfig config;
  config.method = "co";
  config.sessions = 3;
  config.time_limit = 6.0;
  config.difficulty = world::Difficulty::kEasy;
  config.base_seed = 4200;
  config.threads = 3;
  const serve::FrontendResult result = serve::Frontend(config).run();
  ASSERT_EQ(result.episodes.size(), 3u);
  EXPECT_TRUE(result.shed_sessions.empty());
  EXPECT_FALSE(result.aborted);

  const auto& registry = core::ControllerRegistry::instance();
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t seed =
        config.base_seed + static_cast<std::uint64_t>(i);
    world::ScenarioOptions opt;
    opt.difficulty = config.difficulty;
    opt.time_limit = config.time_limit;
    const world::Scenario scenario = world::make_scenario(opt, seed);
    const auto controller = registry.build("co");
    const sim::EpisodeResult lone =
        sim::Simulator().run(scenario, *controller, seed);
    expect_bit_identical(result.episodes[static_cast<std::size_t>(i)], lone);
  }
}

TEST(FrontendTest, BatchInferencePathBitIdenticalToStepPath) {
  // The tick-synchronized batched path must replay the per-session step
  // path bit for bit (the BatchInferencer contract, now via Frontend).
  il::IlPolicy policy(il::IlPolicyConfig(), 99);
  serve::FrontendConfig config;
  config.method = "il";
  config.sessions = 3;
  config.time_limit = 1.5;
  config.difficulty = world::Difficulty::kEasy;
  config.policy = &policy;
  config.threads = 2;

  const serve::FrontendResult stepped = serve::Frontend(config).run();
  config.batch_inference = true;
  config.max_batch = 2;  // forces batch splits mid-tick
  const serve::FrontendResult batched = serve::Frontend(config).run();

  ASSERT_EQ(stepped.episodes.size(), 3u);
  ASSERT_EQ(batched.episodes.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    expect_bit_identical(stepped.episodes[i], batched.episodes[i]);
  ASSERT_TRUE(batched.stats.batching.has_value());
  EXPECT_GT(batched.stats.batching->requests, 0u);
  EXPECT_FALSE(stepped.stats.batching.has_value());
}

TEST(FrontendTest, WarmupFramesKeptOutOfThePercentiles) {
  serve::FrontendConfig config;
  config.method = fixed_method();
  config.sessions = 3;
  config.time_limit = 1.0;  // 20 frames per session at dt = 0.05
  config.difficulty = world::Difficulty::kEasy;
  config.warmup_frames = 2;
  const serve::FrontendResult result = serve::Frontend(config).run();

  EXPECT_EQ(result.stats.warmup.count, 6u);  // 3 sessions x 2 cold frames
  EXPECT_EQ(result.stats.warmup_frames_per_session, 2);
  // Warmup still counts toward total throughput, just not the percentiles.
  EXPECT_EQ(result.stats.frames,
            result.stats.frame.count + result.stats.warmup.count);
  EXPECT_GT(result.stats.frame.count, 0u);
}

TEST(FrontendTest, TunerFeedsSessionDeadlinesWithinClamp) {
  serve::FrontendConfig config;
  config.method = fixed_method();
  config.sessions = 2;
  config.time_limit = 2.0;
  config.difficulty = world::Difficulty::kEasy;
  config.tuner.enabled = true;
  config.tuner.min_ms = 5.0;
  config.tuner.max_ms = 150.0;
  const serve::FrontendResult result = serve::Frontend(config).run();

  ASSERT_TRUE(result.stats.tuning.has_value());
  const serve::ServeStats::Tuning& tuning = *result.stats.tuning;
  EXPECT_DOUBLE_EQ(tuning.min_ms, 5.0);
  EXPECT_DOUBLE_EQ(tuning.max_ms, 150.0);
  // Every deadline the tuner applied respected the clamp.
  EXPECT_GE(tuning.deadline_min_ms, 5.0);
  EXPECT_LE(tuning.deadline_max_ms, 150.0);
  EXPECT_GE(tuning.deadline_mean_ms, tuning.deadline_min_ms);
  EXPECT_LE(tuning.deadline_mean_ms, tuning.deadline_max_ms);
}

TEST(FrontendTest, PreTrippedAbortYieldsPartialAbortedResult) {
  core::CancelToken abort;
  abort.cancel();
  serve::FrontendConfig config;
  config.method = fixed_method();
  config.sessions = 3;
  config.time_limit = 5.0;
  config.difficulty = world::Difficulty::kEasy;
  const serve::FrontendResult result =
      serve::Frontend(config, &abort).run();
  EXPECT_TRUE(result.aborted);
  ASSERT_EQ(result.episodes.size(), 3u);
  for (const sim::EpisodeResult& episode : result.episodes)
    EXPECT_EQ(episode.outcome, sim::Outcome::kBudgetExceeded);
}

TEST(FrontendTest, InvalidConfigsThrowAndValidateExplains) {
  serve::FrontendConfig config;
  config.method = "warp-drive";
  std::string why;
  EXPECT_FALSE(serve::Frontend::validate(config, &why));
  EXPECT_NE(why.find("warp-drive"), std::string::npos) << why;
  EXPECT_THROW(serve::Frontend(config).run(), std::invalid_argument);

  config.method = "il";  // needs a policy
  EXPECT_FALSE(serve::Frontend::validate(config, &why));
  config.method = "co";
  config.batch_inference = true;  // batching needs a policy-backed method
  EXPECT_FALSE(serve::Frontend::validate(config, &why));
  config.batch_inference = false;
  config.sessions = 0;
  EXPECT_FALSE(serve::Frontend::validate(config, &why));
}

// ------------------------------------------------------ DeadlineTuner

TEST(DeadlineTunerTest, StartsPermissiveAndClampsToRange) {
  serve::DeadlineTunerConfig config;
  config.enabled = true;
  config.min_ms = 10.0;
  config.max_ms = 100.0;
  config.headroom = 1.5;
  config.window = 8;
  serve::DeadlineTuner tuner(config);
  EXPECT_DOUBLE_EQ(tuner.deadline_ms(), 100.0);  // no static deadline given

  // A latency stream whose headroomed p99 exceeds the ceiling pins the
  // deadline at max_ms; one below the floor converges down to min_ms.
  for (int i = 0; i < 200; ++i) EXPECT_LE(tuner.observe(500.0), 100.0);
  EXPECT_DOUBLE_EQ(tuner.deadline_ms(), 100.0);
  for (int i = 0; i < 500; ++i) EXPECT_GE(tuner.observe(0.5), 10.0);
  EXPECT_NEAR(tuner.deadline_ms(), 10.0, 1e-6);
}

TEST(DeadlineTunerTest, ConvergesMonotonicallyOnConstantLatency) {
  serve::DeadlineTunerConfig config;
  config.enabled = true;
  config.min_ms = 5.0;
  config.max_ms = 200.0;
  config.headroom = 1.5;
  config.window = 4;
  serve::DeadlineTuner tuner(config, 200.0);
  // Constant 20 ms frames: target = 1.5 * 20 = 30 ms. The deadline must
  // descend toward it without ever crossing below.
  double prev = tuner.deadline_ms();
  for (int i = 0; i < 300; ++i) {
    const double next = tuner.observe(20.0);
    EXPECT_LE(next, prev + 1e-12) << i;
    EXPECT_GE(next, 30.0 - 1e-9) << i;
    prev = next;
  }
  EXPECT_NEAR(prev, 30.0, 0.5);

  // Determinism: the same latency stream reproduces the same deadlines.
  serve::DeadlineTuner replay(config, 200.0);
  for (int i = 0; i < 300; ++i) replay.observe(20.0);
  EXPECT_DOUBLE_EQ(replay.deadline_ms(), tuner.deadline_ms());
}

// --------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, SummaryAndMergeMatchManualPercentiles) {
  core::LatencyHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 0.0);
  core::LatencySummary zero = h.summary();
  EXPECT_EQ(zero.count, 0u);

  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  const core::LatencySummary s = h.summary();
  EXPECT_DOUBLE_EQ(s.p50_ms, math::percentile(
      [] { std::vector<double> v; for (int i = 1; i <= 100; ++i)
             v.push_back(i); return v; }(), 50.0));
  EXPECT_DOUBLE_EQ(s.max_ms, 100.0);
  EXPECT_GT(s.p99_ms, s.p90_ms);
  EXPECT_GT(s.p90_ms, s.p50_ms);

  // merge == adding the samples to one histogram.
  core::LatencyHistogram a, b, all;
  for (int i = 0; i < 50; ++i) {
    a.add(i * 0.25);
    all.add(i * 0.25);
  }
  for (int i = 0; i < 50; ++i) {
    b.add(100.0 + i);
    all.add(100.0 + i);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_DOUBLE_EQ(a.mean(), all.mean());
  EXPECT_DOUBLE_EQ(a.percentile(50.0), all.percentile(50.0));
  EXPECT_DOUBLE_EQ(a.percentile(99.0), all.percentile(99.0));
}

// ----------------------------------------------------------- find_knee

serve::ServeLoadLevel level_fps(int offered, double fps) {
  serve::ServeLoadLevel level;
  level.offered = offered;
  level.frames_per_second = fps;
  return level;
}

TEST(FindKneeTest, FlagsTheLastScalingLevel) {
  // 1 -> 10 scales 8x, 10 -> 100 gains under 10%: the knee is at 10.
  const std::vector<serve::ServeLoadLevel> saturating = {
      level_fps(1, 50.0), level_fps(10, 400.0), level_fps(100, 420.0)};
  EXPECT_EQ(serve::find_knee(saturating), 1);

  // Throughput keeps scaling: no knee.
  const std::vector<serve::ServeLoadLevel> scaling = {
      level_fps(1, 50.0), level_fps(10, 400.0), level_fps(100, 3000.0)};
  EXPECT_EQ(serve::find_knee(scaling), -1);

  // Degenerate sweeps cannot have one.
  EXPECT_EQ(serve::find_knee({}), -1);
  EXPECT_EQ(serve::find_knee({level_fps(1, 50.0)}), -1);

  // Outright regression past the first level knees immediately.
  const std::vector<serve::ServeLoadLevel> collapsing = {
      level_fps(1, 50.0), level_fps(10, 30.0)};
  EXPECT_EQ(serve::find_knee(collapsing), 0);
}

}  // namespace
}  // namespace icoil
