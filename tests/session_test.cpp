// Coverage for the controller/session API redesign: the string-keyed
// core::ControllerRegistry, the stepwise sim::Session (bit-for-bit equal to
// Simulator::run, which is a thin loop over it), per-frame budget contexts
// (FrameContext deadlines degrade CO frames instead of crashing them), and
// the pool-level abort token whose partial RunReport round-trips with the
// aborted flag.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/controller_registry.hpp"
#include "core/frame_context.hpp"
#include "sim/evaluator.hpp"
#include "sim/report.hpp"
#include "sim/session.hpp"

namespace icoil {
namespace {

// ---------------------------------------------------- ControllerRegistry

TEST(ControllerRegistryTest, BuiltInMethodsRegistered) {
  const auto& registry = core::ControllerRegistry::instance();
  const std::vector<std::string> keys = registry.keys();
  for (const char* expected : {"icoil", "icoil-safe", "il", "co", "co-fast"})
    EXPECT_NE(registry.find(expected), nullptr) << expected;
  // keys() is sorted (stable output for --list-methods and error messages).
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_GE(keys.size(), 5u);
  // Display names are the historical table labels.
  EXPECT_EQ(registry.at("icoil").display_name, "iCOIL");
  EXPECT_EQ(registry.at("co").display_name, "CO (ref)");
  EXPECT_EQ(registry.at("il").display_name, "IL [2]");
}

TEST(ControllerRegistryTest, UnknownKeyNamesTheKnownKeys) {
  const auto& registry = core::ControllerRegistry::instance();
  try {
    registry.at("warp-drive");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("warp-drive"), std::string::npos) << what;
    EXPECT_NE(what.find("icoil"), std::string::npos) << what;
    EXPECT_NE(what.find("co"), std::string::npos) << what;
  }
  EXPECT_THROW(registry.factory("warp-drive"), std::invalid_argument);
  EXPECT_THROW(registry.build("warp-drive"), std::invalid_argument);
}

TEST(ControllerRegistryTest, PolicyRequirementValidatedUpFront) {
  const auto& registry = core::ControllerRegistry::instance();
  EXPECT_TRUE(registry.at("icoil").needs_policy);
  EXPECT_TRUE(registry.at("il").needs_policy);
  EXPECT_FALSE(registry.at("co").needs_policy);
  // factory() must throw NOW, not when a pool worker later invokes it.
  EXPECT_THROW(registry.factory("icoil"), std::invalid_argument);
  EXPECT_THROW(registry.build("il"), std::invalid_argument);
}

TEST(ControllerRegistryTest, BuildsWorkingControllers) {
  const auto& registry = core::ControllerRegistry::instance();
  const auto co = registry.build("co");
  ASSERT_NE(co, nullptr);
  EXPECT_EQ(co->name(), "CO");
  const auto co_fast = registry.build("co-fast");
  ASSERT_NE(co_fast, nullptr);
  // The factory form produces fresh instances per call.
  const core::ControllerFactory factory = registry.factory("co");
  EXPECT_NE(factory().get(), factory().get());
}

// ------------------------------------------------------------- Session

world::Scenario easy_scenario(std::uint64_t seed = 500) {
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  return world::make_scenario(opt, seed);
}

void expect_bit_identical(const sim::EpisodeResult& a,
                          const sim::EpisodeResult& b) {
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.frames, b.frames);
  EXPECT_EQ(a.mode_switches, b.mode_switches);
  EXPECT_EQ(a.deadline_hits, b.deadline_hits);
  // Bit-identical, not approximately equal:
  EXPECT_EQ(a.park_time, b.park_time);
  EXPECT_EQ(a.min_clearance, b.min_clearance);
  EXPECT_EQ(a.il_fraction, b.il_fraction);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].t, b.trace[i].t) << i;
    EXPECT_EQ(a.trace[i].state.x(), b.trace[i].state.x()) << i;
    EXPECT_EQ(a.trace[i].state.speed, b.trace[i].state.speed) << i;
    EXPECT_EQ(a.trace[i].info.command.steer, b.trace[i].info.command.steer)
        << i;
  }
}

TEST(SessionTest, StepLoopBitIdenticalToSimulatorRun) {
  // Manually stepping a Session must reproduce Simulator::run exactly —
  // the whole-episode API is a thin loop over the stepwise one.
  const world::Scenario scenario = easy_scenario(500);
  sim::SimConfig config;
  config.record_trace = true;

  const auto& registry = core::ControllerRegistry::instance();
  const auto run_controller = registry.build("co");
  const sim::EpisodeResult via_run =
      sim::Simulator(config).run(scenario, *run_controller, 500);

  const auto step_controller = registry.build("co");
  sim::Session session(scenario, *step_controller, 500, config);
  std::size_t steps = 0;
  while (session.step() == sim::Session::Status::kRunning) ++steps;
  ASSERT_TRUE(session.done());

  expect_bit_identical(via_run, session.result());
  EXPECT_EQ(session.result().outcome, sim::Outcome::kSuccess);
  // Each kRunning return was one frame; the terminal step added the last.
  EXPECT_EQ(session.result().frames, session.frame());
  EXPECT_GE(steps + 1, session.result().frames);
}

TEST(SessionTest, TimeoutAndPostDoneStepsAreStable) {
  const auto controller = core::ControllerRegistry::instance().build("co");
  world::Scenario sc = easy_scenario();
  sc.time_limit = 1.0;  // 20 frames: far too short to park
  sim::Session session(sc, *controller, 7);
  while (session.step() == sim::Session::Status::kRunning) {
  }
  EXPECT_EQ(session.result().outcome, sim::Outcome::kTimeout);
  EXPECT_DOUBLE_EQ(session.result().park_time, 1.0);
  // Stepping a finished session is a no-op, not a crash or a new frame.
  const std::size_t frames = session.result().frames;
  EXPECT_EQ(session.step(), sim::Session::Status::kDone);
  EXPECT_EQ(session.result().frames, frames);
}

TEST(SessionTest, CancelTokenEndsEpisodeAsBudgetExceeded) {
  const auto controller = core::ControllerRegistry::instance().build("co");
  core::CancelToken cancel;
  sim::Session session(easy_scenario(), *controller, 7, {}, &cancel);
  EXPECT_EQ(session.step(), sim::Session::Status::kRunning);
  cancel.cancel();
  EXPECT_EQ(session.step(), sim::Session::Status::kDone);
  EXPECT_EQ(session.result().outcome, sim::Outcome::kBudgetExceeded);
  EXPECT_EQ(session.result().frames, 1u);
}

// ------------------------------------------------- per-frame budgets

TEST(FrameContextTest, UnlimitedContextNeverExpires) {
  math::Rng rng(1);
  core::FrameContext ctx(rng);
  EXPECT_FALSE(ctx.has_deadline());
  EXPECT_FALSE(ctx.expired());
  EXPECT_FALSE(ctx.deadline_hit());
  EXPECT_EQ(&ctx.rng(), &rng);
}

TEST(FrameContextTest, TinyDeadlineTripsAndSticks) {
  math::Rng rng(1);
  core::FrameContext ctx(rng, nullptr, /*deadline_ms=*/1e-6);
  EXPECT_TRUE(ctx.has_deadline());
  EXPECT_TRUE(ctx.expired());
  EXPECT_TRUE(ctx.deadline_hit());
}

TEST(FrameContextTest, CancelExpiresWithoutCountingAsDeadlineHit) {
  math::Rng rng(1);
  core::CancelToken cancel;
  cancel.cancel();
  core::FrameContext ctx(rng, &cancel);
  EXPECT_TRUE(ctx.expired());
  EXPECT_FALSE(ctx.deadline_hit());  // the episode died, not the frame budget
}

TEST(FrameDeadlineTest, CoActReturnsBestSoFarUnderExpiredDeadline) {
  // A frame whose budget is already gone must still produce a command (the
  // SQP loop always runs one round) and must flag the degradation.
  const auto controller = core::ControllerRegistry::instance().build("co");
  const world::Scenario sc = easy_scenario();
  controller->reset(sc);
  world::World world(sc);
  vehicle::State state;
  state.pose = sc.start_pose;
  math::Rng rng(1);
  core::FrameContext ctx(rng, nullptr, /*deadline_ms=*/1e-6);
  const vehicle::Command cmd = controller->act(world, state, ctx);
  EXPECT_TRUE(ctx.deadline_hit());
  EXPECT_TRUE(controller->last_frame().deadline_hit);
  // Best-so-far, not a refusal: the single SQP round still tracks the
  // reference, so the command is a real driving command.
  (void)cmd;
}

TEST(FrameDeadlineTest, SessionCountsDeadlineHitsAndFinishes) {
  const auto controller = core::ControllerRegistry::instance().build("co");
  world::Scenario sc = easy_scenario();
  sc.time_limit = 2.0;
  sim::SimConfig config;
  config.frame_deadline_ms = 1e-6;  // every CO frame degrades
  sim::Session session(sc, *controller, 11, config);
  while (session.step() == sim::Session::Status::kRunning) {
  }
  EXPECT_GT(session.result().deadline_hits, 0);
  EXPECT_EQ(session.result().deadline_hits,
            static_cast<int>(session.result().frames));
}

// ------------------------------------- pool-level abort + partial report

TEST(CancelTokenTest, LinkedParentPropagates) {
  core::CancelToken parent;
  core::CancelToken child;
  child.link_parent(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.cancel();
  EXPECT_TRUE(child.cancelled());
}

/// Always emits a fixed command — cheap deterministic episodes.
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

TEST(AbortTokenTest, PartialReportRoundTripsWithAbortedFlag) {
  // The SIGINT path minus the signal: a pre-tripped abort token drains the
  // suite (episodes come back budget_exceeded), and the partial report
  // still writes, loads, and carries meta.aborted.
  core::CancelToken abort;
  abort.cancel();

  sim::EvalConfig cfg;
  cfg.episodes = 3;
  cfg.abort = &abort;
  sim::ScenarioSuite suite;
  sim::SuiteCell cell;
  cell.time_limit = 30.0;
  suite.add(cell);

  const auto detailed = sim::Evaluator(cfg).evaluate_suite_detailed(
      [] {
        return std::make_unique<FixedController>(vehicle::Command::full_stop());
      },
      suite);
  ASSERT_EQ(detailed.size(), 1u);
  const auto results = sim::aggregate_suite(detailed, "fixed");
  EXPECT_EQ(results[0].aggregate.budget_exceeded, 3);

  sim::RunReport report;
  report.meta.suite = "abort_test";
  report.meta.aborted = true;
  report.add_cells(results);

  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_aborted_report.json")
          .string();
  std::string error;
  ASSERT_TRUE(report.save(path, &error)) << error;
  sim::RunReport loaded;
  ASSERT_TRUE(sim::RunReport::load(path, &loaded, &error)) << error;
  std::filesystem::remove(path);

  EXPECT_TRUE(loaded.meta.aborted);
  ASSERT_EQ(loaded.cells.size(), 1u);
  EXPECT_EQ(loaded.cells[0].budget_exceeded, 3);
  EXPECT_EQ(loaded.cells[0].episodes, 3);
  // A non-aborted report loads back non-aborted (the flag is real data,
  // not a loader default).
  report.meta.aborted = false;
  ASSERT_TRUE(sim::RunReport::parse(report.to_json(), &loaded, &error))
      << error;
  EXPECT_FALSE(loaded.meta.aborted);
}

TEST(EvaluatorTest, DetailedStillMatchesSeedOrderThroughSuitePath) {
  // evaluate_detailed is now a one-cell suite through the single fan-out;
  // seeds and results must be unchanged (seed order, thread invariant).
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  opt.time_limit = 3.0;
  sim::EvalConfig cfg;
  cfg.episodes = 4;
  cfg.num_threads = 2;
  const auto detailed = sim::Evaluator(cfg).evaluate_detailed(
      [] {
        return std::make_unique<FixedController>(
            vehicle::Command{1.0, 0.0, 0.2, false});
      },
      opt);
  ASSERT_EQ(detailed.size(), 4u);

  // Same episodes via the explicit suite path.
  sim::ScenarioSuite suite;
  suite.add(sim::SuiteCell::from_options(opt));
  const auto via_suite =
      sim::Evaluator(cfg).evaluate_suite_detailed(
          [] {
            return std::make_unique<FixedController>(
                vehicle::Command{1.0, 0.0, 0.2, false});
          },
          suite);
  ASSERT_EQ(via_suite.size(), 1u);
  ASSERT_EQ(via_suite[0].episodes.size(), detailed.size());
  for (std::size_t i = 0; i < detailed.size(); ++i) {
    EXPECT_EQ(detailed[i].outcome, via_suite[0].episodes[i].outcome) << i;
    EXPECT_EQ(detailed[i].park_time, via_suite[0].episodes[i].park_time) << i;
    EXPECT_EQ(detailed[i].min_clearance,
              via_suite[0].episodes[i].min_clearance)
        << i;
  }
}

}  // namespace
}  // namespace icoil
