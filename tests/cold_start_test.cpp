// A fresh process's first planning frame must honour its frame budget.
//
// The CO controller plans its hybrid-A* reference inside the first act(),
// through the process-wide Reeds-Shepp heuristic tables
// (co::RsHeuristicLut::shared). This test is its own executable so that
// cache starts empty: the first step below pays whatever the tables cost a
// cold process, and that cost has to fit a realistic frame deadline rather
// than hide in a multi-second up-front build.

#include <gtest/gtest.h>

#include "core/controller_registry.hpp"
#include "co/heuristic.hpp"
#include "sim/session.hpp"
#include "world/scenario.hpp"

namespace icoil {
namespace {

TEST(ColdStartTest, FirstCoFrameHonoursItsDeadline) {
  ASSERT_EQ(co::RsHeuristicLut::shared_cache_size(), 0u)
      << "the heuristic cache must start empty in this process";
  constexpr double kDeadlineMs = 200.0;
  const world::Scenario scenario =
      world::make_scenario(world::ScenarioOptions{}, 1);  // canonical
  const auto controller = core::ControllerRegistry::instance().build("co");
  sim::SimConfig config;
  config.frame_deadline_ms = kDeadlineMs;
  sim::Session session(scenario, *controller, 1, config);

  ASSERT_EQ(session.step(), sim::Session::Status::kRunning);
  EXPECT_GT(co::RsHeuristicLut::shared_cache_size(), 0u)
      << "the first frame should have planned through the RS tables";
  const core::FrameInfo& frame = controller->last_frame();
  EXPECT_FALSE(frame.deadline_hit);
  EXPECT_LT(frame.solve_ms, kDeadlineMs);
  EXPECT_EQ(session.result().deadline_hits, 0);
}

}  // namespace
}  // namespace icoil
