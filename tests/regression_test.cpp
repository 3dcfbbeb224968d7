// Regression tests pinning fixes made during development — each encodes a
// failure mode that once existed, so it cannot silently return.

#include <gtest/gtest.h>

#include <cmath>

#include "co/planner.hpp"
#include "co/trajopt.hpp"
#include "geom/angles.hpp"
#include "mathkit/qp.hpp"
#include "vehicle/kinematics.hpp"

namespace icoil {
namespace {

// The MPC once "tunneled": with a constant-speed cold-start nominal the
// per-step half-space linearization put the horizon tail on the far side
// of an obstacle, producing plans that drove straight through. The fix is
// the braking cold-start nominal plus slack-penalized constraints.
TEST(RegressionTest, ColdStartMpcDoesNotTunnelThroughObstacle) {
  co::TrajOptConfig cfg;
  co::TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = 1.5;
  std::vector<co::TargetPoint> targets;
  for (int i = 1; i <= cfg.horizon; ++i)
    targets.push_back({{i * 1.5 * cfg.dt, 0, 0}, 1.5});
  const co::PredictedObstacle obstacle{geom::Obb{{5.5, 0.0}, 0.0, 0.4, 0.4}, {}};
  const co::TrajOptResult res = opt.solve(s, targets, {obstacle});
  ASSERT_TRUE(res.ok);
  vehicle::BicycleModel model;
  for (const vehicle::State& p : res.predicted)
    ASSERT_FALSE(geom::overlaps(model.footprint(p), obstacle.box))
        << "tunneled to x=" << p.x();
}

// Same scenario in reverse gear: braking nominal must handle negative speed.
TEST(RegressionTest, ColdStartMpcReverseDirection) {
  co::TrajOptConfig cfg;
  co::TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = -1.2;
  std::vector<co::TargetPoint> targets;
  for (int i = 1; i <= cfg.horizon; ++i)
    targets.push_back({{-i * 1.2 * cfg.dt, 0, 0}, -1.2});
  const co::PredictedObstacle obstacle{geom::Obb{{-4.5, 0.0}, 0.0, 0.4, 0.4}, {}};
  const co::TrajOptResult res = opt.solve(s, targets, {obstacle});
  ASSERT_TRUE(res.ok);
  vehicle::BicycleModel model;
  for (const vehicle::State& p : res.predicted)
    ASSERT_FALSE(geom::overlaps(model.footprint(p), obstacle.box));
}

// ADMM once stalled at max iterations on every MPC QP because all rows
// shared one rho; equality rows need a much stiffer penalty. Pin that an
// equality+inequality mix converges quickly.
TEST(RegressionTest, MixedEqualityQpConvergesFast) {
  math::QpProblem p;
  p.p = math::CsrMatrix::from_dense(math::Matrix::identity(4) * 2.0);
  p.q = {-1, -2, 0, 1};
  // x0 + x1 = 1 (equality), x2 in [0, 1], x3 >= -1.
  p.a = math::CsrMatrix::from_triplets(
      3, 4, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}});
  p.l = {1.0, 0.0, -1.0};
  p.u = {1.0, 1.0, math::kQpInf};
  const math::QpResult r = math::QpSolver().solve(p);
  ASSERT_TRUE(r.ok());
  EXPECT_LT(r.iterations, 500);
  EXPECT_NEAR(r.x[0] + r.x[1], 1.0, 1e-3);
}

// The reverse maneuver once started from a misaligned switch pose (the
// tracker cut the corner), saturating steering into the parked cars. Pin
// that the planner's phases carry the straight switch extensions on both
// sides of every switch.
TEST(RegressionTest, SwitchExtensionsOnBothSides) {
  co::CoPlannerConfig cfg;
  co::CoPlanner planner(cfg, vehicle::VehicleParams{});
  std::vector<co::PathPoint> pts;
  for (int i = 0; i <= 20; ++i) pts.push_back({{i * 0.25, 0, 0}, 1, 0});
  for (int i = 1; i <= 12; ++i) pts.push_back({{5.0 - i * 0.25, 0.0, 0}, -1, 0});
  planner.set_reference(co::RefPath(std::move(pts)));
  ASSERT_EQ(planner.phases().size(), 2u);
  const co::PathPhase& fwd = planner.phases()[0];
  const co::PathPhase& rev = planner.phases()[1];
  // Forward phase extended past x = 5 along +x.
  EXPECT_GT(fwd.points.back().pose.x(), 5.0 + 0.5 * cfg.switch_extension);
  // Reverse phase starts at the extended point and walks back through the
  // switch pose.
  EXPECT_GT(rev.points.front().pose.x(), 5.0 + 0.5 * cfg.switch_extension);
  EXPECT_LT(rev.points.back().pose.x(), 2.5);
  // Direction labels are consistent within each phase.
  for (const co::PathPoint& p : rev.points) EXPECT_EQ(p.direction, -1);
}

// Dynamic obstacles' patrols cross the spawn region; scenario generation
// once produced start poses already in collision (episodes died at frame
// zero and polluted the success statistics).
TEST(RegressionTest, StartPosesNeverCollideOnAnyLevel) {
  const vehicle::BicycleModel model;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    for (auto level : {world::Difficulty::kNormal, world::Difficulty::kHard}) {
      world::ScenarioOptions opt;
      opt.difficulty = level;
      const world::Scenario sc = world::make_scenario(opt, seed);
      const world::World world(sc);
      ASSERT_FALSE(world.in_collision(model.footprint(sc.start_pose)))
          << world::to_string(level) << " seed " << seed;
    }
  }
}

// The bicycle model once let the brake flip the direction of motion at
// low speed (sign oscillation around zero).
TEST(RegressionTest, BrakeNeverReversesMotion) {
  const vehicle::BicycleModel model;
  vehicle::State s;
  s.speed = 0.08;
  const vehicle::Command brake{0.0, 1.0, 0.0, false};
  for (int i = 0; i < 40; ++i) {
    s = model.step(s, brake, 0.05);
    ASSERT_GE(s.speed, 0.0);
  }
  EXPECT_NEAR(s.speed, 0.0, 1e-9);
}

// Heading lift in the MPC linearization: targets near +/- pi once caused
// 2*pi jumps in the tracking cost. Pin that tracking a straight path at
// heading pi produces a straight plan.
TEST(RegressionTest, TrackingAcrossHeadingWrap) {
  co::TrajOptConfig cfg;
  co::TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.pose = {0, 0, geom::kPi - 1e-3};  // driving toward -x
  s.speed = 1.0;
  std::vector<co::TargetPoint> targets;
  for (int i = 1; i <= cfg.horizon; ++i)
    targets.push_back({{-i * 1.0 * cfg.dt, 0.0, -geom::kPi + 1e-3}, 1.0});
  const co::TrajOptResult res = opt.solve(s, targets, {});
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.control.steer, 0.0, 0.08);
  for (const vehicle::State& p : res.predicted) EXPECT_NEAR(p.y(), 0.0, 0.1);
}

}  // namespace
}  // namespace icoil
