#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <utility>

#include "co/hybrid_astar.hpp"
#include "co/planner.hpp"
#include "co/reeds_shepp.hpp"
#include "co/refpath.hpp"
#include "co/trajopt.hpp"
#include "geom/angles.hpp"
#include "mathkit/rng.hpp"
#include "world/scenario.hpp"

namespace icoil::co {
namespace {

// ------------------------------------------------------------ ReedsShepp

TEST(ReedsSheppTest, StraightAhead) {
  const ReedsShepp rs(3.0);
  const auto path = rs.shortest_path({0, 0, 0}, {10, 0, 0});
  ASSERT_TRUE(path.has_value());
  EXPECT_NEAR(rs.length(*path), 10.0, 1e-6);
}

TEST(ReedsSheppTest, StraightBack) {
  const ReedsShepp rs(3.0);
  const auto path = rs.shortest_path({0, 0, 0}, {-5, 0, 0});
  ASSERT_TRUE(path.has_value());
  EXPECT_NEAR(rs.length(*path), 5.0, 1e-6);
  // Must be driven in reverse.
  double signed_sum = 0.0;
  for (const RsSegment& s : path->segments) signed_sum += s.length;
  EXPECT_LT(signed_sum, 0.0);
}

TEST(ReedsSheppTest, QuarterTurnArcLength) {
  const double r = 2.5;
  const ReedsShepp rs(r);
  // Goal on the turning circle: quarter left turn.
  const auto path = rs.shortest_path({0, 0, 0}, {r, r, geom::kPi / 2.0});
  ASSERT_TRUE(path.has_value());
  EXPECT_NEAR(rs.length(*path), r * geom::kPi / 2.0, 1e-6);
}

TEST(ReedsSheppTest, LengthAtLeastEuclidean) {
  const ReedsShepp rs(2.0);
  math::Rng rng(5);
  for (int i = 0; i < 30; ++i) {
    const geom::Pose2 from{rng.uniform(-5, 5), rng.uniform(-5, 5),
                           rng.uniform(-3, 3)};
    const geom::Pose2 to{rng.uniform(-5, 5), rng.uniform(-5, 5),
                         rng.uniform(-3, 3)};
    const auto path = rs.shortest_path(from, to);
    ASSERT_TRUE(path.has_value());
    EXPECT_GE(rs.length(*path),
              geom::distance(from.position, to.position) - 1e-6);
  }
}

// The decisive property: sampling the chosen word must land on the goal.
class ReedsSheppEndpoint : public ::testing::TestWithParam<int> {};

TEST_P(ReedsSheppEndpoint, SampledPathReachesGoal) {
  math::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const ReedsShepp rs(rng.uniform(1.5, 4.0));
  const geom::Pose2 from{rng.uniform(-8, 8), rng.uniform(-8, 8),
                         rng.uniform(-geom::kPi, geom::kPi)};
  const geom::Pose2 to{rng.uniform(-8, 8), rng.uniform(-8, 8),
                       rng.uniform(-geom::kPi, geom::kPi)};
  const auto path = rs.shortest_path(from, to);
  ASSERT_TRUE(path.has_value());
  const auto samples = rs.sample(from, *path, 0.05);
  ASSERT_FALSE(samples.empty());
  const geom::Pose2& end = samples.back().pose;
  EXPECT_NEAR(end.x(), to.x(), 0.02);
  EXPECT_NEAR(end.y(), to.y(), 0.02);
  EXPECT_NEAR(std::abs(geom::angle_diff(end.heading, to.heading)), 0.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(RandomPoses, ReedsSheppEndpoint, ::testing::Range(0, 60));

TEST(ReedsSheppTest, SampleStepRespected) {
  const ReedsShepp rs(3.0);
  const auto path = rs.shortest_path({0, 0, 0}, {8, 3, 1.0});
  ASSERT_TRUE(path.has_value());
  const auto samples = rs.sample({0, 0, 0}, *path, 0.2);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    const double step =
        geom::distance(samples[i - 1].pose.position, samples[i].pose.position);
    EXPECT_LE(step, 0.25);
  }
}

TEST(ReedsSheppTest, AllPathsNonEmptyAndFinite) {
  const ReedsShepp rs(2.0);
  const auto all = rs.all_paths({0, 0, 0}, {4, 2, 0.5});
  EXPECT_GT(all.size(), 3u);
  for (const RsPath& p : all) {
    EXPECT_FALSE(p.segments.empty());
    EXPECT_LT(p.total(), 100.0);
  }
}

// --------------------------------------------------------------- RefPath

TEST(RefPathTest, ArcLengthRecomputed) {
  std::vector<PathPoint> pts = {{{0, 0, 0}, 1, 99.0},
                                {{1, 0, 0}, 1, 99.0},
                                {{1, 2, 0}, 1, 99.0}};
  const RefPath path(std::move(pts));
  EXPECT_DOUBLE_EQ(path[0].s, 0.0);
  EXPECT_DOUBLE_EQ(path[1].s, 1.0);
  EXPECT_DOUBLE_EQ(path[2].s, 3.0);
  EXPECT_DOUBLE_EQ(path.length(), 3.0);
}

TEST(RefPathTest, NearestIndexWithHint) {
  std::vector<PathPoint> pts;
  for (int i = 0; i <= 20; ++i) pts.push_back({{i * 1.0, 0, 0}, 1, 0});
  const RefPath path(std::move(pts));
  EXPECT_EQ(path.nearest_index({5.2, 1.0}), 5u);
  // With a hint past the point, the search cannot go back.
  EXPECT_GE(path.nearest_index({5.2, 1.0}, 10), 10u);
}

TEST(RefPathTest, IndexAtArc) {
  std::vector<PathPoint> pts;
  for (int i = 0; i <= 10; ++i) pts.push_back({{i * 2.0, 0, 0}, 1, 0});
  const RefPath path(std::move(pts));
  EXPECT_EQ(path.index_at_arc(0.0), 0u);
  EXPECT_EQ(path.index_at_arc(5.0), 3u);   // first s >= 5 is 6.0 at index 3
  EXPECT_EQ(path.index_at_arc(999.0), 10u);
}

TEST(RefPathTest, DirectionSwitchCount) {
  std::vector<PathPoint> pts = {{{0, 0, 0}, 1, 0},
                                {{1, 0, 0}, 1, 0},
                                {{2, 0, 0}, -1, 0},
                                {{1, 0, 0}, -1, 0},
                                {{2, 0, 0}, 1, 0}};
  const RefPath path(std::move(pts));
  EXPECT_EQ(path.num_direction_switches(), 2);
}

// ------------------------------------------------------------ HybridAStar

std::vector<geom::Obb> static_obstacles(const world::Scenario& sc) {
  std::vector<geom::Obb> out;
  for (const world::Obstacle& o : sc.obstacles)
    if (!o.dynamic()) out.push_back(o.shape);
  return out;
}

TEST(HybridAStarTest, PlansToParkingBay) {
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  const world::Scenario sc = world::make_scenario(opt, 500);
  HybridAStar astar(HybridAStarConfig{}, vehicle::VehicleParams{});
  const auto path = astar.plan(sc.start_pose, sc.map.goal_pose,
                               static_obstacles(sc), sc.map.bounds);
  ASSERT_TRUE(path.has_value());
  EXPECT_GT(path->size(), 10u);
  // Ends at the goal pose.
  EXPECT_NEAR(path->back().pose.x(), sc.map.goal_pose.x(), 0.3);
  EXPECT_NEAR(path->back().pose.y(), sc.map.goal_pose.y(), 0.3);
  // A reverse-in park needs at least one direction switch.
  EXPECT_GE(path->num_direction_switches(), 1);
  // Final approach into the bay is in reverse.
  EXPECT_EQ(path->back().direction, -1);
}

TEST(HybridAStarTest, PathAvoidsObstacles) {
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  const world::Scenario sc = world::make_scenario(opt, 501);
  HybridAStar astar(HybridAStarConfig{}, vehicle::VehicleParams{});
  const auto obstacles = static_obstacles(sc);
  const auto path = astar.plan(sc.start_pose, sc.map.goal_pose, obstacles,
                               sc.map.bounds);
  ASSERT_TRUE(path.has_value());
  vehicle::BicycleModel model;
  for (const PathPoint& p : path->points()) {
    const geom::Obb fp = model.footprint(p.pose);
    for (const geom::Obb& o : obstacles)
      EXPECT_FALSE(geom::overlaps(fp, o))
          << "at s=" << p.s << " (" << p.pose.x() << "," << p.pose.y() << ")";
  }
}

TEST(HybridAStarTest, FailsWhenStartBlocked) {
  HybridAStar astar(HybridAStarConfig{}, vehicle::VehicleParams{});
  const std::vector<geom::Obb> wall = {geom::Obb{{5.0, 5.0}, 0.0, 3.0, 3.0}};
  const geom::Aabb bounds{{0, 0}, {10, 10}};
  const auto path = astar.plan({5.0, 5.0, 0.0}, {1.0, 1.0, 0.0}, wall, bounds);
  EXPECT_FALSE(path.has_value());
}

TEST(HybridAStarTest, FallbackAlwaysProducesPath) {
  HybridAStar astar(HybridAStarConfig{}, vehicle::VehicleParams{});
  const RefPath path = astar.reeds_shepp_fallback({0, 0, 0}, {10, 5, 1.0});
  EXPECT_GT(path.size(), 2u);
  EXPECT_NEAR(path.back().pose.x(), 10.0, 0.1);
}

TEST(HybridAStarTest, PoseFreeChecksBoundsAndObstacles) {
  HybridAStar astar(HybridAStarConfig{}, vehicle::VehicleParams{});
  const geom::Aabb bounds{{0, 0}, {20, 20}};
  const std::vector<geom::Obb> obs = {geom::Obb{{10, 10}, 0.0, 1.0, 1.0}};
  EXPECT_TRUE(astar.pose_free({5, 5, 0}, obs, bounds));
  EXPECT_FALSE(astar.pose_free({10, 10, 0}, obs, bounds));
  EXPECT_FALSE(astar.pose_free({0.5, 0.5, 0.7}, obs, bounds));  // corner out
}

// --------------------------------------------------------------- TrajOpt

std::vector<TargetPoint> straight_targets(int h, double v, double spacing,
                                          double y = 0.0) {
  std::vector<TargetPoint> out;
  for (int i = 1; i <= h; ++i)
    out.push_back({{i * spacing, y, 0.0}, v});
  return out;
}

TEST(TrajOptTest, TracksStraightLine) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = 1.0;
  const auto targets = straight_targets(cfg.horizon, 1.0, 1.0 * cfg.dt);
  const TrajOptResult res = opt.solve(s, targets, {});
  ASSERT_TRUE(res.ok);
  EXPECT_NEAR(res.control.steer, 0.0, 0.05);
  // Predicted trajectory stays near y=0.
  for (const vehicle::State& p : res.predicted) EXPECT_NEAR(p.y(), 0.0, 0.05);
}

TEST(TrajOptTest, AcceleratesTowardTargetSpeed) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;  // at rest
  const auto targets = straight_targets(cfg.horizon, 1.5, 1.5 * cfg.dt);
  const TrajOptResult res = opt.solve(s, targets, {});
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.control.accel, 0.2);
}

TEST(TrajOptTest, BrakesWhenTargetsStop) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = 2.0;
  std::vector<TargetPoint> targets;
  for (int i = 1; i <= cfg.horizon; ++i) targets.push_back({{0.5, 0, 0}, 0.0});
  const TrajOptResult res = opt.solve(s, targets, {});
  ASSERT_TRUE(res.ok);
  EXPECT_LT(res.control.accel, -0.5);
}

TEST(TrajOptTest, SteersTowardOffsetPath) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = 1.5;
  // Reference runs parallel but 1 m to the left.
  const auto targets = straight_targets(cfg.horizon, 1.5, 1.5 * cfg.dt, 1.0);
  const TrajOptResult res = opt.solve(s, targets, {});
  ASSERT_TRUE(res.ok);
  EXPECT_GT(res.control.steer, 0.05);
}

TEST(TrajOptTest, ObstacleConstraintPushesAside) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = 1.5;
  const auto targets = straight_targets(cfg.horizon, 1.5, 1.5 * cfg.dt);
  // A box sitting on the reference, ahead of the initial footprint (the
  // front bumper starts at x = 3.4).
  PredictedObstacle obstacle{geom::Obb{{5.5, 0.0}, 0.0, 0.4, 0.4}, {}};
  const TrajOptResult with_obs = opt.solve(s, targets, {obstacle});
  ASSERT_TRUE(with_obs.ok);
  EXPECT_GT(with_obs.active_obstacle_constraints, 0);
  // The plan must keep the footprint clear of the obstacle (it may swerve
  // or stop short — both are valid avoidance maneuvers).
  vehicle::BicycleModel model;
  for (const vehicle::State& p : with_obs.predicted) {
    EXPECT_FALSE(geom::overlaps(model.footprint(p), obstacle.box))
        << "penetration at (" << p.x() << ", " << p.y() << ")";
  }
  // An unconstrained solve would have sailed straight through; with the
  // box present the plan cannot pass the obstacle on the reference line.
  const vehicle::State& last = with_obs.predicted.back();
  EXPECT_TRUE(last.x() < 5.0 || std::abs(last.y()) > 0.5)
      << "end state (" << last.x() << ", " << last.y() << ")";
}

TEST(TrajOptTest, RespectsControlBounds) {
  TrajOptConfig cfg;
  vehicle::VehicleParams params;
  TrajOpt opt(cfg, params);
  vehicle::State s;
  // Absurd target: 100 m ahead in one horizon.
  std::vector<TargetPoint> targets;
  for (int i = 1; i <= cfg.horizon; ++i)
    targets.push_back({{100.0, 0, 0}, params.max_speed_fwd});
  const TrajOptResult res = opt.solve(s, targets, {});
  ASSERT_TRUE(res.ok);
  for (const auto& u : res.controls) {
    EXPECT_LE(u.accel, params.max_accel + 1e-6);
    EXPECT_GE(u.accel, -params.max_brake - 1e-6);
    EXPECT_LE(std::abs(u.steer), params.max_steer + 1e-6);
  }
}

TEST(TrajOptTest, WarmStartAccepted) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = 1.0;
  const auto targets = straight_targets(cfg.horizon, 1.0, 1.0 * cfg.dt);
  const TrajOptResult cold = opt.solve(s, targets, {});
  ASSERT_TRUE(cold.ok);
  const TrajOptResult warm = opt.solve(s, targets, {}, nullptr, &cold);
  ASSERT_TRUE(warm.ok);
  EXPECT_NEAR(warm.control.accel, cold.control.accel, 0.3);
}

// A short MPC run past a parked car: each frame executes the first
// control of the last plan, and the targets advance one step. Fed the
// previous frame's controls, stage duals and rho, a frame's QPs converge
// in at most half the iterations of the same frame started cold.
TEST(TrajOptTest, WarmStartAcrossFramesCutsIterations) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  const geom::Aabb bounds{{-10.0, -6.0}, {30.0, 6.0}};
  const PredictedObstacle parked{geom::Obb{{6.0, 2.4}, 0.0, 2.2, 0.9}, {}};
  const auto targets_at = [&](int frame) {
    std::vector<TargetPoint> out;
    for (int i = 1; i <= cfg.horizon; ++i)
      out.push_back({{(frame + i) * 1.5 * cfg.dt, 0.6, 0.0}, 1.5});
    return out;
  };
  vehicle::State s;
  s.speed = 1.2;
  TrajOptResult last = opt.solve(s, targets_at(0), {parked}, &bounds);
  for (int frame = 1; frame <= 5; ++frame) {
    ASSERT_TRUE(last.ok);
    s = last.predicted[1];
    ASSERT_EQ(last.stage_duals.size(), static_cast<std::size_t>(10 * cfg.horizon));
    const TrajOptResult warm = opt.solve(s, targets_at(frame), {parked}, &bounds, &last);
    const TrajOptResult cold = opt.solve(s, targets_at(frame), {parked}, &bounds);
    EXPECT_EQ(warm.ok, cold.ok) << "frame " << frame;
    EXPECT_GT(warm.active_obstacle_constraints, 0) << "frame " << frame;
    EXPECT_LE(2 * warm.qp_iterations, cold.qp_iterations) << "frame " << frame;
    last = warm;
  }
}

// An obstacle that comes into range between SQP rounds changes the slack
// count. The next round keeps the stage block of x (controls and states)
// and the stage rows of y (dynamics and bounds); only the slack entries
// and rows start at 0.
TEST(TrajOptTest, SlackCountChangeKeepsStageWarmStart) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  const int H = cfg.horizon;
  vehicle::State s;
  s.speed = 1.5;
  const auto targets = straight_targets(H, 1.5, 1.5 * cfg.dt);
  const auto nominal = opt.initial_nominal(s, nullptr);
  const PredictedObstacle box{geom::Obb{{5.5, 1.8}, 0.0, 0.4, 0.4}, {}};
  const TrajOptQp without = opt.build_qp(s, targets, {}, nullptr, nominal);
  const TrajOptQp with = opt.build_qp(s, targets, {box}, nullptr, nominal);
  ASSERT_EQ(without.slacks, 0);
  ASSERT_GT(with.slacks, 0);

  math::QpSolver solver(cfg.qp);
  for (const auto& [from, to] : {std::pair{&without, &with}, std::pair{&with, &without}}) {
    const math::QpResult prev = solver.solve(from->problem, {from->nominal, {}, 0.0});
    ASSERT_TRUE(prev.ok());
    const math::QpWarmStart next =
        opt.qp_warm_start(*to, {prev.x, prev.y, prev.rho}, from->slacks);
    ASSERT_EQ(next.x.size(), to->problem.num_vars());
    ASSERT_EQ(next.y.size(), to->problem.num_constraints());
    EXPECT_EQ(next.rho, prev.rho);
    for (int i = 0; i < to->slacks; ++i) EXPECT_EQ(next.x[static_cast<std::size_t>(i)], 0.0);
    for (int i = 0; i < 6 * H; ++i)
      EXPECT_EQ(next.x[static_cast<std::size_t>(to->slacks + i)],
                prev.x[static_cast<std::size_t>(from->slacks + i)]);
    for (int r = 0; r < 10 * H; ++r)
      EXPECT_EQ(next.y[static_cast<std::size_t>(r)], prev.y[static_cast<std::size_t>(r)]);
    for (std::size_t r = 10 * H; r < next.y.size(); ++r) EXPECT_EQ(next.y[r], 0.0);
  }

  // The first round starts x at the linearization point, slacks at 0.
  const math::QpWarmStart first = opt.qp_warm_start(with, {}, 0);
  EXPECT_EQ(first.x, with.nominal);
  EXPECT_TRUE(first.y.empty());
  for (int h = 0; h < H; ++h)
    EXPECT_EQ(with.nominal[static_cast<std::size_t>(with.control_index(h, 0))],
              nominal[static_cast<std::size_t>(h)].accel);
  EXPECT_NEAR(with.nominal[static_cast<std::size_t>(with.state_index(1, 3))],
              s.speed + nominal[0].accel * cfg.dt, 1e-12);
}

// Targets that run through the lot's far wall: the plan stops short of it.
// World::in_collision fails a footprint corner outside the bounds, and the
// discs cover the footprint, so every predicted disc centre stays at least
// a disc radius inside every wall.
TEST(TrajOptTest, WallRowsKeepDiscsInsideBounds) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  const geom::Aabb bounds{{-4.0, -3.0}, {9.0, 3.5}};
  vehicle::State s;
  s.pose = {2.0, 0.5, 0.3};
  s.speed = 1.5;
  std::vector<TargetPoint> targets;
  for (int i = 1; i <= cfg.horizon; ++i)
    targets.push_back({{2.0 + 0.6 * i, 0.5 + 0.2 * i, 0.3}, 2.0});

  const double r = opt.disc_radius();
  const auto worst_excess = [&](const TrajOptResult& res) {
    double worst = -1e9;
    for (const vehicle::State& p : res.predicted) {
      for (double off : opt.disc_offsets()) {
        const geom::Vec2 c{p.x() + std::cos(p.pose.heading) * off,
                           p.y() + std::sin(p.pose.heading) * off};
        worst = std::max({worst, bounds.min.x + r - c.x, c.x - (bounds.max.x - r),
                          bounds.min.y + r - c.y, c.y - (bounds.max.y - r)});
      }
    }
    return worst;
  };
  const TrajOptResult walled = opt.solve(s, targets, {}, &bounds);
  ASSERT_TRUE(walled.ok);
  EXPECT_GT(walled.active_obstacle_constraints, 0);
  EXPECT_LE(worst_excess(walled), 1e-2);
  // Without the walls the same plan leaves the lot.
  const TrajOptResult open = opt.solve(s, targets, {});
  ASSERT_TRUE(open.ok);
  EXPECT_GT(worst_excess(open), 0.5);
}

// A NaN state once reached the QP solver, which reported kSolved with a
// NaN solution, and std::clamp passed NaN controls to the vehicle. The QP
// now rejects the non-finite problem, so the solve fails cleanly.
TEST(TrajOptTest, NonFiniteStateFailsInsteadOfReturningNan) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = std::nan("");
  const TrajOptResult res =
      opt.solve(s, straight_targets(cfg.horizon, 1.0, 1.0 * cfg.dt), {});
  EXPECT_FALSE(res.ok);
}

TEST(TrajOptTest, TooFewTargetsRejected) {
  TrajOptConfig cfg;
  TrajOpt opt(cfg, vehicle::VehicleParams{});
  vehicle::State s;
  const TrajOptResult res = opt.solve(s, straight_targets(3, 1.0, 0.2), {});
  EXPECT_FALSE(res.ok);
}

TEST(TrajOptTest, DiscCoverFootprint) {
  TrajOptConfig cfg;
  vehicle::VehicleParams params;
  TrajOpt opt(cfg, params);
  const auto offsets = opt.disc_offsets();
  EXPECT_EQ(offsets.size(), static_cast<std::size_t>(cfg.collision_discs));
  const double r = opt.disc_radius();
  // Every footprint corner is inside some disc.
  vehicle::BicycleModel model(params);
  const geom::Obb fp = model.footprint(geom::Pose2{0, 0, 0});
  for (const geom::Vec2& corner : fp.corners()) {
    bool covered = false;
    for (double off : offsets)
      covered |= geom::distance(corner, {off, 0.0}) <= r + 1e-9;
    EXPECT_TRUE(covered);
  }
}

// --------------------------------------------------------------- planner

TEST(CoPlannerTest, PhasesSplitAtSwitches) {
  CoPlanner planner(CoPlannerConfig{}, vehicle::VehicleParams{});
  std::vector<PathPoint> pts;
  for (int i = 0; i <= 10; ++i) pts.push_back({{i * 0.5, 0, 0}, 1, 0});
  for (int i = 1; i <= 6; ++i) pts.push_back({{5.0 - i * 0.4, 0, 0}, -1, 0});
  planner.set_reference(RefPath(std::move(pts)));
  ASSERT_EQ(planner.phases().size(), 2u);
  EXPECT_EQ(planner.phases()[0].direction, 1);
  EXPECT_EQ(planner.phases()[1].direction, -1);
  // Switch extensions lengthen both phases beyond their raw points.
  EXPECT_GT(planner.phases()[0].length(), 5.0);
}

TEST(CoPlannerTest, TargetsComeFromCurrentPhase) {
  CoPlannerConfig cfg;
  CoPlanner planner(cfg, vehicle::VehicleParams{});
  std::vector<PathPoint> pts;
  for (int i = 0; i <= 40; ++i) pts.push_back({{i * 0.25, 0, 0}, 1, 0});
  planner.set_reference(RefPath(std::move(pts)));
  vehicle::State s;
  s.pose = {1.0, 0.3, 0.0};
  const auto targets = planner.build_targets(s);
  ASSERT_EQ(static_cast<int>(targets.size()), cfg.trajopt.horizon);
  for (const TargetPoint& t : targets) {
    EXPECT_GE(t.speed, 0.0);  // forward phase
    EXPECT_NEAR(t.pose.y(), 0.0, 1e-9);
  }
  // Targets progress along +x.
  EXPECT_GE(targets.back().pose.x(), targets.front().pose.x());
}

TEST(CoPlannerTest, SpeedTapersNearPhaseEnd) {
  CoPlannerConfig cfg;
  CoPlanner planner(cfg, vehicle::VehicleParams{});
  std::vector<PathPoint> pts;
  for (int i = 0; i <= 12; ++i) pts.push_back({{i * 0.25, 0, 0}, 1, 0});
  planner.set_reference(RefPath(std::move(pts)));  // 3 m path
  vehicle::State s;
  s.pose = {2.0, 0.0, 0.0};
  const auto targets = planner.build_targets(s);
  EXPECT_LT(std::abs(targets.back().speed), cfg.cruise_speed);
  EXPECT_NEAR(targets.back().speed, 0.0, cfg.min_speed + 1e-9);
}

TEST(CoPlannerTest, ActWithoutReferenceStops) {
  CoPlanner planner(CoPlannerConfig{}, vehicle::VehicleParams{});
  vehicle::State s;
  const vehicle::Command cmd = planner.act(s, {});
  EXPECT_GT(cmd.brake, 0.5);
}

TEST(CoPlannerTest, HoldsStillAtGoal) {
  CoPlanner planner(CoPlannerConfig{}, vehicle::VehicleParams{});
  std::vector<PathPoint> pts;
  for (int i = 0; i <= 10; ++i) pts.push_back({{i * 0.3, 0, 0}, 1, 0});
  planner.set_reference(RefPath(std::move(pts)));
  vehicle::State s;
  s.pose = {3.0, 0.0, 0.0};  // exactly at the goal
  s.speed = 0.0;
  const vehicle::Command cmd = planner.act(s, {});
  EXPECT_DOUBLE_EQ(cmd.throttle, 0.0);
  EXPECT_GT(cmd.brake, 0.5);
}

TEST(CoPlannerTest, StallPastLastPhaseEndReplansToGoal) {
  // A car stalled just past the end of the last phase, outside the goal
  // tolerance: its targets all have zero speed, so only a re-plan from
  // where it stands leads back to the goal.
  const CoPlannerConfig cfg;
  CoPlanner planner(cfg, vehicle::VehicleParams{});
  const geom::Pose2 goal{15.0, 6.0, 0.0};
  const geom::Aabb bounds{{0.0, 0.0}, {30.0, 12.0}};
  planner.set_reference(HybridAStar(cfg.astar, vehicle::VehicleParams{})
                            .reeds_shepp_fallback({5.0, 6.0, 0.0}, goal),
                        {}, bounds);
  ASSERT_EQ(planner.phases().size(), 1u);
  vehicle::State s;
  s.pose = {15.6, 6.3, 0.3};  // 0.67 m and 0.3 rad off the goal, at rest
  s.speed = 0.0;
  // The first frame moves progress to the phase end; each later one at rest
  // counts toward the stall limit.
  const int limit = static_cast<int>(cfg.stall_seconds / cfg.dt);
  for (int frame = 0; frame < limit; ++frame) {
    (void)planner.act(s, {});
    ASSERT_EQ(planner.reference()[0].pose.position.x, 5.0) << frame;
  }
  (void)planner.act(s, {});
  const RefPath& replanned = planner.reference();
  ASSERT_FALSE(replanned.empty());
  EXPECT_EQ(replanned[0].pose.position.x, s.pose.position.x);
  EXPECT_EQ(replanned[0].pose.position.y, s.pose.position.y);
  const geom::Pose2& end = replanned[replanned.size() - 1].pose;
  EXPECT_EQ(end.position.x, goal.position.x);
  EXPECT_EQ(end.position.y, goal.position.y);
  EXPECT_EQ(end.heading, goal.heading);
}

TEST(HybridAStarTest, GridKeyPackingDoesNotAlias) {
  // Pairs that collided under the old ((xi * 4096 + yi) * 64 + ti) * 2 + dir
  // scheme: a y overflow into the x field, and mixed-sign aliasing.
  EXPECT_EQ(((5L * 4096 + 2048) * 64 + 3) * 2 + 1,
            ((6L * 4096 - 2048) * 64 + 3) * 2 + 1);
  EXPECT_NE(pack_grid_key(5, 2048, 3, 1), pack_grid_key(6, -2048, 3, 1));
  EXPECT_EQ(((-1L * 4096 + 0) * 64 + 0) * 2 + 1,
            ((0L * 4096 - 4096) * 64 + 0) * 2 + 1);
  EXPECT_NE(pack_grid_key(-1, 0, 0, 1), pack_grid_key(0, -4096, 0, 1));

  // Exhaustive uniqueness over a sampled state block: every component must
  // participate in the key.
  std::set<std::int64_t> seen;
  int count = 0;
  for (long xi : {-2048L, -7L, 0L, 9L, 2048L})
    for (long yi : {-2048L, -3L, 0L, 11L, 2048L})
      for (long ti : {0L, 1L, 35L})
        for (int dir : {1, -1}) {
          EXPECT_TRUE(seen.insert(pack_grid_key(xi, yi, ti, dir)).second)
              << xi << "," << yi << "," << ti << "," << dir;
          ++count;
        }
  EXPECT_EQ(static_cast<int>(seen.size()), count);
}

TEST(CoPlannerTest, PlanReferenceOnScenario) {
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  const world::Scenario sc = world::make_scenario(opt, 502);
  CoPlanner planner(CoPlannerConfig{}, vehicle::VehicleParams{});
  std::vector<geom::Obb> obs;
  for (const auto& o : sc.obstacles)
    if (!o.dynamic()) obs.push_back(o.shape);
  EXPECT_TRUE(planner.plan_reference(sc.start_pose, sc.map.goal_pose, obs,
                                     sc.map.bounds));
  EXPECT_TRUE(planner.has_reference());
  EXPECT_GE(planner.phases().size(), 2u);
}

}  // namespace
}  // namespace icoil::co
