#include <gtest/gtest.h>

#include <cmath>

#include "geom/angles.hpp"
#include "world/map.hpp"
#include "world/obstacle.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace icoil::world {
namespace {

// ---------------------------------------------------------- MotionScript

TEST(MotionScriptTest, StaticWhenNoWaypoints) {
  MotionScript script;
  EXPECT_FALSE(script.dynamic());
  EXPECT_DOUBLE_EQ(script.path_length(), 0.0);
}

TEST(MotionScriptTest, PathLengthSumsSegments) {
  MotionScript script;
  script.waypoints = {{0, 0}, {3, 0}, {3, 4}};
  script.speed = 1.0;
  EXPECT_DOUBLE_EQ(script.path_length(), 7.0);
}

TEST(MotionScriptTest, PoseAdvancesAlongPath) {
  MotionScript script;
  script.waypoints = {{0, 0}, {10, 0}};
  script.speed = 2.0;
  const geom::Pose2 p = script.pose_at(1.0);
  EXPECT_NEAR(p.x(), 2.0, 1e-9);
  EXPECT_NEAR(p.heading, 0.0, 1e-9);
}

TEST(MotionScriptTest, PingPongReflectsAtEnds) {
  MotionScript script;
  script.waypoints = {{0, 0}, {10, 0}};
  script.speed = 1.0;
  // After 15 s: went 10 forward, 5 back -> x = 5, heading flipped.
  const geom::Pose2 p = script.pose_at(15.0);
  EXPECT_NEAR(p.x(), 5.0, 1e-9);
  EXPECT_NEAR(std::abs(p.heading), geom::kPi, 1e-9);
}

TEST(MotionScriptTest, PeriodicOverFullCycle) {
  MotionScript script;
  script.waypoints = {{0, 0}, {10, 0}};
  script.speed = 1.0;
  const geom::Pose2 a = script.pose_at(3.0);
  const geom::Pose2 b = script.pose_at(3.0 + 20.0);  // full out-and-back
  EXPECT_NEAR(a.x(), b.x(), 1e-9);
  EXPECT_NEAR(a.y(), b.y(), 1e-9);
}

TEST(MotionScriptTest, PhaseShiftsStart) {
  MotionScript script;
  script.waypoints = {{0, 0}, {10, 0}};
  script.speed = 1.0;
  script.phase = 4.0;
  EXPECT_NEAR(script.pose_at(0.0).x(), 4.0, 1e-9);
}

TEST(ObstacleTest, StaticFootprintConstant) {
  Obstacle o;
  o.shape = geom::Obb{{3, 4}, 0.5, 1.0, 0.5};
  const geom::Obb a = o.footprint_at(0.0);
  const geom::Obb b = o.footprint_at(100.0);
  EXPECT_NEAR(a.center.x, b.center.x, 1e-12);
  EXPECT_DOUBLE_EQ(o.velocity_at(5.0).norm(), 0.0);
}

TEST(ObstacleTest, DynamicVelocityMagnitude) {
  Obstacle o;
  o.shape = geom::Obb{{0, 0}, 0, 1, 0.5};
  o.motion.waypoints = {{0, 0}, {20, 0}};
  o.motion.speed = 1.5;
  EXPECT_TRUE(o.dynamic());
  EXPECT_NEAR(o.velocity_at(2.0).norm(), 1.5, 1e-6);
  EXPECT_NEAR(o.velocity_at(2.0).x, 1.5, 1e-6);
}

// ------------------------------------------------------------------- map

TEST(MapTest, StandardLotGeometry) {
  const ParkingLotMap map = ParkingLotMap::standard();
  EXPECT_EQ(map.bays.size(), 6u);
  EXPECT_LT(map.goal_bay_index, map.bays.size());
  EXPECT_TRUE(map.bounds.contains(map.goal_pose.position));
  // The goal pose sits inside the goal bay.
  EXPECT_TRUE(map.goal_bay().contains(map.goal_pose.position));
  // Spawn regions are inside the lot.
  EXPECT_TRUE(map.bounds.contains(map.spawn_close.center()));
  EXPECT_TRUE(map.bounds.contains(map.spawn_remote.center()));
}

TEST(MapTest, SpawnRegionsOrdered) {
  const ParkingLotMap map = ParkingLotMap::standard();
  const double d_close =
      geom::distance(map.spawn_close.center(), map.goal_pose.position);
  const double d_remote =
      geom::distance(map.spawn_remote.center(), map.goal_pose.position);
  EXPECT_LT(d_close, d_remote);
}

TEST(MapTest, BayInteriorsDoNotOverlap) {
  // Adjacent bays share an edge; their shrunken interiors must be disjoint.
  const ParkingLotMap map = ParkingLotMap::standard();
  for (std::size_t i = 0; i < map.bays.size(); ++i)
    for (std::size_t j = i + 1; j < map.bays.size(); ++j)
      EXPECT_FALSE(
          geom::overlaps(map.bays[i].inflated(-0.01), map.bays[j]));
}

// -------------------------------------------------------------- scenario

TEST(ScenarioTest, DifficultyObstacleCounts) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kEasy;
  EXPECT_EQ(make_scenario(opt, 1).obstacles.size(), 3u);
  opt.difficulty = Difficulty::kNormal;
  EXPECT_EQ(make_scenario(opt, 1).obstacles.size(), 5u);
  opt.difficulty = Difficulty::kHard;
  EXPECT_EQ(make_scenario(opt, 1).obstacles.size(), 5u);
}

TEST(ScenarioTest, EasyHasNoDynamicObstacles) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kEasy;
  for (const Obstacle& o : make_scenario(opt, 3).obstacles)
    EXPECT_FALSE(o.dynamic());
}

TEST(ScenarioTest, NormalHasTwoDynamicObstacles) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kNormal;
  int dynamic = 0;
  for (const Obstacle& o : make_scenario(opt, 3).obstacles)
    if (o.dynamic()) ++dynamic;
  EXPECT_EQ(dynamic, 2);
}

TEST(ScenarioTest, OnlyHardHasNoise) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kNormal;
  EXPECT_FALSE(make_scenario(opt, 1).noise.any());
  opt.difficulty = Difficulty::kHard;
  EXPECT_TRUE(make_scenario(opt, 1).noise.any());
}

TEST(ScenarioTest, DeterministicForSeed) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kNormal;
  const Scenario a = make_scenario(opt, 77);
  const Scenario b = make_scenario(opt, 77);
  EXPECT_DOUBLE_EQ(a.start_pose.x(), b.start_pose.x());
  EXPECT_DOUBLE_EQ(a.start_pose.heading, b.start_pose.heading);
  ASSERT_EQ(a.obstacles.size(), b.obstacles.size());
  for (std::size_t i = 0; i < a.obstacles.size(); ++i)
    EXPECT_DOUBLE_EQ(a.obstacles[i].motion.phase, b.obstacles[i].motion.phase);
}

TEST(ScenarioTest, DifferentSeedsDiffer) {
  ScenarioOptions opt;
  const Scenario a = make_scenario(opt, 1);
  const Scenario b = make_scenario(opt, 2);
  EXPECT_NE(a.start_pose.x(), b.start_pose.x());
}

TEST(ScenarioTest, StartClassRespectsRegion) {
  ScenarioOptions opt;
  for (auto cls : {StartClass::kClose, StartClass::kRemote, StartClass::kRandom}) {
    opt.start_class = cls;
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      const Scenario sc = make_scenario(opt, seed);
      const geom::Aabb& region = cls == StartClass::kClose ? sc.map.spawn_close
                                 : cls == StartClass::kRemote
                                     ? sc.map.spawn_remote
                                     : sc.map.spawn_random;
      EXPECT_TRUE(region.contains(sc.start_pose.position))
          << to_string(cls) << " seed " << seed;
    }
  }
}

TEST(ScenarioTest, ObstacleOverrideTruncatesRoster) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kNormal;
  opt.num_obstacles_override = 2;
  EXPECT_EQ(make_scenario(opt, 1).obstacles.size(), 2u);
  opt.num_obstacles_override = 99;  // clamped to roster size
  EXPECT_EQ(make_scenario(opt, 1).obstacles.size(), 5u);
}

TEST(ScenarioTest, CanonicalObstaclesClearOfGoalBay) {
  const ParkingLotMap map = ParkingLotMap::standard();
  for (const Obstacle& o : canonical_obstacles()) {
    if (!o.dynamic()) {
      EXPECT_FALSE(geom::overlaps(o.shape, map.goal_bay())) << o.name;
    }
  }
}

TEST(ScenarioTest, ToStringNames) {
  EXPECT_EQ(to_string(Difficulty::kEasy), "easy");
  EXPECT_EQ(to_string(Difficulty::kHard), "hard");
  EXPECT_EQ(to_string(StartClass::kRemote), "remote");
}

// ----------------------------------------------------------------- world

TEST(WorldTest, ObstacleStatesMatchScenario) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kNormal;
  World world(make_scenario(opt, 5));
  const auto states = world.obstacle_states();
  EXPECT_EQ(states.size(), 5u);
  int dynamic = 0;
  for (const auto& s : states) dynamic += s.dynamic ? 1 : 0;
  EXPECT_EQ(dynamic, 2);
}

TEST(WorldTest, SteppingMovesDynamicObstacles) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kNormal;
  World world(make_scenario(opt, 5));
  const auto before = world.obstacle_states();
  for (int i = 0; i < 40; ++i) world.step(0.05);
  const auto after = world.obstacle_states();
  double moved = 0.0;
  for (std::size_t i = 0; i < before.size(); ++i)
    moved += geom::distance(before[i].box.center, after[i].box.center);
  EXPECT_GT(moved, 1.0);
  world.reset();
  EXPECT_DOUBLE_EQ(world.time(), 0.0);
}

TEST(WorldTest, CollisionWithObstacle) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kEasy;
  const Scenario sc = make_scenario(opt, 1);
  World world(sc);
  const geom::Obb& first = sc.obstacles[0].shape;
  const geom::Obb at_obstacle{first.center, first.heading, 1.0, 1.0};
  EXPECT_TRUE(world.in_collision(at_obstacle));
}

TEST(WorldTest, CollisionOutOfBounds) {
  ScenarioOptions opt;
  World world(make_scenario(opt, 1));
  const geom::Obb outside{{-5.0, 15.0}, 0.0, 1.0, 1.0};
  EXPECT_TRUE(world.in_collision(outside));
  // Straddling the boundary also counts.
  const geom::Obb straddle{{0.0, 15.0}, 0.0, 1.0, 1.0};
  EXPECT_TRUE(world.in_collision(straddle));
}

TEST(WorldTest, FreeSpaceNotColliding) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kEasy;
  World world(make_scenario(opt, 1));
  const geom::Obb free_box{{10.0, 25.0}, 0.3, 1.0, 1.0};
  EXPECT_FALSE(world.in_collision(free_box));
  EXPECT_GT(world.clearance(free_box), 0.5);
}

TEST(WorldTest, AtGoalToleranceBands) {
  ScenarioOptions opt;
  const Scenario sc = make_scenario(opt, 1);
  World world(sc);
  EXPECT_TRUE(world.at_goal(sc.map.goal_pose));
  geom::Pose2 off = sc.map.goal_pose;
  off.position.x += 0.5;
  EXPECT_TRUE(world.at_goal(off, 0.6, 0.35));
  off.position.x += 1.0;
  EXPECT_FALSE(world.at_goal(off, 0.6, 0.35));
  geom::Pose2 rotated = sc.map.goal_pose;
  rotated.heading += 1.0;
  EXPECT_FALSE(world.at_goal(rotated, 0.6, 0.35));
}

TEST(WorldTest, ClearanceDecreasesNearObstacle) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kEasy;
  const Scenario sc = make_scenario(opt, 1);
  World world(sc);
  const geom::Vec2 c = sc.obstacles[0].shape.center;
  const geom::Obb near_box{{c.x, c.y + 3.5}, 0.0, 0.5, 0.5};
  const geom::Obb far_box{{c.x, c.y + 8.0}, 0.0, 0.5, 0.5};
  EXPECT_LT(world.clearance(near_box), world.clearance(far_box));
}

TEST(WorldTest, DynamicBoxCacheTracksSteps) {
  ScenarioOptions opt;
  opt.difficulty = Difficulty::kNormal;  // patrol + pedestrian
  const Scenario sc = make_scenario(opt, 5);
  World world(sc);
  ASSERT_EQ(world.dynamic_boxes().size(),
            world.dynamic_obstacle_indices().size());
  for (int step = 0; step < 30; ++step) world.step(0.05);
  const auto& indices = world.dynamic_obstacle_indices();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const geom::Obb expected =
        sc.obstacles[indices[k]].footprint_at(world.time());
    EXPECT_NEAR(world.dynamic_boxes()[k].center.x, expected.center.x, 1e-12);
    EXPECT_NEAR(world.dynamic_boxes()[k].center.y, expected.center.y, 1e-12);
    EXPECT_NEAR(world.dynamic_boxes()[k].heading, expected.heading, 1e-12);
  }
  world.reset();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const geom::Obb expected = sc.obstacles[indices[k]].footprint_at(0.0);
    EXPECT_NEAR(world.dynamic_boxes()[k].center.x, expected.center.x, 1e-12);
  }
}

TEST(WorldTest, CrowdedLotDensityScalesClutter) {
  for (const double density : {1.0, 4.0}) {
    ScenarioOptions opt;
    opt.generator = "crowded_lot";
    opt.difficulty = Difficulty::kNormal;
    opt.params.set("density", density);
    const Scenario sc = make_scenario(opt, 3);
    int statics = 0;
    for (const Obstacle& o : sc.obstacles)
      if (!o.dynamic()) ++statics;
    // 4 fixed roster entries + 6 * density clutter boxes (placement may
    // drop a few at high density when the lot saturates).
    EXPECT_GE(statics, 2 + static_cast<int>(3 * density));
    EXPECT_LE(statics, 2 + static_cast<int>(6 * density));
  }
}

}  // namespace
}  // namespace icoil::world
