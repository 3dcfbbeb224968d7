#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "bev_oracle.hpp"
#include "geom/angles.hpp"
#include "mathkit/rng.hpp"
#include "sensing/bev.hpp"
#include "sensing/detector.hpp"
#include "sensing/noise.hpp"
#include "world/generators/registry.hpp"
#include "world/scenario.hpp"

namespace icoil::sense {
namespace {

world::World make_world(world::Difficulty d = world::Difficulty::kEasy,
                        std::uint64_t seed = 1) {
  world::ScenarioOptions opt;
  opt.difficulty = d;
  return world::World(world::make_scenario(opt, seed));
}

// ------------------------------------------------------------------- BEV

TEST(BevImageTest, ShapeAndAccess) {
  BevImage img(3, 8);
  EXPECT_EQ(img.channels(), 3);
  EXPECT_EQ(img.size(), 8);
  EXPECT_EQ(img.num_values(), 3u * 64u);
  img.at(2, 7, 7) = 1.0f;
  EXPECT_FLOAT_EQ(img.at(2, 7, 7), 1.0f);
  EXPECT_FLOAT_EQ(img.at(0, 0, 0), 0.0f);
}

TEST(BevImageTest, ChannelMean) {
  BevImage img(2, 4);
  for (int r = 0; r < 4; ++r)
    for (int c = 0; c < 4; ++c) img.at(1, r, c) = 1.0f;
  EXPECT_FLOAT_EQ(img.channel_mean(0), 0.0f);
  EXPECT_FLOAT_EQ(img.channel_mean(1), 1.0f);
}

TEST(BevRasterizerTest, PixelToWorldCenterIsEgo) {
  BevRasterizer raster({64, 24.0});
  const geom::Pose2 ego{10.0, 12.0, 0.5};
  // The four central pixels straddle the ego position.
  const geom::Vec2 w = raster.pixel_to_world(ego, 32, 32);
  EXPECT_LT(geom::distance(w, ego.position), raster.spec().metres_per_pixel());
}

TEST(BevRasterizerTest, ObstacleAheadLandsInTopHalf) {
  // Ego heading +x; obstacle directly ahead must appear in rows < center.
  world::World world = make_world();
  const geom::Obb& obstacle = world.scenario().obstacles[0].shape;
  geom::Pose2 ego{obstacle.center.x - 6.0, obstacle.center.y, 0.0};
  BevRasterizer raster({64, 24.0});
  const BevImage img = raster.render(world, ego);
  float top = 0.0f, bottom = 0.0f;
  for (int r = 0; r < 32; ++r)
    for (int c = 0; c < 64; ++c) top += img.at(kBevObstacles, r, c);
  for (int r = 32; r < 64; ++r)
    for (int c = 0; c < 64; ++c) bottom += img.at(kBevObstacles, r, c);
  EXPECT_GT(top, 0.0f);
  EXPECT_GT(top, bottom);
}

TEST(BevRasterizerTest, EgoCentricRotationInvariance) {
  // Same relative geometry under a global rotation yields the same image.
  world::World world = make_world();
  BevRasterizer raster({32, 24.0});
  const geom::Obb& obstacle = world.scenario().obstacles[0].shape;

  const geom::Pose2 ego1{obstacle.center.x - 6.0, obstacle.center.y, 0.0};
  const BevImage img1 = raster.render(world, ego1);
  // Approach the same obstacle from below instead: rotate the relative pose.
  const geom::Pose2 ego2{obstacle.center.x, obstacle.center.y - 6.0,
                         geom::kPi / 2.0};
  const BevImage img2 = raster.render(world, ego2);
  // The obstacle occupies the same *rows* (ahead of ego) in both.
  float ahead1 = 0.0f, ahead2 = 0.0f;
  for (int r = 0; r < 16; ++r)
    for (int c = 0; c < 32; ++c) {
      ahead1 += img1.at(kBevObstacles, r, c);
      ahead2 += img2.at(kBevObstacles, r, c);
    }
  EXPECT_GT(ahead1, 0.0f);
  EXPECT_GT(ahead2, 0.0f);
  // Obstacle heading differs relative to ego, so pixel counts differ, but
  // both views must be within a small factor (same box, same range).
  EXPECT_LT(std::abs(ahead1 - ahead2) / std::max(ahead1, ahead2), 0.8f);
}

TEST(BevRasterizerTest, GoalChannelVisibleNearGoal) {
  world::World world = make_world();
  const geom::Pose2 goal = world.map().goal_pose;
  BevRasterizer raster({64, 24.0});
  const BevImage img = raster.render(world, goal);
  EXPECT_GT(img.channel_mean(kBevGoal), 0.01f);
}

TEST(BevRasterizerTest, BoundsChannelAtLotEdge) {
  world::World world = make_world();
  BevRasterizer raster({64, 24.0});
  // Near the west wall, half the window is out of the lot.
  const BevImage img = raster.render(world, {1.0, 15.0, 0.0});
  EXPECT_GT(img.channel_mean(kBevBounds), 0.2f);
  // In the middle, much less.
  const BevImage mid = raster.render(world, {20.0, 15.0, 0.0});
  EXPECT_LT(mid.channel_mean(kBevBounds), img.channel_mean(kBevBounds));
}

TEST(BevRasterizerTest, FarObstaclesCulled) {
  world::World world = make_world();
  BevRasterizer raster({32, 10.0});  // narrow window
  const BevImage img = raster.render(world, {5.0, 25.0, 0.0});
  EXPECT_FLOAT_EQ(img.channel_mean(kBevObstacles), 0.0f);
}

/// render against the per-pixel oracle (tests/bev_oracle.hpp), compared with
/// memcmp: every registered family at every difficulty, at the policy's
/// spec, the default spec, a narrow window and an odd size. Dynamic
/// obstacles move between poses. The poses cover the start, the goal, random
/// poses in the lot and up to 5 m outside it at any heading, an ego inside an
/// obstacle, and an obstacle centred on the window's edge or corner, where
/// its pixel rectangle is clamped to the image.
TEST(BevRasterizerTest, MatchesPerPixelOracleBitForBit) {
  const BevSpec specs[] = {{48, 19.2}, {64, 24.0}, {32, 10.0}, {17, 7.3}};
  const world::Difficulty levels[] = {world::Difficulty::kEasy,
                                      world::Difficulty::kNormal,
                                      world::Difficulty::kHard};
  math::Rng rng(20);
  double obstacle_pixels = 0.0, goal_pixels = 0.0;
  int renders = 0;
  for (const std::string& generator :
       world::GeneratorRegistry::instance().names()) {
    for (const world::Difficulty level : levels) {
      world::ScenarioOptions opt;
      opt.generator = generator;
      opt.difficulty = level;
      world::World world(world::make_scenario(opt, 7));
      const geom::Aabb& lot = world.map().bounds;
      for (int k = 0; k < 48; ++k) {
        world.step(0.2);
        const auto states = world.obstacle_states();
        ASSERT_FALSE(states.empty()) << generator;
        const geom::Obb& box = states[static_cast<std::size_t>(k) % states.size()].box;
        for (const BevSpec& spec : specs) {
          const BevRasterizer raster(spec);
          const double heading = rng.uniform(-geom::kPi, geom::kPi);
          geom::Pose2 ego;
          if (k == 0) {
            ego = world.scenario().start_pose;
          } else if (k == 1) {
            ego = world.map().goal_pose;
          } else if (k % 3 == 0) {
            ego = {box.center, heading};
          } else if (k % 3 == 1) {
            ego = {rng.uniform(lot.min.x - 5.0, lot.max.x + 5.0),
                   rng.uniform(lot.min.y - 5.0, lot.max.y + 5.0), heading};
          } else {
            // The box centre on the window's border, in the ego frame: a
            // corner every fourth time, else a random point of one side.
            const double half = spec.range * 0.5;
            const double t =
                k % 4 == 2 ? half : rng.uniform(-half, half);
            const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
            const geom::Vec2 local = rng.bernoulli(0.5)
                                         ? geom::Vec2{sign * half, t}
                                         : geom::Vec2{t, sign * half};
            ego = {box.center - local.rotated(heading), heading};
          }
          const BevImage got = raster.render(world, ego);
          const BevImage want = testing::oracle_render(raster, world, ego);
          ASSERT_EQ(got.num_values(), want.num_values());
          ASSERT_EQ(std::memcmp(got.data().data(), want.data().data(),
                                want.num_values() * sizeof(float)),
                    0)
              << generator << " " << world::to_string(level) << " pose " << k
              << " spec " << spec.size << "/" << spec.range << " ego ("
              << ego.x() << ", " << ego.y() << ", " << ego.heading << ")";
          obstacle_pixels += want.channel_mean(kBevObstacles);
          goal_pixels += want.channel_mean(kBevGoal);
          ++renders;
        }
      }
    }
  }
  // The comparison saw real content, not empty images.
  EXPECT_GT(obstacle_pixels / renders, 0.01);
  EXPECT_GT(goal_pixels, 0.0);
}

// ----------------------------------------------------------------- noise

TEST(ImageNoiseTest, DisabledLeavesImageUntouched) {
  BevImage img(1, 8);
  img.at(0, 3, 3) = 1.0f;
  const BevImage before = img;
  math::Rng rng(1);
  ImageNoise noise(world::NoiseConfig{});
  EXPECT_FALSE(noise.enabled());
  noise.apply(img, rng);
  for (std::size_t i = 0; i < img.num_values(); ++i)
    EXPECT_FLOAT_EQ(img.data()[i], before.data()[i]);
}

TEST(ImageNoiseTest, GaussianStaysInRange) {
  BevImage img(1, 16);
  world::NoiseConfig cfg;
  cfg.image_gaussian_sigma = 0.5;
  ImageNoise noise(cfg);
  math::Rng rng(3);
  noise.apply(img, rng);
  bool any_nonzero = false;
  for (std::size_t i = 0; i < img.num_values(); ++i) {
    EXPECT_GE(img.data()[i], 0.0f);
    EXPECT_LE(img.data()[i], 1.0f);
    any_nonzero |= img.data()[i] != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(ImageNoiseTest, SaltPepperFlipsExpectedFraction) {
  BevImage img(1, 32);  // 1024 zero pixels
  world::NoiseConfig cfg;
  cfg.image_salt_pepper = 0.1;
  ImageNoise noise(cfg);
  math::Rng rng(5);
  noise.apply(img, rng);
  int flipped = 0;
  for (std::size_t i = 0; i < img.num_values(); ++i)
    flipped += img.data()[i] > 0.5f ? 1 : 0;
  EXPECT_GT(flipped, 60);
  EXPECT_LT(flipped, 160);
}

TEST(ImageNoiseTest, DeterministicForSeed) {
  world::NoiseConfig cfg;
  cfg.image_gaussian_sigma = 0.2;
  cfg.image_salt_pepper = 0.05;
  ImageNoise noise(cfg);
  BevImage a(1, 16), b(1, 16);
  math::Rng r1(9), r2(9);
  noise.apply(a, r1);
  noise.apply(b, r2);
  for (std::size_t i = 0; i < a.num_values(); ++i)
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
}

// -------------------------------------------------------------- detector

TEST(DetectorTest, CleanDetectionsMatchGroundTruth) {
  world::World world = make_world(world::Difficulty::kNormal, 2);
  Detector detector;
  math::Rng rng(1);
  const auto dets = detector.detect(world, {20.0, 10.0}, rng);
  EXPECT_EQ(dets.size(), world.scenario().obstacles.size());
  for (const Detection& d : dets) {
    const auto& truth = world.scenario().obstacles[static_cast<std::size_t>(d.id)];
    EXPECT_NEAR(d.box.half_length, truth.shape.half_length, 1e-9);
    EXPECT_DOUBLE_EQ(d.confidence, 1.0);
  }
}

TEST(DetectorTest, RangeLimitsDetections) {
  world::World world = make_world(world::Difficulty::kNormal, 2);
  Detector detector;
  math::Rng rng(1);
  const auto near = detector.detect(world, {30.0, 4.0}, rng, 8.0);
  const auto all = detector.detect(world, {30.0, 4.0}, rng, 100.0);
  EXPECT_LT(near.size(), all.size());
}

TEST(DetectorTest, NoiseJittersBoxes) {
  world::World world = make_world(world::Difficulty::kNormal, 2);
  world::NoiseConfig cfg;
  cfg.box_position_sigma = 0.2;
  Detector detector(cfg);
  math::Rng rng(4);
  const auto dets = detector.detect(world, {20.0, 10.0}, rng);
  double total_offset = 0.0;
  for (const Detection& d : dets) {
    const auto& truth = world.scenario().obstacles[static_cast<std::size_t>(d.id)];
    total_offset += geom::distance(d.box.center, truth.footprint_at(0.0).center);
  }
  EXPECT_GT(total_offset, 0.05);
}

TEST(DetectorTest, DropoutRemovesSomeDetections) {
  world::World world = make_world(world::Difficulty::kNormal, 2);
  world::NoiseConfig cfg;
  cfg.box_dropout = 0.5;
  Detector detector(cfg);
  math::Rng rng(8);
  int total = 0;
  for (int i = 0; i < 30; ++i)
    total += static_cast<int>(detector.detect(world, {20.0, 10.0}, rng).size());
  EXPECT_LT(total, 30 * 5);
  EXPECT_GT(total, 0);
}

TEST(DetectorTest, DynamicObstaclesCarryVelocity) {
  world::World world = make_world(world::Difficulty::kNormal, 2);
  Detector detector;
  math::Rng rng(1);
  for (const Detection& d : detector.detect(world, {20.0, 10.0}, rng)) {
    if (d.dynamic)
      EXPECT_GT(d.velocity.norm(), 0.1);
    else
      EXPECT_DOUBLE_EQ(d.velocity.norm(), 0.0);
  }
}

TEST(DetectorTest, ExtentNoiseNeverNegative) {
  world::World world = make_world(world::Difficulty::kNormal, 2);
  world::NoiseConfig cfg;
  cfg.box_extent_sigma = 5.0;  // absurd jitter
  Detector detector(cfg);
  math::Rng rng(6);
  for (int i = 0; i < 10; ++i) {
    for (const Detection& d : detector.detect(world, {20.0, 10.0}, rng)) {
      EXPECT_GE(d.box.half_length, 0.05);
      EXPECT_GE(d.box.half_width, 0.05);
    }
  }
}

}  // namespace
}  // namespace icoil::sense
