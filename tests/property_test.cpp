// Property-based sweeps across modules: invariants that must hold for any
// seed, checked over parameterized ranges (TEST_P).

#include <gtest/gtest.h>

#include <cmath>

#include "co/reeds_shepp.hpp"
#include "core/hsa.hpp"
#include "geom/angles.hpp"
#include "mathkit/qp.hpp"
#include "mathkit/rng.hpp"
#include "sensing/bev.hpp"
#include "vehicle/kinematics.hpp"
#include "world/scenario.hpp"

namespace icoil {
namespace {

// ----------------------------------------------------------- QP/KKT

class QpKktProperty : public ::testing::TestWithParam<int> {};

TEST_P(QpKktProperty, SolutionSatisfiesKktConditions) {
  math::Rng rng(static_cast<std::uint64_t>(GetParam()) * 71 + 11);
  const std::size_t n = 4 + static_cast<std::size_t>(GetParam()) % 6;

  math::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal() * 0.4;
  math::Matrix hess = a.transpose() * a;
  for (std::size_t i = 0; i < n; ++i) hess(i, i) += 0.5;
  math::QpProblem p;
  p.p = math::CsrMatrix::from_dense(hess);
  p.q.assign(n, 0.0);
  for (double& v : p.q) v = rng.normal();
  p.a = math::CsrMatrix::from_dense(math::Matrix::identity(n));
  p.l.assign(n, -1.5);
  p.u.assign(n, 1.5);

  math::QpSettings settings;
  settings.eps_abs = 1e-5;
  settings.eps_rel = 1e-5;
  settings.max_iterations = 20000;
  const math::QpResult r = math::QpSolver(settings).solve(p);
  ASSERT_TRUE(r.ok());

  // Primal feasibility.
  const auto ax = p.a.apply(r.x);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(ax[i], p.l[i] - 1e-3);
    EXPECT_LE(ax[i], p.u[i] + 1e-3);
  }
  // Stationarity: P x + q + A^T y = 0.
  const auto px = p.p.apply(r.x);
  const auto aty = p.a.transpose().apply(r.y);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(px[i] + p.q[i] + aty[i], 0.0, 5e-3);
  // Complementary slackness sign convention: y_i < 0 only at the lower
  // bound, y_i > 0 only at the upper bound.
  for (std::size_t i = 0; i < n; ++i) {
    if (r.y[i] > 1e-3) EXPECT_NEAR(ax[i], p.u[i], 1e-2);
    if (r.y[i] < -1e-3) EXPECT_NEAR(ax[i], p.l[i], 1e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomBoxQps, QpKktProperty, ::testing::Range(0, 25));

// ------------------------------------------------------ bicycle model

class BicycleProperty : public ::testing::TestWithParam<int> {};

TEST_P(BicycleProperty, MotionInvariants) {
  math::Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 3);
  const vehicle::BicycleModel model;
  vehicle::State s;
  s.pose = {rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-3, 3)};
  s.speed = rng.uniform(-1.5, 2.5);

  vehicle::Command cmd;
  cmd.throttle = rng.uniform(0, 1);
  cmd.brake = rng.uniform(0, 0.5);
  cmd.steer = rng.uniform(-1, 1);
  cmd.reverse = rng.bernoulli(0.3);

  vehicle::State prev = s;
  for (int i = 0; i < 50; ++i) {
    const vehicle::State next = model.step(prev, cmd, 0.05);
    // Speed limits always respected.
    EXPECT_LE(next.speed, model.params().max_speed_fwd + 1e-9);
    EXPECT_GE(next.speed, -model.params().max_speed_rev - 1e-9);
    // Heading stays wrapped.
    EXPECT_LE(std::abs(next.pose.heading), geom::kPi + 1e-9);
    // Displacement bounded by |v_max| dt.
    EXPECT_LE(geom::distance(next.pose.position, prev.pose.position),
              model.params().max_speed_fwd * 0.05 + 1e-6);
    prev = next;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDrives, BicycleProperty, ::testing::Range(0, 30));

TEST_P(BicycleProperty, PlannerModelRotationEquivariance) {
  // Rotating the start pose rotates the trajectory: the model must not
  // depend on absolute heading.
  math::Rng rng(static_cast<std::uint64_t>(GetParam()) * 59 + 1);
  const vehicle::BicycleModel model;
  const vehicle::PlannerControl u{rng.uniform(-2, 2), rng.uniform(-0.5, 0.5)};
  const double rot = rng.uniform(-3, 3);

  vehicle::State a;
  a.speed = rng.uniform(-1, 2);
  vehicle::State b = a;
  b.pose.heading = geom::wrap_angle(a.pose.heading + rot);

  for (int i = 0; i < 20; ++i) {
    a = model.step_planner(a, u, 0.05);
    b = model.step_planner(b, u, 0.05);
  }
  const geom::Vec2 a_rotated = a.pose.position.rotated(rot);
  EXPECT_NEAR(a_rotated.x, b.pose.position.x, 1e-6);
  EXPECT_NEAR(a_rotated.y, b.pose.position.y, 1e-6);
  EXPECT_NEAR(geom::angle_diff(b.pose.heading, a.pose.heading), rot, 1e-6);
  EXPECT_NEAR(a.speed, b.speed, 1e-9);
}

// ------------------------------------------------------- Reeds-Shepp

class RsTriangleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RsTriangleProperty, ApproximateTriangleInequalityViaMidpoint) {
  // With the FULL Reeds-Shepp word set, A->B is never longer than A->M->B.
  // This implementation searches the CSC/CCC/SCS families (see
  // reeds_shepp.hpp), so the concatenation A->M->B is not always
  // representable as a single word; allow bounded suboptimality.
  math::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 23);
  const co::ReedsShepp rs(2.5);
  const geom::Pose2 a{rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-3, 3)};
  const geom::Pose2 m{rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-3, 3)};
  const geom::Pose2 b{rng.uniform(-6, 6), rng.uniform(-6, 6), rng.uniform(-3, 3)};
  const auto ab = rs.shortest_path(a, b);
  const auto am = rs.shortest_path(a, m);
  const auto mb = rs.shortest_path(m, b);
  ASSERT_TRUE(ab && am && mb);
  EXPECT_LE(rs.length(*ab),
            1.35 * (rs.length(*am) + rs.length(*mb)) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomTriples, RsTriangleProperty, ::testing::Range(0, 30));

class RsScaleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RsScaleProperty, LengthScalesWithRadiusForPureRotation) {
  // For a pure in-place heading change, path length grows with radius.
  math::Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 9);
  const double heading = rng.uniform(0.5, 3.0);
  const co::ReedsShepp small(1.5), big(4.0);
  const geom::Pose2 from{0, 0, 0}, to{0, 0, heading};
  const auto ps = small.shortest_path(from, to);
  const auto pb = big.shortest_path(from, to);
  ASSERT_TRUE(ps && pb);
  EXPECT_LE(small.length(*ps), big.length(*pb) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomHeadings, RsScaleProperty, ::testing::Range(0, 15));

// ------------------------------------------------------------- HSA

class HsaMonotoneProperty : public ::testing::TestWithParam<int> {};

TEST_P(HsaMonotoneProperty, ComplexityMonotoneInObstacleCount) {
  // Adding an obstacle at the most dangerous distance can only increase
  // instantaneous complexity.
  math::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 2);
  core::HsaConfig cfg;
  core::Hsa hsa(cfg);
  std::vector<double> distances;
  double prev = hsa.instant_complexity(distances);
  for (int k = 0; k < 6; ++k) {
    distances.push_back(rng.uniform(0.5, 8.0));
    const double next = hsa.instant_complexity(distances);
    EXPECT_GT(next, prev);
    prev = next;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDistances, HsaMonotoneProperty,
                         ::testing::Range(0, 15));

TEST(HsaPropertyTest, RatioMonotoneInEntropy) {
  core::HsaConfig cfg;
  double prev_ratio = -1.0;
  for (double entropy : {0.0, 0.3, 0.9, 1.8, 2.7}) {
    core::Hsa hsa(cfg);
    for (int i = 0; i < cfg.window; ++i) hsa.push(entropy, {2.0, 3.0});
    EXPECT_GT(hsa.ratio(), prev_ratio);
    prev_ratio = hsa.ratio();
  }
}

// --------------------------------------------------------------- BEV

class BevProperty : public ::testing::TestWithParam<int> {};

TEST_P(BevProperty, TranslationInvarianceInFreeSpace) {
  // Far from all obstacles and walls, the BEV is identical regardless of
  // where the ego stands (all channels empty).
  math::Rng rng(static_cast<std::uint64_t>(GetParam()) * 29 + 4);
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  const world::World world{world::make_scenario(opt, 9)};
  const sense::BevRasterizer raster({24, 6.0});  // tiny 6 m window

  const geom::Pose2 a{rng.uniform(10, 14), rng.uniform(24, 26), rng.uniform(-3, 3)};
  const geom::Pose2 b{rng.uniform(16, 20), rng.uniform(24, 26), rng.uniform(-3, 3)};
  const sense::BevImage ia = raster.render(world, a);
  const sense::BevImage ib = raster.render(world, b);
  for (std::size_t i = 0; i < ia.num_values(); ++i)
    ASSERT_FLOAT_EQ(ia.data()[i], ib.data()[i]);
}

INSTANTIATE_TEST_SUITE_P(RandomPoses, BevProperty, ::testing::Range(0, 10));

// ------------------------------------------------------------ scenario

class ScenarioProperty : public ::testing::TestWithParam<int> {};

TEST_P(ScenarioProperty, StartPoseNeverCollides) {
  // The sampled start pose must leave the ego footprint collision-free for
  // every difficulty and seed (otherwise episodes die at frame zero).
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  const vehicle::BicycleModel model;
  for (auto level : {world::Difficulty::kEasy, world::Difficulty::kNormal,
                     world::Difficulty::kHard}) {
    world::ScenarioOptions opt;
    opt.difficulty = level;
    const world::Scenario sc = world::make_scenario(opt, seed);
    const world::World world(sc);
    EXPECT_FALSE(world.in_collision(model.footprint(sc.start_pose)))
        << world::to_string(level) << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScenarioProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace icoil
