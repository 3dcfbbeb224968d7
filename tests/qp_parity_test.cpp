// Differential oracle of the sparse QP solver: every QP is solved by
// math::QpSolver and by the dense reference of dense_qp_oracle.hpp, which
// runs the same ADMM iteration on dense matrices. The two must agree on
// status, on the iteration count to within one residual-check interval, and
// on the solution to 1e-6 relative to its infinity norm.
//
// The QPs are real trajectory-optimization QPs rebuilt through
// co::TrajOpt::build_qp (every registered scenario family, seeded starts,
// all SQP rounds) plus seeded random stage-structured QPs, the
// unconstrained path and the singular-pivot path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "co/trajopt.hpp"
#include "dense_qp_oracle.hpp"
#include "geom/angles.hpp"
#include "mathkit/rng.hpp"
#include "world/generators/registry.hpp"
#include "world/scenario.hpp"

namespace icoil {
namespace {

struct ParityStats {
  int qps = 0;
  int with_slacks = 0;
  int iterations = 0;
  int max_diter = 0;
  int solved = 0;
  double max_dx = 0.0;

  void record() const {
    ::testing::Test::RecordProperty("qps", qps);
    ::testing::Test::RecordProperty("solved", solved);
    ::testing::Test::RecordProperty("admm_iterations", iterations);
    ::testing::Test::RecordProperty("max_iteration_diff", max_diter);
    char dx[32];
    std::snprintf(dx, sizeof dx, "%.3g", max_dx);
    ::testing::Test::RecordProperty("max_dx", dx);
  }
};

// Solves `qp` both ways and checks the gate; returns the sparse result.
math::QpResult expect_parity(const math::QpProblem& qp, const math::QpSettings& settings,
                             const std::vector<double>* x0, ParityStats& stats,
                             const std::string& what) {
  const math::QpResult sparse = math::QpSolver(settings).solve(qp, x0, nullptr);
  const math::QpResult dense = oracle::dense_qp_solve(qp, settings, x0, nullptr);
  EXPECT_EQ(sparse.status, dense.status) << what;
  EXPECT_LE(std::abs(sparse.iterations - dense.iterations), settings.check_interval)
      << what;
  EXPECT_EQ(sparse.x.size(), dense.x.size()) << what;
  if (sparse.x.size() == dense.x.size()) {
    double dx = 0.0;
    for (std::size_t i = 0; i < dense.x.size(); ++i)
      dx = std::max(dx, std::abs(sparse.x[i] - dense.x[i]));
    EXPECT_LE(dx, 1e-6 * std::max(1.0, math::norm_inf(dense.x))) << what;
    stats.max_dx = std::max(stats.max_dx, dx);
  }
  ++stats.qps;
  stats.solved += sparse.ok() ? 1 : 0;
  stats.iterations += sparse.iterations;
  stats.max_diter = std::max(stats.max_diter, std::abs(sparse.iterations - dense.iterations));
  return sparse;
}

// ------------------------------------------------- trajectory-optimization

// Straight-line targets from `from` toward `goal`, `speed` m/s.
std::vector<co::TargetPoint> line_targets(const geom::Pose2& from, const geom::Pose2& goal,
                                          int horizon, double dt, double speed) {
  const geom::Vec2 d = goal.position - from.position;
  const double len = std::max(1e-6, d.norm());
  std::vector<co::TargetPoint> out;
  for (int h = 1; h <= horizon; ++h) {
    const double s = std::min(len, speed * dt * h);
    co::TargetPoint t;
    t.pose = {from.x() + d.x / len * s, from.y() + d.y / len * s, goal.heading};
    t.speed = s < len ? speed : 0.0;
    out.push_back(t);
  }
  return out;
}

TEST(QpParityTest, TrajOptQpsOfEveryFamilyMatchDenseOracle) {
  const co::TrajOptConfig config;
  const vehicle::VehicleParams params;
  const co::TrajOpt opt(config, params);
  ParityStats stats;
  const auto families = world::GeneratorRegistry::instance().names();
  ASSERT_GE(families.size(), 8u);
  for (const std::string& family : families) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      world::ScenarioOptions options;
      options.generator = family;
      options.difficulty = world::Difficulty::kNormal;
      const world::Scenario sc = world::make_scenario(options, seed);
      std::vector<co::PredictedObstacle> obstacles;
      for (const world::Obstacle& o : sc.obstacles)
        obstacles.push_back({o.footprint_at(0.0), o.velocity_at(0.0)});

      // Starts along the way from the sampled start to the goal bay, where
      // the parked neighbours make the collision rows (and slacks) appear.
      math::Rng rng(seed * 7919 + families.size());
      for (double frac : {0.0, 0.6, 0.9}) {
        vehicle::State s;
        const geom::Pose2& a = sc.start_pose;
        const geom::Pose2& g = sc.map.goal_pose;
        s.pose = {a.x() + (g.x() - a.x()) * frac + rng.uniform(-0.3, 0.3),
                  a.y() + (g.y() - a.y()) * frac + rng.uniform(-0.3, 0.3),
                  a.heading + geom::angle_diff(g.heading, a.heading) * frac};
        s.speed = rng.uniform(-0.5, 1.5);
        const auto targets = line_targets(s.pose, g, config.horizon, config.dt, 1.0);

        // The SQP loop of TrajOpt::solve, with the oracle alongside.
        auto nominal = opt.initial_nominal(s, nullptr);
        std::vector<double> prev;
        for (int round = 0; round < config.sqp_iterations; ++round) {
          const co::TrajOptQp qp = opt.build_qp(s, targets, obstacles, nominal);
          stats.with_slacks += qp.slacks > 0 ? 1 : 0;
          const bool warm = prev.size() == qp.problem.q.size();
          const math::QpResult sol =
              expect_parity(qp.problem, config.qp, warm ? &prev : nullptr, stats,
                            family + " seed " + std::to_string(seed) + " frac " +
                                std::to_string(frac) + " round " + std::to_string(round));
          if (!sol.ok() && sol.status != math::QpStatus::kMaxIterations) break;
          nominal = opt.controls_of(qp, sol.x);
          prev = sol.x;
        }
      }
    }
  }
  EXPECT_GE(stats.qps, static_cast<int>(families.size()) * 2 * 3 * 2);
  EXPECT_GT(stats.with_slacks, stats.qps / 4);  // the slack block is exercised
  stats.record();
}

TEST(QpParityTest, TrajOptLayoutIsSlacksThenStages) {
  co::TrajOptConfig config;
  const co::TrajOpt opt(config, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = 1.0;
  const geom::Pose2 goal{8.0, 0.0, 0.0};
  co::PredictedObstacle box{{{3.0, 1.6}, 0.0, 2.0, 1.0}, {}};
  const co::TrajOptQp qp = opt.build_qp(
      s, line_targets(s.pose, goal, config.horizon, config.dt, 1.0), {box},
      opt.initial_nominal(s, nullptr));
  ASSERT_GT(qp.slacks, 0);
  const int H = config.horizon;
  EXPECT_EQ(qp.problem.q.size(), static_cast<std::size_t>(qp.slacks + 6 * H));
  EXPECT_EQ(qp.control_index(0, 0), qp.slacks);
  EXPECT_EQ(qp.state_index(1, 0), qp.slacks + 2);
  EXPECT_EQ(qp.control_index(1, 1), qp.slacks + 7);
  EXPECT_EQ(qp.state_index(H, 3), qp.slacks + 6 * H - 1);
  // Every A row spans at most 8 columns and a slack row touches only its
  // slack and one stage's (x, y, theta).
  const math::CsrMatrix& a = qp.problem.a;
  for (int r = 0; r < a.rows; ++r) EXPECT_LE(a.row_ptr[r + 1] - a.row_ptr[r], 8);
  const int first_obs_row = 10 * H;
  for (int i = 0; i < qp.slacks; ++i) {
    const int r = first_obs_row + 2 * i;
    EXPECT_EQ(a.col[a.row_ptr[r]], i);
    const int stage = (a.col[a.row_ptr[r + 1] - 1] - qp.slacks) / 6;
    for (int k = a.row_ptr[r] + 1; k < a.row_ptr[r + 1]; ++k)
      EXPECT_EQ((a.col[k] - qp.slacks) / 6, stage);
  }
}

// --------------------------------------------------- random stage QPs

// A seeded QP with the trajectory-optimization structure: `slacks` slack
// variables first, then H stages of (2 controls, 4 states); linear
// dynamics equalities, state and control boxes, and per slack a
// half-space row over one stage's first three states plus `s >= 0`. The
// bounds are set around a random point, so the QP is feasible.
math::QpProblem random_stage_qp(int H, int slacks, std::uint64_t seed) {
  math::Rng rng(seed);
  const int n = slacks + 6 * H;
  auto u = [&](int h, int c) { return slacks + 6 * h + c; };
  auto x = [&](int h, int c) { return slacks + 6 * (h - 1) + 2 + c; };  // h in 1..H
  std::vector<math::Triplet> p;
  math::QpProblem qp;
  qp.q.assign(static_cast<std::size_t>(n), 0.0);
  for (int h = 0; h < H; ++h) {
    for (int c = 0; c < 2; ++c) p.push_back({u(h, c), u(h, c), rng.uniform(0.1, 1.0)});
    for (int c = 0; c < 4; ++c) {
      p.push_back({x(h + 1, c), x(h + 1, c), rng.uniform(0.5, 10.0)});
      qp.q[static_cast<std::size_t>(x(h + 1, c))] = rng.normal() * 10.0;
    }
    if (h > 0) {
      for (int c = 0; c < 2; ++c) {
        const double w = rng.uniform(0.1, 0.5);
        p.push_back({u(h - 1, c), u(h - 1, c), w});
        p.push_back({u(h, c), u(h, c), w});
        p.push_back({u(h - 1, c), u(h, c), -w});
        p.push_back({u(h, c), u(h - 1, c), -w});
      }
    }
  }
  for (int i = 0; i < slacks; ++i) p.push_back({i, i, rng.uniform(1.0, 10.0)});
  qp.p = math::CsrMatrix::from_triplets(n, n, p);

  enum Kind { kEquality, kBox, kLowerOnly };
  std::vector<math::Triplet> a;
  std::vector<Kind> kinds;
  auto next_row = [&](Kind k) {
    kinds.push_back(k);
    return static_cast<int>(kinds.size()) - 1;
  };
  for (int h = 0; h < H; ++h) {
    for (int i = 0; i < 4; ++i) {
      const int row = next_row(kEquality);
      a.push_back({row, x(h + 1, i), 1.0});
      if (h > 0)
        for (int j = 0; j < 4; ++j)
          if (i == j || rng.uniform() < 0.4)
            a.push_back({row, x(h, j), -(i == j ? 1.0 : rng.normal() * 0.2)});
      for (int j = 0; j < 2; ++j)
        if (rng.uniform() < 0.5) a.push_back({row, u(h, j), -rng.normal() * 0.2});
    }
  }
  for (int i = 0; i < n; ++i) a.push_back({next_row(kBox), i, 1.0});
  for (int i = 0; i < slacks; ++i) {
    const int h = 1 + static_cast<int>(rng.uniform() * H) % H;
    const int row = next_row(kLowerOnly);
    a.push_back({row, i, 1.0});
    for (int c = 0; c < 3; ++c) a.push_back({row, x(h, c), rng.normal()});
  }
  const int m = static_cast<int>(kinds.size());
  qp.a = math::CsrMatrix::from_triplets(m, n, a);

  // Bounds around a random point (slacks non-negative, controls in [-1, 1]).
  std::vector<double> point(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    point[static_cast<std::size_t>(i)] = i < slacks ? rng.uniform(0.0, 1.0) : rng.uniform(-0.8, 0.8);
  const std::vector<double> ap = qp.a.apply(point);
  for (int r = 0; r < m; ++r) {
    const double v = ap[static_cast<std::size_t>(r)];
    switch (kinds[static_cast<std::size_t>(r)]) {
      case kEquality:
        qp.l.push_back(v);
        qp.u.push_back(v);
        break;
      case kBox:
        qp.l.push_back(v - rng.uniform(0.2, 3.0));
        qp.u.push_back(v + rng.uniform(0.2, 3.0));
        break;
      case kLowerOnly:
        qp.l.push_back(v - rng.uniform(0.0, 1.0));
        qp.u.push_back(math::kQpInf);
        break;
    }
  }
  return qp;
}

struct StageCase {
  int horizon;
  int slacks;
};

class RandomStageQp : public ::testing::TestWithParam<StageCase> {};

TEST_P(RandomStageQp, MatchesDenseOracle) {
  const StageCase c = GetParam();
  ParityStats stats;
  const math::QpSettings settings = co::TrajOptConfig{}.qp;
  for (std::uint64_t seed = 1; seed <= 2; ++seed) {
    const math::QpProblem qp = random_stage_qp(c.horizon, c.slacks, seed * 31 + c.slacks);
    ASSERT_TRUE(qp.valid());
    const math::QpResult cold = expect_parity(qp, settings, nullptr, stats, "cold");
    // Warm start from a perturbed solution, as the SQP rounds do.
    std::vector<double> x0 = cold.x;
    for (double& v : x0) v += 0.01;
    expect_parity(qp, settings, &x0, stats, "warm");
  }
  stats.record();
}

INSTANTIATE_TEST_SUITE_P(Horizons, RandomStageQp,
                         ::testing::Values(StageCase{5, 0}, StageCase{5, 20},
                                           StageCase{15, 0}, StageCase{15, 60},
                                           StageCase{30, 0}, StageCase{30, 120},
                                           StageCase{30, 300}));

// ------------------------------------------------------------ edge paths

TEST(QpParityTest, UnconstrainedPathMatchesDenseOracle) {
  math::Rng rng(5);
  ParityStats stats;
  for (int trial = 0; trial < 5; ++trial) {
    const int n = 6 + trial * 3;
    std::vector<math::Triplet> p;
    for (int i = 0; i < n; ++i) {
      p.push_back({i, i, rng.uniform(1.0, 3.0)});
      if (i + 2 < n) {
        const double w = rng.normal() * 0.3;
        p.push_back({i, i + 2, w});
        p.push_back({i + 2, i, w});
      }
    }
    math::QpProblem qp;
    qp.p = math::CsrMatrix::from_triplets(n, n, p);
    for (int i = 0; i < n; ++i) qp.q.push_back(rng.normal());
    const math::QpResult r = expect_parity(qp, {}, nullptr, stats, "unconstrained");
    EXPECT_EQ(r.status, math::QpStatus::kSolved);
    EXPECT_EQ(r.iterations, 0);
  }
}

TEST(QpParityTest, SingularPivotIsRejectedByBoth) {
  // sigma = 0 and a variable that neither P nor A touches: its pivot is 0.
  math::QpSettings settings;
  settings.sigma = 0.0;
  ParityStats stats;
  math::QpProblem qp;
  qp.p = math::CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}});
  qp.q = {1.0, 1.0};
  qp.a = math::CsrMatrix::from_triplets(1, 2, {{0, 0, 1.0}});
  qp.l = {-1.0};
  qp.u = {1.0};
  EXPECT_EQ(expect_parity(qp, settings, nullptr, stats, "zero pivot").status,
            math::QpStatus::kSingularKkt);
  qp.a = math::CsrMatrix::from_dense(math::Matrix(0, 2));
  qp.l.clear();
  qp.u.clear();
  EXPECT_EQ(expect_parity(qp, settings, nullptr, stats, "zero pivot, m = 0").status,
            math::QpStatus::kSingularKkt);
}

TEST(QpParityTest, PivotThresholdIsTheDenseOne) {
  // Pivots just below and just above 1e-12.
  math::QpSettings settings;
  settings.sigma = 0.0;
  ParityStats stats;
  for (const double d : {5e-13, 5e-12}) {
    math::QpProblem qp;
    qp.p = math::CsrMatrix::from_triplets(2, 2, {{0, 0, 1.0}, {1, 1, d}});
    qp.q = {1.0, 0.0};
    const math::QpResult r = expect_parity(qp, settings, nullptr, stats, "threshold");
    EXPECT_EQ(r.status, d < 1e-12 ? math::QpStatus::kSingularKkt : math::QpStatus::kSolved);
  }
}

}  // namespace
}  // namespace icoil
