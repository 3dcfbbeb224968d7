#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/broadphase.hpp"
#include "mathkit/rng.hpp"
#include "world/distance_field.hpp"
#include "world/generators/registry.hpp"
#include "world/scenario.hpp"

namespace icoil::world {
namespace {

// -------------------------------------------------------------- EDT goldens

/// Brute-force reference: distance from each cell centre to the nearest
/// occupied cell centre, in metres.
std::vector<double> brute_force_edt(int width, int height, double resolution,
                                    const std::vector<std::uint8_t>& occ) {
  std::vector<double> out(static_cast<std::size_t>(width) * height,
                          geom::kMaxClearance);
  for (int y = 0; y < height; ++y)
    for (int x = 0; x < width; ++x) {
      double best_sq = -1.0;
      for (int oy = 0; oy < height; ++oy)
        for (int ox = 0; ox < width; ++ox) {
          if (occ[static_cast<std::size_t>(oy) * width + ox] == 0) continue;
          const double dx = x - ox, dy = y - oy;
          const double sq = dx * dx + dy * dy;
          if (best_sq < 0.0 || sq < best_sq) best_sq = sq;
        }
      if (best_sq >= 0.0)
        out[static_cast<std::size_t>(y) * width + x] =
            std::sqrt(best_sq) * resolution;
    }
  return out;
}

TEST(DistanceFieldTest, EdtGoldenSingleOccupiedCell) {
  const int w = 7, h = 5;
  std::vector<std::uint8_t> occ(static_cast<std::size_t>(w) * h, 0);
  occ[2 * w + 3] = 1;  // (ix=3, iy=2)
  const DistanceField field =
      DistanceField::from_raster({0.0, 0.0}, w, h, 1.0, occ);
  EXPECT_DOUBLE_EQ(field.cell_distance(3, 2), 0.0);
  EXPECT_DOUBLE_EQ(field.cell_distance(4, 2), 1.0);
  EXPECT_DOUBLE_EQ(field.cell_distance(3, 4), 2.0);
  // EDT values are stored as float, so irrational distances round there.
  EXPECT_NEAR(field.cell_distance(0, 0), std::sqrt(9.0 + 4.0), 1e-6);
  EXPECT_NEAR(field.cell_distance(6, 4), std::sqrt(9.0 + 4.0), 1e-6);
}

TEST(DistanceFieldTest, EdtMatchesBruteForceOnRandomRasters) {
  math::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const int w = rng.uniform_int(1, 24);
    const int h = rng.uniform_int(1, 24);
    const double res = rng.uniform(0.05, 0.5);
    std::vector<std::uint8_t> occ(static_cast<std::size_t>(w) * h, 0);
    for (auto& c : occ) c = rng.uniform() < 0.15 ? 1 : 0;
    const DistanceField field =
        DistanceField::from_raster({-3.0, 2.0}, w, h, res, occ);
    const std::vector<double> expected = brute_force_edt(w, h, res, occ);
    for (int y = 0; y < h; ++y)
      for (int x = 0; x < w; ++x)
        EXPECT_NEAR(field.cell_distance(x, y),
                    expected[static_cast<std::size_t>(y) * w + x], 1e-6)
            << "trial " << trial << " cell (" << x << "," << y << ")";
  }
}

TEST(DistanceFieldTest, ShortRasterPadsWithFreeCells) {
  // 5 of 16 cells given, one occupied: the rest count as free.
  const std::vector<std::uint8_t> given = {0, 0, 1, 0, 0};
  std::vector<std::uint8_t> padded(16, 0);
  std::copy(given.begin(), given.end(), padded.begin());
  const DistanceField field =
      DistanceField::from_raster({0.0, 0.0}, 4, 4, 0.5, given);
  const std::vector<double> expected = brute_force_edt(4, 4, 0.5, padded);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      EXPECT_NEAR(field.cell_distance(x, y),
                  expected[static_cast<std::size_t>(y) * 4 + x], 1e-6)
          << "cell (" << x << "," << y << ")";
}

TEST(DistanceFieldTest, EmptyRasterReportsMaxClearance) {
  const DistanceField field = DistanceField::from_raster(
      {0.0, 0.0}, 4, 4, 0.5, std::vector<std::uint8_t>(16, 0));
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      EXPECT_DOUBLE_EQ(field.cell_distance(x, y), geom::kMaxClearance)
          << "cell (" << x << "," << y << ")";
}

// ------------------------------------------------- conservativeness property

/// Exact distance from `p` to the nearest box (0 inside one).
double analytic_point_distance(geom::Vec2 p,
                               const std::vector<geom::Obb>& statics) {
  double best = geom::kMaxClearance;
  for (const geom::Obb& box : statics) best = std::min(best, box.distance_to(p));
  return best;
}

/// The contract co::DijkstraCostMap's admissibility rests on, across every
/// registered generator family, at a fine raster and at the planner's
/// cost-map resolution: for any point p in cell c,
/// cell_distance(c) - conservative_slack() never exceeds the analytic
/// point-to-statics distance. The bound is also tight: the true distance is
/// at most cell_distance(c) + half a cell diagonal (p to c's centre) + one
/// cell (a marked centre to its box, at the inflated box's corner), so with
/// the contract's sqrt(2) * resolution slack the bound sits within
/// (1.5 * sqrt(2) + 1) * resolution of the truth. A raster that
/// over-dilates, or a slack that grows, fails too.
TEST(DistanceFieldTest, CellBoundIsConservativeAcrossGenerators) {
  for (const std::string& generator : GeneratorRegistry::instance().names()) {
    ScenarioOptions opt;
    opt.generator = generator;
    opt.difficulty = Difficulty::kNormal;
    const Scenario sc = make_scenario(opt, 11);
    std::vector<geom::Obb> statics;
    for (const Obstacle& o : sc.obstacles)
      if (!o.dynamic()) statics.push_back(o.shape);
    ASSERT_FALSE(statics.empty()) << generator;

    for (const double resolution : {0.15, 0.4}) {
      const DistanceField field(sc.map.bounds, statics, resolution);
      const double slack = field.conservative_slack();
      const double tight = (1.5 * std::sqrt(2.0) + 1.0) * resolution;
      math::Rng rng(17);
      // Uniform points over the lot, plus points within 1 m of each box
      // where the bound is tightest.
      std::vector<geom::Vec2> points;
      const geom::Aabb& b = sc.map.bounds;
      for (int i = 0; i < 400; ++i)
        points.push_back({rng.uniform(b.min.x, b.max.x),
                          rng.uniform(b.min.y, b.max.y)});
      for (const geom::Obb& box : statics) {
        const geom::Aabb near = box.aabb().inflated(1.0);
        for (int i = 0; i < 20; ++i)
          points.push_back({rng.uniform(near.min.x, near.max.x),
                            rng.uniform(near.min.y, near.max.y)});
      }
      for (const geom::Vec2& p : points) {
        const int ix = static_cast<int>(
            std::floor((p.x - field.origin().x) / field.resolution()));
        const int iy = static_cast<int>(
            std::floor((p.y - field.origin().y) / field.resolution()));
        if (ix < 0 || ix >= field.width() || iy < 0 || iy >= field.height())
          continue;
        const double raw = field.cell_distance(ix, iy);
        const double truth = analytic_point_distance(p, statics);
        // Float storage of the EDT is the only margin.
        EXPECT_LE(raw - slack, truth + 1e-5)
            << generator << " res " << resolution << " point (" << p.x
            << ", " << p.y << ")";
        EXPECT_GE(raw - slack, truth - tight - 1e-5)
            << generator << " res " << resolution << " point (" << p.x
            << ", " << p.y << ")";
      }
    }
  }
}

}  // namespace
}  // namespace icoil::world
