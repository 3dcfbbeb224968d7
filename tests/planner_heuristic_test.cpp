// Admissibility and determinism of the cached planner heuristics.
//
// The planner's speed rests on two precomputed lower bounds: the
// Reeds-Shepp table (RsHeuristicLut) and the obstacle-aware Dijkstra
// cost-to-go (DijkstraCostMap). Each is tested directly against the exact
// quantity it claims to lower-bound, and the planner is checked to be
// bit-deterministic under every heuristic mode — the bench's speedup and
// parity numbers are only meaningful if repeated runs do identical work.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "co/heuristic.hpp"
#include "co/hybrid_astar.hpp"
#include "co/planner.hpp"
#include "co/reeds_shepp.hpp"
#include "co/refpath.hpp"
#include "core/controller_registry.hpp"
#include "geom/obb.hpp"
#include "mathkit/rng.hpp"
#include "sim/evaluator.hpp"
#include "vehicle/params.hpp"
#include "world/distance_field.hpp"
#include "world/scenario.hpp"

namespace icoil::co {
namespace {

// Small spec so the eager oracle below builds in well under a second;
// admissibility is a per-entry property, so a small lattice exercises the
// same construction.
RsLutSpec small_spec() {
  RsLutSpec spec;
  spec.radius = 4.0;
  spec.xy_resolution = 0.7;
  spec.extent = 6.0;
  spec.heading_bins = 24;
  return spec;
}

// ------------------------------------------------------- RsHeuristicLut

TEST(RsHeuristicLutTest, LowerBoundsExactReedsShepp) {
  const RsHeuristicLut lut(small_spec());
  math::Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    const double dx = rng.uniform(-6.0, 6.0);
    const double dy = rng.uniform(-6.0, 6.0);
    const double dth = rng.uniform(-geom::kPi, geom::kPi);
    EXPECT_LE(lut.value_rel(dx, dy, dth), lut.exact_rel(dx, dy, dth) + 1e-9)
        << "dx=" << dx << " dy=" << dy << " dth=" << dth;
  }
}

TEST(RsHeuristicLutTest, NonNegativeAndZeroOffLattice) {
  const RsHeuristicLut lut(small_spec());
  EXPECT_GE(lut.value_rel(3.0, -2.0, 1.0), 0.0);
  // Outside the lattice extent the table abstains; callers keep their
  // euclidean floor.
  EXPECT_EQ(lut.value_rel(100.0, 0.0, 0.0), 0.0);
  EXPECT_EQ(lut.value_rel(0.0, -50.0, 2.0), 0.0);
  // Offsets past the int range must not wrap back onto the lattice, and
  // non-finite inputs have no cell at all.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(lut.value_rel(1e300, 0.0, geom::kPi), 0.0);
  EXPECT_EQ(lut.value_rel(0.7 * 4294967296.0, 0.0, geom::kPi), 0.0);
  EXPECT_EQ(lut.value_rel(0.0, -0.7 * 4294967296.0, geom::kPi), 0.0);
  EXPECT_EQ(lut.value_rel(nan, 0.0, geom::kPi), 0.0);
  EXPECT_EQ(lut.value_rel(0.0, inf, geom::kPi), 0.0);
  EXPECT_EQ(lut.value_rel(3.0, 2.0, nan), 0.0);
  EXPECT_EQ(lut.value_rel(3.0, 2.0, -inf), 0.0);
  // The centre cell itself still answers.
  EXPECT_GT(lut.value_rel(0.0, 0.0, geom::kPi), 0.0);
}

// The table as an up-front build computes it: four sample lattices
// (centres / xy-corners, at bin headings / bin faces) min-combined over each
// entry's 15-point stencil. Entries are laid out like RsHeuristicLut's
// (x-major within a heading slab) and hold raw stencil minima.
std::vector<float> eager_table(const RsLutSpec& spec) {
  const int cells =
      static_cast<int>(std::ceil(spec.extent / spec.xy_resolution));
  const int nx = 2 * cells + 1;
  const int ncor = nx + 1;
  const int bins = spec.heading_bins;
  const double res = spec.xy_resolution;
  const double hbin = geom::kTwoPi / bins;
  const ReedsShepp rs(spec.radius);
  const auto solve = [&](double dx, double dy, double dtheta) {
    const auto path = rs.shortest_path({dx, dy, dtheta}, {0.0, 0.0, 0.0});
    return path ? static_cast<float>(rs.length(*path)) : 0.0f;
  };
  // Flat index of (ix, iy) in heading slab `it` of an n-by-n lattice.
  const auto flat = [](int n, int it, int iy, int ix) {
    return (static_cast<std::size_t>(it) * n + iy) * n + ix;
  };
  const std::size_t cell_n = static_cast<std::size_t>(nx) * nx * bins;
  const std::size_t cor_n = static_cast<std::size_t>(ncor) * ncor * bins;
  std::vector<float> cen_c(cell_n), cen_f(cell_n);
  std::vector<float> cor_c(cor_n), cor_f(cor_n);
  for (int it = 0; it < bins; ++it) {
    const double tc = it * hbin;
    const double tf = (it - 0.5) * hbin;
    for (int iy = 0; iy < ncor; ++iy) {
      const double yc = (iy - cells) * res;
      const double yf = yc - 0.5 * res;
      for (int ix = 0; ix < ncor; ++ix) {
        const double xc = (ix - cells) * res;
        const double xf = xc - 0.5 * res;
        const std::size_t ci = flat(ncor, it, iy, ix);
        cor_c[ci] = solve(xf, yf, tc);
        cor_f[ci] = solve(xf, yf, tf);
        if (ix < nx && iy < nx) {
          const std::size_t ei = flat(nx, it, iy, ix);
          cen_c[ei] = solve(xc, yc, tc);
          cen_f[ei] = solve(xc, yc, tf);
        }
      }
    }
  }
  std::vector<float> table(cell_n);
  for (int it = 0; it < bins; ++it) {
    const int it_up = (it + 1) % bins;
    for (int iy = 0; iy < nx; ++iy) {
      for (int ix = 0; ix < nx; ++ix) {
        const auto cor = [&](const std::vector<float>& lat, int slab) {
          const std::size_t lo = flat(ncor, slab, iy, ix);
          const std::size_t hi = flat(ncor, slab, iy + 1, ix);
          return std::min(std::min(lat[lo], lat[lo + 1]),
                          std::min(lat[hi], lat[hi + 1]));
        };
        const std::size_t ei = flat(nx, it, iy, ix);
        const std::size_t ei_up = flat(nx, it_up, iy, ix);
        float v = std::min(cen_c[ei], std::min(cen_f[ei], cen_f[ei_up]));
        v = std::min(v, cor(cor_c, it));
        v = std::min(v, std::min(cor(cor_f, it), cor(cor_f, it_up)));
        table[ei] = v;
      }
    }
  }
  return table;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(RsHeuristicLutTest, LazyFillBitIdenticalToEagerBuild) {
  const RsHeuristicLut lut(small_spec());
  const RsLutSpec& spec = lut.spec();
  const std::vector<float> eager = eager_table(spec);
  const int cells =
      static_cast<int>(std::ceil(spec.extent / spec.xy_resolution));
  const int nx = 2 * cells + 1;
  const double hbin = geom::kTwoPi / spec.heading_bins;
  ASSERT_EQ(eager.size(),
            static_cast<std::size_t>(nx) * nx * spec.heading_bins);

  // Every lattice point, read in shuffled order so a fill never relies on
  // its neighbours having been filled first.
  std::vector<std::size_t> order(eager.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937_64(42));
  for (const std::size_t e : order) {
    const int ix = static_cast<int>(e % nx);
    const int iy = static_cast<int>(e / nx % nx);
    const int it = static_cast<int>(e / (static_cast<std::size_t>(nx) * nx));
    const double dx = (ix - cells) * spec.xy_resolution;
    const double dy = (iy - cells) * spec.xy_resolution;
    const double want =
        std::max(0.0, static_cast<double>(eager[e]) - lut.slack());
    const double got = lut.value_rel(dx, dy, it * hbin);
    ASSERT_EQ(bits(got), bits(want))
        << "entry (" << ix << "," << iy << "," << it << "): " << got
        << " vs eager " << want;
  }
}

TEST(RsHeuristicLutTest, ConcurrentFirstReadsMatchSingleThreaded) {
  math::Rng rng(2024);
  struct Query {
    double dx, dy, dth;
  };
  std::vector<Query> queries(2000);
  for (Query& q : queries)
    q = {rng.uniform(-7.0, 7.0), rng.uniform(-7.0, 7.0),
         rng.uniform(-geom::kPi, geom::kPi)};

  const RsHeuristicLut reference(small_spec());
  std::vector<double> want;
  want.reserve(queries.size());
  for (const Query& q : queries)
    want.push_back(reference.value_rel(q.dx, q.dy, q.dth));

  // Four threads race through every query of one fresh table, each from a
  // different starting offset, so many entries see concurrent first reads.
  constexpr int kThreads = 4;
  const RsHeuristicLut shared_lut(small_spec());
  std::vector<std::vector<double>> got(kThreads,
                                       std::vector<double>(queries.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      const std::size_t n = queries.size();
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = (k + t * n / kThreads) % n;
        got[t][i] =
            shared_lut.value_rel(queries[i].dx, queries[i].dy, queries[i].dth);
      }
    });
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    for (std::size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(bits(got[t][i]), bits(want[i]))
          << "thread " << t << " query " << i;
}

TEST(RsHeuristicLutTest, SharedCacheReturnsSameTable) {
  const auto a = RsHeuristicLut::shared(small_spec());
  const auto b = RsHeuristicLut::shared(small_spec());
  EXPECT_EQ(a.get(), b.get());
  RsLutSpec other = small_spec();
  other.heading_bins = 12;
  const auto c = RsHeuristicLut::shared(other);
  EXPECT_NE(a.get(), c.get());
}

// ------------------------------------------------------- DijkstraCostMap

// Double-precision reference Dijkstra over the costmap's own blocked grid,
// from its own goal cell (the unique cell with cost exactly 0).
std::vector<double> brute_force_octile(const DijkstraCostMap& cm) {
  const int w = cm.width(), h = cm.height();
  const double res = cm.resolution();
  std::vector<double> dist(static_cast<std::size_t>(w) * h,
                           std::numeric_limits<double>::infinity());
  int goal = -1;
  for (int iy = 0; iy < h && goal < 0; ++iy)
    for (int ix = 0; ix < w && goal < 0; ++ix)
      if (cm.cell_cost(ix, iy) == 0.0) goal = iy * w + ix;
  if (goal < 0) return dist;

  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> open;
  dist[static_cast<std::size_t>(goal)] = 0.0;
  open.push({0.0, goal});
  while (!open.empty()) {
    const auto [d, idx] = open.top();
    open.pop();
    if (d > dist[static_cast<std::size_t>(idx)]) continue;
    const int ix = idx % w, iy = idx / w;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        if (dx == 0 && dy == 0) continue;
        const int nx = ix + dx, ny = iy + dy;
        if (nx < 0 || nx >= w || ny < 0 || ny >= h) continue;
        if (cm.blocked(nx, ny)) continue;
        const double nd =
            d + (dx != 0 && dy != 0 ? res * std::sqrt(2.0) : res);
        auto& slot = dist[static_cast<std::size_t>(ny) * w + nx];
        if (nd < slot) {
          slot = nd;
          open.push({nd, ny * w + nx});
        }
      }
    }
  }
  return dist;
}

TEST(DijkstraCostMapTest, MatchesBruteForceOctileDistance) {
  // A wall with one gap forces genuine detours.
  const geom::Aabb bounds{{0.0, 0.0}, {20.0, 16.0}};
  const std::vector<geom::Obb> obstacles = {
      {{10.0, 5.0}, 0.0, 0.5, 5.0},   // vertical wall, gap above y = 10
      {{5.0, 12.0}, 0.0, 2.0, 0.5},   // horizontal slab in the upper half
  };
  const world::DistanceField field(bounds, obstacles, 0.4);
  const DijkstraCostMap cm(field, {17.0, 3.0}, 1.0);
  ASSERT_TRUE(cm.goal_reached());

  const std::vector<double> brute = brute_force_octile(cm);
  int reachable = 0;
  for (int iy = 0; iy < cm.height(); ++iy) {
    for (int ix = 0; ix < cm.width(); ++ix) {
      const double got = cm.cell_cost(ix, iy);
      const double want = brute[static_cast<std::size_t>(iy) * cm.width() + ix];
      if (got < 0.0) {
        EXPECT_TRUE(cm.blocked(ix, iy) || std::isinf(want));
        continue;
      }
      ASSERT_FALSE(std::isinf(want)) << "cell " << ix << "," << iy;
      ++reachable;
      // The sweep runs on integer ticks (58 / 82 per straight / diagonal
      // step), which undershoots sqrt(2) by < 0.04% — never overshoots.
      EXPECT_LE(got, want + 1e-5) << "cell " << ix << "," << iy;
      EXPECT_GE(got, want * 0.999 - 1e-5) << "cell " << ix << "," << iy;
    }
  }
  EXPECT_GT(reachable, 100);  // the map is mostly traversable
}

TEST(DijkstraCostMapTest, LowerBoundsEuclideanInEmptyMap) {
  const geom::Aabb bounds{{0.0, 0.0}, {20.0, 16.0}};
  const world::DistanceField field(bounds, {}, 0.4);
  const geom::Vec2 goal{12.0, 9.0};
  const DijkstraCostMap cm(field, goal, 1.0);
  ASSERT_TRUE(cm.goal_reached());
  math::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const geom::Vec2 p{rng.uniform(0.5, 19.5), rng.uniform(0.5, 15.5)};
    const double d = cm.cost_to_go(p);
    if (d < 0.0) continue;  // outside / unknown: callers fall back, never prune
    EXPECT_LE(d, geom::distance(p, goal) + 1e-6) << p.x << "," << p.y;
  }
}

TEST(DijkstraCostMapTest, SeesDetourAroundWall) {
  // Start and goal on opposite sides of a wall whose only gap is far above:
  // the euclidean bound is blind to it, the Dijkstra bound is not.
  const geom::Aabb bounds{{0.0, 0.0}, {20.0, 16.0}};
  const std::vector<geom::Obb> obstacles = {{{10.0, 6.0}, 0.0, 0.5, 6.0}};
  const world::DistanceField field(bounds, obstacles, 0.4);
  const geom::Vec2 goal{16.0, 2.0};
  const DijkstraCostMap cm(field, goal, 1.0);
  ASSERT_TRUE(cm.goal_reached());
  const geom::Vec2 p{4.0, 2.0};
  const double d = cm.cost_to_go(p);
  ASSERT_GE(d, 0.0);
  // Straight-line distance is 12 m; the detour over the wall (top at y = 12)
  // is at least 10 m longer even before deflation.
  EXPECT_GT(d, geom::distance(p, goal) + 5.0);
}

// ------------------------------------------------------------- planner

world::Scenario crowded_scenario(std::uint64_t seed) {
  world::ScenarioOptions opts;
  opts.generator = "crowded_lot";
  return world::make_scenario(opts, seed);
}

struct PlanProblem {
  geom::Pose2 start, goal;
  std::vector<geom::Obb> obstacles;
  geom::Aabb bounds;
};

PlanProblem static_problem(const world::Scenario& s) {
  PlanProblem p;
  p.start = s.start_pose;
  p.goal = s.map.goal_pose;
  p.bounds = s.map.bounds;
  for (const world::Obstacle& o : s.obstacles)
    if (!o.dynamic()) p.obstacles.push_back(o.shape);
  return p;
}

TEST(PlannerHeuristicTest, DeterministicAcrossRepeatedRuns) {
  const PlanProblem p = static_problem(crowded_scenario(301));
  const vehicle::VehicleParams params;
  for (const HeuristicMode mode :
       {HeuristicMode::kEuclidRs, HeuristicMode::kLut, HeuristicMode::kDijkstra,
        HeuristicMode::kMax}) {
    HybridAStarConfig config;
    config.heuristic = mode;
    const HybridAStar astar(config, params);
    PlanStats a_stats, b_stats;
    const auto a = astar.plan(p.start, p.goal, p.obstacles, p.bounds, nullptr,
                              nullptr, &a_stats);
    const auto b = astar.plan(p.start, p.goal, p.obstacles, p.bounds, nullptr,
                              nullptr, &b_stats);
    ASSERT_EQ(a.has_value(), b.has_value()) << to_string(mode);
    EXPECT_EQ(a_stats.expansions, b_stats.expansions) << to_string(mode);
    EXPECT_EQ(a_stats.nodes, b_stats.nodes) << to_string(mode);
    EXPECT_EQ(a_stats.rs_shot_attempts, b_stats.rs_shot_attempts)
        << to_string(mode);
    if (!a.has_value()) continue;
    ASSERT_EQ(a->size(), b->size()) << to_string(mode);
    for (std::size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].pose.position.x, (*b)[i].pose.position.x);
      EXPECT_EQ((*a)[i].pose.position.y, (*b)[i].pose.position.y);
      EXPECT_EQ((*a)[i].pose.heading, (*b)[i].pose.heading);
    }
  }
}

TEST(PlannerHeuristicTest, SuiteBitIdenticalAcrossThreadCountsPerMode) {
  // Suite-level determinism: CO-backed episodes (which plan through hybrid
  // A*) must be bit-identical across worker counts under every heuristic
  // mode — the caches are per-plan, or shared RS tables whose entries fill
  // with the same bits whichever thread reads them first.
  sim::ScenarioSuite suite;
  sim::SuiteCell crowded;
  crowded.generator = "crowded_lot";
  crowded.difficulty = world::Difficulty::kNormal;
  crowded.time_limit = 2.0;
  suite.add(crowded);

  for (const HeuristicMode mode :
       {HeuristicMode::kEuclidRs, HeuristicMode::kLut, HeuristicMode::kDijkstra,
        HeuristicMode::kMax}) {
    CoPlannerConfig co_config;
    co_config.astar.heuristic = mode;
    core::ControllerBuildArgs args;
    args.co = &co_config;
    const auto factory =
        core::ControllerRegistry::instance().factory("co", args);

    std::vector<std::vector<sim::SuiteCellEpisodes>> runs;
    for (int threads : {1, 4}) {
      sim::EvalConfig cfg;
      cfg.episodes = 2;
      cfg.num_threads = threads;
      cfg.thread_cap = 4;
      runs.push_back(sim::Evaluator(cfg).evaluate_suite_detailed(factory, suite));
    }
    ASSERT_EQ(runs[0].size(), runs[1].size());
    for (std::size_t c = 0; c < runs[0].size(); ++c) {
      ASSERT_EQ(runs[0][c].episodes.size(), runs[1][c].episodes.size());
      for (std::size_t e = 0; e < runs[0][c].episodes.size(); ++e) {
        const sim::EpisodeResult& a = runs[0][c].episodes[e];
        const sim::EpisodeResult& b = runs[1][c].episodes[e];
        EXPECT_EQ(a.outcome, b.outcome) << to_string(mode) << " ep " << e;
        EXPECT_EQ(a.frames, b.frames) << to_string(mode) << " ep " << e;
        EXPECT_EQ(a.park_time, b.park_time) << to_string(mode) << " ep " << e;
        EXPECT_EQ(a.min_clearance, b.min_clearance)
            << to_string(mode) << " ep " << e;
      }
    }
  }
}

TEST(PlannerHeuristicTest, HolonomicBoundNeverExceedsReturnedPathLength) {
  // The Dijkstra term lower-bounds the arc length of ANY collision-free
  // path to the goal, so in particular the one the planner returns. (The
  // RS terms use rs_radius_factor > 1 — an intentional inflation the seed
  // planner also used — so their strict comparator is the exact RS solve,
  // covered by RsHeuristicLutTest above, not the returned path.)
  const vehicle::VehicleParams params;
  HybridAStarConfig config;
  config.heuristic = HeuristicMode::kMax;
  const HybridAStar astar(config, params);
  for (std::uint64_t seed : {300u, 301u, 302u, 303u}) {
    const PlanProblem p = static_problem(crowded_scenario(seed));
    PlanStats stats;
    const auto path = astar.plan(p.start, p.goal, p.obstacles, p.bounds,
                                 nullptr, nullptr, &stats);
    ASSERT_TRUE(path.has_value()) << "seed " << seed;

    const double axle_disc =
        std::min(params.width / 2.0,
                 params.length / 2.0 - std::abs(params.center_offset)) +
        config.obstacle_margin;
    const world::DistanceField field(p.bounds, p.obstacles,
                                     config.costmap_resolution);
    const DijkstraCostMap cm(field, p.goal.position, axle_disc);
    const double bound = cm.cost_to_go(p.start.position);
    if (bound < 0.0) continue;  // start outside the known region: no claim
    EXPECT_LE(bound, path->length() + 1e-6) << "seed " << seed;
    // The reported solution cost includes penalty terms on top of length.
    EXPECT_GE(stats.solution_cost, path->length() - 1e-6) << "seed " << seed;
  }
}

}  // namespace
}  // namespace icoil::co
