// Micro-benchmarks of the substrates: the ADMM QP solver (sparse, and the
// dense reference it replaced), Reeds-Shepp word search, hybrid A*, the BEV
// rasterizer and the conv forward pass. These quantify where a CO frame's
// milliseconds go.

#include <benchmark/benchmark.h>

#include <array>
#include <string>
#include <vector>

#include "../tests/dense_qp_oracle.hpp"
#include "co/heuristic.hpp"
#include "co/hybrid_astar.hpp"
#include "co/reeds_shepp.hpp"
#include "co/trajopt.hpp"
#include "sim/suite.hpp"
#include "il/batch_inferencer.hpp"
#include "il/observation.hpp"
#include "il/policy.hpp"
#include "mathkit/gemm.hpp"
#include "mathkit/qp.hpp"
#include "mathkit/rng.hpp"
#include "nn/layers.hpp"
#include "sensing/bev.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace {

using namespace icoil;

// A trajectory-optimization QP (H = 15) as TrajOpt::build_qp lays it out:
// a car at 1 m/s tracking a straight line, with (`obstacle`) or without a
// parked box beside the path whose collision rows add slack variables.
co::TrajOptQp trajopt_qp(bool obstacle) {
  const co::TrajOptConfig config;
  const co::TrajOpt opt(config, vehicle::VehicleParams{});
  vehicle::State s;
  s.speed = 1.0;
  std::vector<co::TargetPoint> targets;
  for (int h = 1; h <= config.horizon; ++h)
    targets.push_back({{1.0 * config.dt * h, 0.3, 0.0}, 1.0});
  std::vector<co::PredictedObstacle> obstacles;
  if (obstacle) obstacles.push_back({{{2.5, 1.8}, 0.0, 2.2, 0.9}, {}});
  return opt.build_qp(s, targets, obstacles, opt.initial_nominal(s, nullptr));
}

void label_qp(benchmark::State& state, const co::TrajOptQp& qp, int iterations) {
  state.SetLabel("n=" + std::to_string(qp.problem.num_vars()) +
                 " m=" + std::to_string(qp.problem.num_constraints()) +
                 " iters=" + std::to_string(iterations));
}

// The sparse solver of mathkit/qp.hpp on the QP above (arg: obstacle?).
void BM_QpTrajoptSparse(benchmark::State& state) {
  const co::TrajOptQp qp = trajopt_qp(state.range(0) != 0);
  const math::QpSolver solver(co::TrajOptConfig{}.qp);
  int iterations = 0;
  for (auto _ : state) {
    const math::QpResult r = solver.solve(qp.problem);
    iterations = r.iterations;
    benchmark::DoNotOptimize(r.x.data());
  }
  label_qp(state, qp, iterations);
}
BENCHMARK(BM_QpTrajoptSparse)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

// The same QPs through the dense reference solver the sparse one replaced
// (tests/dense_qp_oracle.hpp): same iterates, dense P, A and LDLT.
void BM_QpTrajoptDense(benchmark::State& state) {
  const co::TrajOptQp qp = trajopt_qp(state.range(0) != 0);
  const math::QpSettings settings = co::TrajOptConfig{}.qp;
  int iterations = 0;
  for (auto _ : state) {
    const math::QpResult r = oracle::dense_qp_solve(qp.problem, settings);
    iterations = r.iterations;
    benchmark::DoNotOptimize(r.x.data());
  }
  label_qp(state, qp, iterations);
}
BENCHMARK(BM_QpTrajoptDense)->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void BM_ReedsSheppShortest(benchmark::State& state) {
  const co::ReedsShepp rs(3.5);
  math::Rng rng(7);
  for (auto _ : state) {
    const geom::Pose2 to{rng.uniform(-10, 10), rng.uniform(-10, 10),
                         rng.uniform(-3, 3)};
    benchmark::DoNotOptimize(rs.shortest_path({0, 0, 0}, to));
  }
}
BENCHMARK(BM_ReedsSheppShortest)->Unit(benchmark::kMicrosecond);

void BM_HybridAStarPlan(benchmark::State& state) {
  world::ScenarioOptions options;
  options.difficulty = world::Difficulty::kEasy;
  const world::Scenario sc = world::make_scenario(options, 500);
  std::vector<geom::Obb> obstacles;
  for (const auto& o : sc.obstacles)
    if (!o.dynamic()) obstacles.push_back(o.shape);
  const co::HybridAStar astar(co::HybridAStarConfig{}, vehicle::VehicleParams{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(astar.plan(sc.start_pose, sc.map.goal_pose,
                                        obstacles, sc.map.bounds));
  }
}
BENCHMARK(BM_HybridAStarPlan)->Unit(benchmark::kMillisecond);

// --- Planner heuristic substrates ---------------------------------------
// BM_RsLutValue vs BM_ReedsSheppShortest is the core trade of the cached
// heuristic: a table read (tens of ns) replacing a full RS word search
// (µs) per evaluation. BM_DijkstraCostMapBuild is the per-plan cost the
// obstacle-aware term adds before the first expansion.

void BM_RsLutValue(benchmark::State& state) {
  // Times reads of filled entries: the table fills an entry on its first
  // read (15 RS solves), so a fixed query pool is read once up front.
  const auto lut = co::RsHeuristicLut::shared({});
  math::Rng rng(11);
  std::vector<std::array<double, 3>> queries(4096);
  for (auto& q : queries) {
    q = {rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(-3.1, 3.1)};
    benchmark::DoNotOptimize(lut->value_rel(q[0], q[1], q[2]));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& q = queries[i++ % queries.size()];
    benchmark::DoNotOptimize(lut->value_rel(q[0], q[1], q[2]));
  }
}
BENCHMARK(BM_RsLutValue)->Unit(benchmark::kNanosecond);

void BM_DijkstraCostMapBuild(benchmark::State& state) {
  sim::SuiteCell cell;
  cell.generator = "crowded_lot";
  cell.difficulty = world::Difficulty::kNormal;
  cell.params.set("density", static_cast<double>(state.range(0)));
  const world::Scenario sc = world::make_scenario(cell.options(), 300);
  std::vector<geom::Obb> obstacles;
  for (const auto& o : sc.obstacles)
    if (!o.dynamic()) obstacles.push_back(o.shape);
  const co::HybridAStarConfig config;
  const world::DistanceField field(sc.map.bounds, obstacles,
                                   config.costmap_resolution);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        co::DijkstraCostMap(field, sc.map.goal_pose.position, 1.0));
  }
}
BENCHMARK(BM_DijkstraCostMapBuild)->Arg(1)->Arg(4)->Unit(benchmark::kMicrosecond);

// The full search under each heuristic mode (0 = euclid-rs, 1 = lut,
// 2 = dijkstra, 3 = max) on the dense crowded_lot cell — the ablation the
// planner bench runs, reduced to one trackable number per mode.
void BM_HybridAStarHeuristic(benchmark::State& state) {
  sim::SuiteCell cell;
  cell.generator = "crowded_lot";
  cell.difficulty = world::Difficulty::kNormal;
  cell.params.set("density", 4.0);
  const world::Scenario sc = world::make_scenario(cell.options(), 300);
  std::vector<geom::Obb> obstacles;
  for (const auto& o : sc.obstacles)
    if (!o.dynamic()) obstacles.push_back(o.shape);
  co::HybridAStarConfig config;
  config.heuristic = static_cast<co::HeuristicMode>(state.range(0));
  state.SetLabel(co::to_string(config.heuristic));
  const world::DistanceField field(sc.map.bounds, obstacles);
  const co::HybridAStar astar(config, vehicle::VehicleParams{});
  // Fill the LUT entries this plan reads outside the timed loop.
  (void)astar.plan(sc.start_pose, sc.map.goal_pose, obstacles, sc.map.bounds,
                   nullptr, &field);
  for (auto _ : state) {
    benchmark::DoNotOptimize(astar.plan(sc.start_pose, sc.map.goal_pose,
                                        obstacles, sc.map.bounds, nullptr,
                                        &field));
  }
}
BENCHMARK(BM_HybridAStarHeuristic)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

// Static clearance through both collision backends at growing obstacle
// count: the analytic OBB narrow phase scans every box, the grid backend
// answers from the distance field in O(1) outside its conservative band.
void BM_Clearance(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0));
  const bool use_grid = state.range(1) != 0;
  world::ScenarioOptions options;
  options.generator = "crowded_lot";
  options.difficulty = world::Difficulty::kNormal;
  options.params.set("density", density);
  const world::Scenario sc = world::make_scenario(options, 7);
  const world::World world{
      sc, {use_grid ? world::CollisionBackend::kGrid
                    : world::CollisionBackend::kAnalytic,
           world::DistanceField::kDefaultResolution}};
  const vehicle::BicycleModel model{vehicle::VehicleParams{}};
  math::Rng rng(99);
  std::vector<geom::Obb> fps;
  for (int i = 0; i < 512; ++i) {
    const geom::Aabb& b = sc.map.bounds;
    fps.push_back(model.footprint(geom::Pose2{
        rng.uniform(b.min.x, b.max.x), rng.uniform(b.min.y, b.max.y),
        rng.uniform(0.0, geom::kTwoPi)}));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(world.static_clearance(fps[i]));
    i = (i + 1) % fps.size();
  }
}
BENCHMARK(BM_Clearance)
    ->ArgsProduct({{1, 4, 10}, {0, 1}})  // {density, grid?}
    ->Unit(benchmark::kNanosecond);

void BM_BevRasterize(benchmark::State& state) {
  world::ScenarioOptions options;
  options.difficulty = world::Difficulty::kNormal;
  const world::World world{world::make_scenario(options, 5)};
  const sense::BevRasterizer raster(
      {static_cast<int>(state.range(0)), 19.2});
  for (auto _ : state) {
    benchmark::DoNotOptimize(raster.render(world, {25.0, 8.0, 0.4}));
  }
}
BENCHMARK(BM_BevRasterize)->Arg(32)->Arg(48)->Arg(64)->Unit(benchmark::kMicrosecond);

// Square double GEMM through the dispatched (blocked, possibly SIMD) kernel
// vs the reference triple loop — the speedup here is what Matrix::operator*
// and the batched conv/dense forwards inherit.
void BM_GemmBlocked(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  math::Rng rng(11);
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> b(a.size()), c(a.size());
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    math::gemm_f64(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmBlocked)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_GemmNaive(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  math::Rng rng(11);
  std::vector<double> a(static_cast<std::size_t>(n) * n);
  std::vector<double> b(a.size()), c(a.size());
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    math::gemm_naive_f64(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmNaive)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_GemmBlockedF32(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  math::Rng rng(11);
  std::vector<float> a(static_cast<std::size_t>(n) * n);
  std::vector<float> b(a.size()), c(a.size());
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (auto _ : state) {
    math::gemm_f32(n, n, n, a.data(), n, b.data(), n, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOPS"] = benchmark::Counter(
      2.0 * n * n * n, benchmark::Counter::kIsIterationInvariantRate,
      benchmark::Counter::kIs1000);
}
BENCHMARK(BM_GemmBlockedF32)->Arg(32)->Arg(128)->Arg(512)->Unit(benchmark::kMicrosecond);

void BM_ConvForward(benchmark::State& state) {
  nn::Conv2D conv(4, 8, 3, 1);
  math::Rng rng(1);
  conv.init(rng);
  nn::Tensor in({1, 4, 48, 48});
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(rng.uniform());
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(in, false));
  }
}
BENCHMARK(BM_ConvForward)->Unit(benchmark::kMicrosecond);

// The same conv through the allocation-free GEMM eval path.
void BM_ConvForwardEval(benchmark::State& state) {
  nn::Conv2D conv(4, 8, 3, 1);
  math::Rng rng(1);
  conv.init(rng);
  nn::Tensor in({1, 4, 48, 48});
  for (std::size_t i = 0; i < in.size(); ++i)
    in[i] = static_cast<float>(rng.uniform());
  nn::Tensor out;
  for (auto _ : state) {
    conv.forward_eval(in, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ConvForwardEval)->Unit(benchmark::kMicrosecond);

// Whole-policy batched forward via the BatchInferencer service: submit
// `batch` copies of one observation, run one tick. Reported per-second rate
// is ticks, so per-observation cost is time / batch.
void BM_PolicyForward(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  il::IlPolicy policy{il::IlPolicyConfig(), 42u};
  world::ScenarioOptions opt;
  const world::World world{world::make_scenario(opt, 5)};
  const sense::BevRasterizer raster(policy.bev_spec());
  const sense::BevImage obs = il::make_observation(
      raster.render(world, world.scenario().start_pose), 0.3);
  il::BatchInferencer service(policy, 128);
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) service.submit(obs);
    service.run_tick();
    benchmark::DoNotOptimize(&service.result(0));
  }
  state.counters["obs_per_s"] = benchmark::Counter(
      static_cast<double>(batch), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PolicyForward)->Arg(1)->Arg(8)->Arg(32)->Arg(128)->Unit(benchmark::kMicrosecond);

// Baseline the batched service competes against: N sequential single-
// observation infer() calls. infer() runs the same GEMM eval kernels on a
// batch of one, so the gap to BM_PolicyForward/N is what batching itself
// buys (wider GEMMs, one pass of per-layer dispatch per tick).
void BM_PolicyInferSequential(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  il::IlPolicy policy{il::IlPolicyConfig(), 42u};
  world::ScenarioOptions opt;
  const world::World world{world::make_scenario(opt, 5)};
  const sense::BevRasterizer raster(policy.bev_spec());
  const sense::BevImage obs = il::make_observation(
      raster.render(world, world.scenario().start_pose), 0.3);
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i)
      benchmark::DoNotOptimize(policy.infer(obs));
  }
  state.counters["obs_per_s"] = benchmark::Counter(
      static_cast<double>(batch), benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PolicyInferSequential)->Arg(1)->Arg(32)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
