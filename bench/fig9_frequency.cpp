// Fig. 9 / section V-E of the paper: execution frequency of the two working
// modes. The paper measures IL at ~75 Hz and CO at ~18 Hz — IL is several
// times faster per frame, which is why HSA switching matters. This harness
// times each module with google-benchmark and derives the equivalent Hz.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "driver.hpp"
#include "core/controller_registry.hpp"
#include "il/observation.hpp"
#include "sensing/bev.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace icoil;

std::unique_ptr<il::IlPolicy> g_policy;

world::Scenario bench_scenario() {
  world::ScenarioOptions options;
  options.difficulty = world::Difficulty::kNormal;
  return world::make_scenario(options, 77);
}

// A mid-maneuver ego state near the bay row (obstacles in range).
vehicle::State bench_state() {
  vehicle::State s;
  s.pose = {26.0, 8.0, -0.3};
  s.speed = 1.2;
  return s;
}

void BM_IlMode(benchmark::State& state) {
  const world::Scenario sc = bench_scenario();
  world::World world(sc);
  const auto controller = core::ControllerRegistry::instance().build(
      "il", {.policy = g_policy.get()});
  controller->reset(sc);
  math::Rng rng(1);
  const vehicle::State ego = bench_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller->act(world, ego, rng));
  }
}
BENCHMARK(BM_IlMode)->Unit(benchmark::kMillisecond);

void BM_CoMode(benchmark::State& state) {
  const world::Scenario sc = bench_scenario();
  world::World world(sc);
  const auto controller = core::ControllerRegistry::instance().build("co");
  controller->reset(sc);
  math::Rng rng(1);
  const vehicle::State ego = bench_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(controller->act(world, ego, rng));
  }
}
BENCHMARK(BM_CoMode)->Unit(benchmark::kMillisecond);

void BM_BevRender(benchmark::State& state) {
  const world::Scenario sc = bench_scenario();
  world::World world(sc);
  const sense::BevRasterizer raster(g_policy->bev_spec());
  const vehicle::State ego = bench_state();
  for (auto _ : state) {
    benchmark::DoNotOptimize(raster.render(world, ego.pose));
  }
}
BENCHMARK(BM_BevRender)->Unit(benchmark::kMicrosecond);

void BM_DnnForward(benchmark::State& state) {
  const world::Scenario sc = bench_scenario();
  world::World world(sc);
  const sense::BevRasterizer raster(g_policy->bev_spec());
  const vehicle::State ego = bench_state();
  const sense::BevImage obs =
      il::make_observation(raster.render(world, ego.pose), ego.speed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_policy->infer(obs));
  }
}
BENCHMARK(BM_DnnForward)->Unit(benchmark::kMillisecond);

/// Measure wall-clock of full controller frames over an episode and derive
/// the equivalent execution frequency (the number the paper reports).
void report_frequencies() {
  const world::Scenario sc = bench_scenario();

  auto measure = [&](core::Controller& controller) {
    sim::SimConfig cfg;
    cfg.record_trace = true;
    sim::Simulator simulator(cfg);
    const sim::EpisodeResult run = simulator.run(sc, controller, 77);
    double total_ms = 0.0;
    for (const auto& f : run.trace) total_ms += f.info.solve_ms;
    return run.trace.empty() ? 0.0
                             : 1000.0 / (total_ms / static_cast<double>(
                                                        run.trace.size()));
  };

  const auto& registry = core::ControllerRegistry::instance();
  const auto il = registry.build("il", {.policy = g_policy.get()});
  const auto co = registry.build("co");
  const double il_hz = measure(*il);
  const double co_hz = measure(*co);
  std::printf("\nFig. 9 / V-E — average execution frequency over an episode:\n");
  std::printf("  IL mode: %.0f Hz (paper: ~75 Hz)\n", il_hz);
  std::printf("  CO mode: %.0f Hz (paper: ~18 Hz)\n", co_hz);
  std::printf("  ratio IL/CO: %.1fx (paper: ~4.2x)\n",
              co_hz > 0 ? il_hz / co_hz : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  g_policy = bench::shared_policy();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  report_frequencies();
  benchmark::Shutdown();
  return 0;
}
