// Collision-backend ablation: grid (distance field) vs analytic (OBB
// narrow phase) static collision on crowded_lot at increasing obstacle
// density. Three measurements per density level:
//
//   1. Query rate: static_collision + static_clearance over random poses
//      through both backends (queries/sec, plus the grid backend's
//      conservative clearance error against the analytic ground truth).
//   2. Episode wall time: the CO controller runs the same seeds under each
//      backend; mean wall seconds per episode.
//   3. Verdict parity: episode outcomes must match seed-for-seed — the grid
//      backend's certainly-free fast path falls back to the analytic narrow
//      phase inside its conservative band, so verdicts are exact by
//      construction and any mismatch is a bug, not noise.
//
// A final parity gate repeats (3) on the canonical scenario (the CI smoke
// gate). Results land in the `collision` table of a sim::RunReport, one row
// per (generator, density).
//
// Usage:
//   bench_collision [options]
//     --episodes N        episodes per backend per density (default 6)
//     --densities LIST    comma list of crowded_lot multipliers (default 1,4,10)
//     --queries N         random poses per query-rate measurement (default 20000)
//     --grid-resolution X grid cell size in metres (default 0.15)
//     --report PATH       write the RunReport JSON artifact
//     --quick             smoke mode: 2 episodes, 4000 queries
//
// Exit codes: 0 ok, 1 verdict mismatch between backends, 2 usage error,
// 3 I/O error.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/controller_registry.hpp"
#include "geom/angles.hpp"
#include "mathkit/rng.hpp"
#include "mathkit/table.hpp"
#include "sim/report.hpp"
#include "sim/session.hpp"
#include "sim/suite.hpp"
#include "vehicle/kinematics.hpp"
#include "world/world.hpp"

namespace {

using icoil::bench::number_key;
using icoil::bench::parse_double_arg;
using icoil::bench::parse_int_arg;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--episodes N] [--densities LIST] [--queries N] "
               "[--grid-resolution X] [--report PATH] [--quick]\n",
               argv0);
  return 2;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Random vehicle footprints across the lot — the query workload. Poses are
/// deterministic per density so both backends (and reruns) see identical
/// work.
std::vector<icoil::geom::Obb> sample_footprints(
    const icoil::world::Scenario& scenario, int count, std::uint64_t seed) {
  const icoil::vehicle::BicycleModel model{icoil::vehicle::VehicleParams{}};
  const icoil::geom::Aabb& b = scenario.map.bounds;
  icoil::math::Rng rng(seed);
  std::vector<icoil::geom::Obb> fps;
  fps.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    icoil::vehicle::State s;
    s.pose.position = {rng.uniform(b.min.x, b.max.x),
                       rng.uniform(b.min.y, b.max.y)};
    s.pose.heading = rng.uniform(0.0, icoil::geom::kTwoPi);
    fps.push_back(model.footprint(s));
  }
  return fps;
}

struct QueryRates {
  double qps = 0.0;
  std::vector<double> clearances;  ///< per-footprint, cutoff-free
};

QueryRates measure_queries(const icoil::world::World& world,
                           const std::vector<icoil::geom::Obb>& footprints) {
  QueryRates out;
  out.clearances.reserve(footprints.size());
  // Warm pass fills caches so the timed pass measures steady state.
  volatile int sink = 0;
  for (const icoil::geom::Obb& fp : footprints)
    sink += world.static_collision(fp) ? 1 : 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (const icoil::geom::Obb& fp : footprints) {
    sink += world.static_collision(fp) ? 1 : 0;
    out.clearances.push_back(world.static_clearance(fp));
  }
  const double elapsed = seconds_since(t0);
  out.qps = elapsed > 0.0
                ? 2.0 * static_cast<double>(footprints.size()) / elapsed
                : 0.0;
  return out;
}

struct EpisodeSweep {
  double mean_seconds = 0.0;
  std::vector<std::string> outcomes;  ///< per seed, sim::to_string
};

EpisodeSweep run_episodes(const icoil::world::Scenario& scenario,
                          icoil::world::CollisionBackend backend,
                          double resolution, int episodes,
                          std::uint64_t base_seed) {
  using namespace icoil;
  EpisodeSweep sweep;
  sim::SimConfig sim_config;
  sim_config.collision_backend = backend;
  sim_config.grid_resolution = resolution;
  const auto& registry = core::ControllerRegistry::instance();
  double total = 0.0;
  for (int e = 0; e < episodes; ++e) {
    // Fresh controller per episode: controllers are stateful and the timing
    // should include reference planning, as a real run pays it.
    std::unique_ptr<core::Controller> controller = registry.build("co");
    const auto t0 = std::chrono::steady_clock::now();
    sim::Session session(scenario, *controller, base_seed + e, sim_config);
    while (session.step() == sim::Session::Status::kRunning) {
    }
    total += seconds_since(t0);
    sweep.outcomes.push_back(sim::to_string(session.result().outcome));
  }
  sweep.mean_seconds = episodes > 0 ? total / episodes : 0.0;
  return sweep;
}

std::vector<double> parse_densities(const std::string& csv) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) {
      double v = 0.0;
      if (!parse_double_arg(item.c_str(), &v) || v <= 0.0) return {};
      out.push_back(v);
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;

  int episodes = 6;
  int queries = 20000;
  double resolution = world::DistanceField::kDefaultResolution;
  std::string densities_csv = "1,4,10";
  std::string report_path;
  bool quick = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--episodes") {
      const char* v = next_value();
      if (v == nullptr || !parse_int_arg(v, &episodes) || episodes <= 0)
        return usage(argv[0]);
    } else if (arg == "--queries") {
      const char* v = next_value();
      if (v == nullptr || !parse_int_arg(v, &queries) || queries <= 0)
        return usage(argv[0]);
    } else if (arg == "--grid-resolution") {
      const char* v = next_value();
      if (v == nullptr || !parse_double_arg(v, &resolution) || resolution <= 0.0)
        return usage(argv[0]);
    } else if (arg == "--densities") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      densities_csv = v;
    } else if (arg == "--report") {
      const char* v = next_value();
      if (v == nullptr) return usage(argv[0]);
      report_path = v;
    } else if (arg == "--quick") {
      quick = true;
    } else {
      std::fprintf(stderr, "bench_collision: unknown argument \"%s\"\n",
                   arg.c_str());
      return usage(argv[0]);
    }
  }
  if (quick) {
    episodes = std::min(episodes, 2);
    queries = std::min(queries, 4000);
  }

  const std::vector<double> densities = parse_densities(densities_csv);
  if (densities.empty()) {
    std::fprintf(stderr, "bench_collision: bad --densities \"%s\"\n",
                 densities_csv.c_str());
    return usage(argv[0]);
  }

  constexpr std::uint64_t kScenarioSeed = 7;
  constexpr std::uint64_t kPoseSeed = 99;
  constexpr std::uint64_t kEpisodeSeed = 1000;

  sim::MetricsTable stats(
      "collision", {"generator", "density"},
      {"grid_resolution", "obstacles", "analytic_qps", "grid_qps", "speedup",
       "analytic_episode_seconds", "grid_episode_seconds",
       "clearance_err_mean", "clearance_err_max", "episodes",
       "verdicts_match"});

  bool all_verdicts_match = true;
  math::TextTable table({"density", "obstacles", "analytic q/s", "grid q/s",
                         "speedup", "co ep analytic [s]", "co ep grid [s]",
                         "clr err mean [m]", "clr err max [m]", "verdicts"});

  for (const double density : densities) {
    sim::SuiteCell cell;
    cell.generator = "crowded_lot";
    cell.difficulty = world::Difficulty::kNormal;
    cell.params.set("density", density);
    const world::Scenario scenario =
        world::make_scenario(cell.options(), kScenarioSeed);

    int statics = 0;
    for (const world::Obstacle& o : scenario.obstacles)
      if (!o.dynamic()) ++statics;

    const world::World analytic(scenario,
                                {world::CollisionBackend::kAnalytic, resolution});
    const world::World grid(scenario,
                            {world::CollisionBackend::kGrid, resolution});

    const auto footprints = sample_footprints(scenario, queries, kPoseSeed);
    const QueryRates a = measure_queries(analytic, footprints);
    const QueryRates g = measure_queries(grid, footprints);

    // Conservative clearance error: analytic minus grid, over footprints
    // both backends call free. Negative error would mean the grid bound is
    // NOT a lower bound — counted as a parity failure.
    double err_sum = 0.0, err_max = 0.0;
    int err_n = 0;
    bool bound_ok = true;
    for (std::size_t q = 0; q < footprints.size(); ++q) {
      const double av = a.clearances[q];
      const double gv = g.clearances[q];
      if (av <= 0.0 || gv <= 0.0) continue;        // in collision
      if (av >= geom::kMaxClearance) continue;     // no obstacle in range
      const double err = av - gv;
      if (err < -1e-9) bound_ok = false;
      err_sum += err;
      err_max = std::max(err_max, err);
      ++err_n;
    }

    const EpisodeSweep ea = run_episodes(
        scenario, world::CollisionBackend::kAnalytic, resolution, episodes,
        kEpisodeSeed);
    const EpisodeSweep eg = run_episodes(
        scenario, world::CollisionBackend::kGrid, resolution, episodes,
        kEpisodeSeed);

    const double speedup = a.qps > 0.0 ? g.qps / a.qps : 0.0;
    const double err_mean = err_n > 0 ? err_sum / err_n : 0.0;
    const bool verdicts_match = bound_ok && ea.outcomes == eg.outcomes;
    all_verdicts_match = all_verdicts_match && verdicts_match;
    stats.add_row({"crowded_lot", number_key(density)},
                  {resolution, double(statics), a.qps, g.qps, speedup,
                   ea.mean_seconds, eg.mean_seconds, err_mean, err_max,
                   double(episodes), verdicts_match ? 1.0 : 0.0});

    table.add_row({math::format_double(density, 1), std::to_string(statics),
                   math::format_double(a.qps, 0),
                   math::format_double(g.qps, 0),
                   math::format_double(speedup, 2) + "x",
                   math::format_double(ea.mean_seconds, 3),
                   math::format_double(eg.mean_seconds, 3),
                   math::format_double(err_mean, 3),
                   math::format_double(err_max, 3),
                   verdicts_match ? "match" : "MISMATCH"});
    std::fprintf(stderr, "[collision] density %.1fx done (%d statics)\n",
                 density, statics);
  }

  // CI parity gate: the canonical scenario's episode verdicts must be
  // identical under both backends.
  {
    sim::SuiteCell cell;  // defaults: canonical / easy / random start
    const world::Scenario scenario =
        world::make_scenario(cell.options(), kScenarioSeed);
    const EpisodeSweep ea = run_episodes(
        scenario, world::CollisionBackend::kAnalytic, resolution, episodes,
        kEpisodeSeed);
    const EpisodeSweep eg = run_episodes(
        scenario, world::CollisionBackend::kGrid, resolution, episodes,
        kEpisodeSeed);
    const bool match = ea.outcomes == eg.outcomes;
    all_verdicts_match = all_verdicts_match && match;
    std::fprintf(stderr, "[collision] canonical parity: %s\n",
                 match ? "match" : "MISMATCH");
  }

  std::printf("\nCollision backend ablation — crowded_lot, grid resolution "
              "%.2f m, %d queries, %d episodes/backend\n\n",
              resolution, queries, episodes);
  table.print(std::cout);

  if (!report_path.empty()) {
    sim::RunReport report;
    report.meta.suite = "collision";
    report.meta.git_describe = sim::build_git_describe();
    report.meta.threads = 1;
    report.meta.episodes_per_cell = episodes;
    report.meta.base_seed = kEpisodeSeed;
    sim::EvalConfig eval_config;
    eval_config.episodes = episodes;
    eval_config.base_seed = kEpisodeSeed;
    eval_config.sim.grid_resolution = resolution;
    report.meta.config_fingerprint = sim::config_fingerprint(eval_config);
    report.tables.push_back(stats);
    std::string error;
    if (!report.save(report_path, &error)) {
      std::fprintf(stderr, "bench_collision: %s\n", error.c_str());
      return 3;
    }
    std::fprintf(stderr, "[collision] report written to %s\n",
                 report_path.c_str());
  }

  if (!all_verdicts_match) {
    std::fprintf(stderr,
                 "bench_collision: FAIL — grid and analytic backends "
                 "disagreed (outcomes or clearance bound)\n");
    return 1;
  }
  return 0;
}
