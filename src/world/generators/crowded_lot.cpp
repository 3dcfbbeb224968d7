// Crowded lot: the standard map densely cluttered with parked cars and
// randomly placed pillars/crates (N >= 8 obstacles) plus the canonical
// patrol vehicle and pedestrian. Clutter is sampled away from the spawn
// regions, the goal-approach corridor and the patrol lane so every seed
// keeps a feasible start and a reachable goal. Recognized parameters:
//   num_obstacles   total roster size incl. 2 dynamics (default 10, min 8)
//   density         multiplier on the clutter count (default 1.0); the
//                   10x setting packs ~60 clutter boxes into the same lot

#include <algorithm>
#include <cmath>

#include "geom/angles.hpp"
#include "world/generators/common.hpp"
#include "world/generators/generator.hpp"

namespace icoil::world {
namespace {

class CrowdedLotGenerator final : public ScenarioGenerator {
 public:
  std::string name() const override { return "crowded_lot"; }
  std::string description() const override {
    return "Standard lot with dense random clutter, N >= 8 obstacles "
           "(num_obstacles, default 10; density multiplies the clutter "
           "count) + patrol and pedestrian";
  }

  GeneratorOutput build(const GeneratorParams& params, Difficulty,
                        math::Rng& rng) const override {
    GeneratorOutput out;
    out.map = ParkingLotMap::standard();
    const int total = std::max(8, params.get_int("num_obstacles", 10));
    const double density = std::max(0.0, params.get("density", 1.0));
    // Density scales only the clutter: the fixed roster (parked cars,
    // patrol, pedestrian) anchors the scenario at every multiplier.
    const int num_clutter =
        static_cast<int>(std::lround((total - 4) * density));

    int id = 0;
    append_flanking_cars(out.map, out.obstacles, id);

    // Keep-out zones: spawn regions (inflated by the ego footprint radius),
    // the goal-approach corridor, and the patrol/pedestrian lanes.
    const geom::Aabb spawn_zone = out.map.spawn_random.inflated(2.6);
    const geom::Aabb goal_corridor{{26.5, 0.0}, {34.5, 21.0}};
    const geom::Aabb patrol_lane{{9.0, 18.4}, {31.0, 20.6}};
    const geom::Aabb ped_lane{{25.0, 8.0}, {27.0, 16.5}};

    for (int i = 0; i < num_clutter; ++i) {
      for (int attempt = 0; attempt < 40; ++attempt) {
        const double hl = rng.uniform(0.35, 1.1);
        const double hw = rng.uniform(0.35, 1.1);
        const double x = rng.uniform(3.0, 37.0);
        const double y = rng.uniform(15.0, 28.0);
        const geom::Obb box{{x, y}, rng.uniform(0.0, geom::kPi), hl, hw};
        const geom::Aabb bb = box.aabb();
        if (bb.overlaps(spawn_zone) || bb.overlaps(goal_corridor) ||
            bb.overlaps(patrol_lane) || bb.overlaps(ped_lane))
          continue;
        if (!out.map.bounds.inflated(-0.5).contains(bb.min) ||
            !out.map.bounds.inflated(-0.5).contains(bb.max))
          continue;
        bool clear = true;
        for (const Obstacle& o : out.obstacles)
          clear = clear && !geom::overlaps(box.inflated(0.4), o.shape);
        if (!clear) continue;
        out.obstacles.push_back(
            {id++, "clutter_" + std::to_string(i), box, {}});
        break;
      }
    }

    out.obstacles.push_back(make_patrol_vehicle(id++));
    out.obstacles.push_back(make_crossing_pedestrian(id++));
    return out;
  }
};

}  // namespace

std::unique_ptr<ScenarioGenerator> make_crowded_lot_generator() {
  return std::make_unique<CrowdedLotGenerator>();
}

}  // namespace icoil::world
