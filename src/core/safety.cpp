#include "core/safety.hpp"

#include <cmath>

#include "geom/broadphase.hpp"

namespace icoil::core {

bool SafetyMonitor::rollout_collides(const world::World& world,
                                     const vehicle::State& state,
                                     const vehicle::Command& cmd) const {
  vehicle::State s = state;
  const int steps =
      std::max(1, static_cast<int>(std::ceil(config_.horizon / config_.dt)));
  for (int i = 1; i <= steps; ++i) {
    s = model_.step(s, cmd, config_.dt);
    const double t = world.time() + i * config_.dt;
    const geom::Obb fp = model_.footprint(s).inflated(config_.margin);
    // Statics hold still over the rollout: the world's query reuses its
    // broad-phase cache.
    if (world.static_collision(fp)) return true;
    // Dynamic obstacles move during the rollout: check predicted footprints.
    const geom::Aabb fp_bb = fp.aabb();
    for (std::size_t idx : world.dynamic_obstacle_indices()) {
      const geom::Obb box = world.scenario().obstacles[idx].footprint_at(t);
      if (!fp_bb.overlaps(box.aabb())) continue;
      if (geom::overlaps(fp, box)) return true;
    }
    for (const geom::Vec2& c : fp.corners())
      if (!world.map().bounds.contains(c)) return true;
  }
  return false;
}

vehicle::Command SafetyMonitor::filter(const world::World& world,
                                       const vehicle::State& state,
                                       const vehicle::Command& proposed) {
  if (!config_.enabled) return proposed;
  if (!rollout_collides(world, state, proposed)) return proposed;
  ++interventions_;
  return vehicle::Command::full_stop();
}

}  // namespace icoil::core
