#pragma once

// The reference the BEV rasterizer is tested against: the per-pixel loop
// BevRasterizer::render ran before it bounded its work to each box's pixel
// rectangle. Every pixel centre comes from pixel_to_world and is tested
// against every obstacle near the ego with Obb::contains, the goal bay and
// the lot bounds. render must reproduce this image bit for bit.

#include <algorithm>
#include <vector>

#include "geom/obb.hpp"
#include "geom/pose2.hpp"
#include "sensing/bev.hpp"
#include "world/world.hpp"

namespace icoil::sense::testing {

inline BevImage oracle_render(const BevRasterizer& raster,
                              const world::World& world,
                              const geom::Pose2& ego_pose) {
  const BevSpec& spec = raster.spec();
  BevImage img(kBevChannels, spec.size);
  std::vector<geom::Obb> boxes;
  for (const world::ObstacleState& s : world.obstacle_states())
    boxes.push_back(s.box);
  const geom::Obb& goal = world.map().goal_bay();
  const geom::Aabb& bounds = world.map().bounds;

  // Cull obstacles entirely outside the raster window.
  const double reach = spec.range * 0.75;
  std::vector<const geom::Obb*> near;
  for (const geom::Obb& b : boxes)
    if (geom::distance(b.center, ego_pose.position) <
        reach + std::max(b.half_length, b.half_width))
      near.push_back(&b);

  for (int r = 0; r < spec.size; ++r) {
    for (int c = 0; c < spec.size; ++c) {
      const geom::Vec2 w = raster.pixel_to_world(ego_pose, r, c);
      for (const geom::Obb* b : near) {
        if (b->contains(w)) {
          img.at(kBevObstacles, r, c) = 1.0f;
          break;
        }
      }
      if (goal.contains(w)) img.at(kBevGoal, r, c) = 1.0f;
      if (!bounds.contains(w)) img.at(kBevBounds, r, c) = 1.0f;
    }
  }
  return img;
}

}  // namespace icoil::sense::testing
