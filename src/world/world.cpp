#include "world/world.hpp"

#include <cmath>

#include "geom/angles.hpp"

namespace icoil::world {

World::World(Scenario scenario) : scenario_(std::move(scenario)) {
  slot_of_.assign(scenario_.obstacles.size(), -1);
  for (std::size_t i = 0; i < scenario_.obstacles.size(); ++i) {
    const Obstacle& o = scenario_.obstacles[i];
    if (o.dynamic() || o.driven) {
      slot_of_[i] = static_cast<int>(dynamic_indices_.size());
      dynamic_indices_.push_back(i);
    } else {
      static_set_.push(o.shape);
    }
  }
  driven_.resize(dynamic_indices_.size());
  refresh_dynamic_boxes();
}

geom::Obb World::dynamic_footprint(std::size_t slot) const {
  const Obstacle& o = scenario_.obstacles[dynamic_indices_[slot]];
  if (driven_[slot].active) {
    const DrivenPose& d = driven_[slot];
    return {d.pose.position, d.pose.heading, o.shape.half_length,
            o.shape.half_width};
  }
  return o.footprint_at(time_);
}

void World::refresh_dynamic_boxes() {
  dynamic_boxes_.resize(dynamic_indices_.size());
  dynamic_aabbs_.resize(dynamic_indices_.size());
  for (std::size_t k = 0; k < dynamic_indices_.size(); ++k) {
    dynamic_boxes_[k] = dynamic_footprint(k);
    dynamic_aabbs_[k] = dynamic_boxes_[k].aabb();
  }
}

void World::drive_obstacle(std::size_t index, const geom::Pose2& pose,
                           geom::Vec2 velocity) {
  const int slot = index < slot_of_.size() ? slot_of_[index] : -1;
  if (slot < 0) return;  // static obstacles cannot be driven
  driven_[static_cast<std::size_t>(slot)] = {pose, velocity, true};
  // Queries between now and the enclosing refresh must already see the new
  // pose (set_driver applies poses outside any step).
  dynamic_boxes_[static_cast<std::size_t>(slot)] =
      dynamic_footprint(static_cast<std::size_t>(slot));
  dynamic_aabbs_[static_cast<std::size_t>(slot)] =
      dynamic_boxes_[static_cast<std::size_t>(slot)].aabb();
}

std::vector<ObstacleState> World::obstacle_states() const {
  std::vector<ObstacleState> out;
  out.reserve(scenario_.obstacles.size());
  for (std::size_t i = 0; i < scenario_.obstacles.size(); ++i) {
    const Obstacle& o = scenario_.obstacles[i];
    const int slot = slot_of_[i];
    if (slot >= 0 && driven_[static_cast<std::size_t>(slot)].active) {
      const DrivenPose& d = driven_[static_cast<std::size_t>(slot)];
      out.push_back({o.id, dynamic_boxes_[static_cast<std::size_t>(slot)],
                     d.velocity, true});
    } else {
      out.push_back(
          {o.id, o.footprint_at(time_), o.velocity_at(time_), o.dynamic() || o.driven});
    }
  }
  return out;
}

bool World::bay_occupied(std::size_t bay_index) const {
  const geom::Obb& bay = scenario_.map.bays[bay_index];
  for (const geom::Obb& s : static_set_.boxes())
    if (bay.contains(s.center)) return true;
  for (const geom::Obb& d : dynamic_boxes_)
    if (bay.contains(d.center)) return true;
  return false;
}

std::vector<std::size_t> World::free_bays() const {
  std::vector<std::size_t> out;
  for (std::size_t b = 0; b < scenario_.map.bays.size(); ++b)
    if (!bay_occupied(b)) out.push_back(b);
  return out;
}

bool World::in_collision(const geom::Obb& footprint) const {
  // Lot boundary: every footprint corner must stay inside.
  for (const geom::Vec2& c : footprint.corners())
    if (!scenario_.map.bounds.contains(c)) return true;
  // Statics through the broad phase, dynamics with an AABB prefilter on
  // their cached current footprints.
  if (static_collision(footprint)) return true;
  const geom::Aabb fp_bb = footprint.aabb();
  for (std::size_t k = 0; k < dynamic_boxes_.size(); ++k) {
    if (!fp_bb.overlaps(dynamic_aabbs_[k])) continue;
    if (geom::overlaps(footprint, dynamic_boxes_[k])) return true;
  }
  return false;
}

double World::clearance(const geom::Obb& footprint) const {
  // static_clearance clamps to the kMaxClearance cutoff, so an
  // obstacle-free scenario reports the sentinel (not +inf) and the
  // dynamic-obstacle prune below starts from a finite bound.
  double best = static_clearance(footprint, geom::kMaxClearance);
  const geom::Aabb fp_bb = footprint.aabb();
  for (std::size_t k = 0; k < dynamic_boxes_.size(); ++k) {
    if (geom::aabb_distance(fp_bb, dynamic_aabbs_[k]) >= best) continue;
    best = std::min(best, geom::obb_distance(footprint, dynamic_boxes_[k]));
  }
  return best;
}

bool World::at_goal(const geom::Pose2& pose, double pos_tol,
                    double heading_tol) const {
  const geom::Pose2& goal = scenario_.map.goal_pose;
  return geom::distance(pose.position, goal.position) <= pos_tol &&
         std::abs(geom::angle_diff(pose.heading, goal.heading)) <= heading_tol;
}

}  // namespace icoil::world
