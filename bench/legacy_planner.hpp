#pragma once

// Frozen copy of the pre-refactor hybrid-A* search loop, kept ONLY as the
// baseline of bench_planner's speedup column. This is the planner as it
// stood before the arena/heuristic-cache rework: per-node heap-allocated
// arcs, std::unordered_map best-g table, an exact Reeds-Shepp solve inside
// the heuristic on every improved push, and an un-throttled analytic
// expansion attempted on every pop inside rs_shot_radius. Do not "fix" or
// modernize it — its value is that it does not change.

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "co/hybrid_astar.hpp"
#include "co/reeds_shepp.hpp"
#include "geom/aabb.hpp"
#include "geom/angles.hpp"
#include "geom/broadphase.hpp"
#include "geom/obb.hpp"
#include "vehicle/kinematics.hpp"

namespace icoil::bench {

struct LegacyStats {
  int expansions = 0;
  int rs_shot_attempts = 0;
  double solution_cost = 0.0;  ///< g at the shot node + analytic tail length
};

namespace legacy_detail {

struct Node {
  geom::Pose2 pose;
  int direction = 1;
  double steer = 0.0;
  double g = 0.0;
  int parent = -1;
  std::vector<geom::Pose2> arc;
};

struct QueueEntry {
  double f = 0.0;
  int node = 0;
  bool operator>(const QueueEntry& o) const { return f > o.f; }
};

inline bool pose_free(const vehicle::BicycleModel& model,
                      const co::HybridAStarConfig& config,
                      const geom::Pose2& pose, const geom::ObbSet& obstacles,
                      const geom::Aabb& bounds) {
  const geom::Obb fp = model.footprint(pose).inflated(config.obstacle_margin);
  for (const geom::Vec2& c : fp.corners())
    if (!bounds.contains(c)) return false;
  return !obstacles.any_overlap(fp);
}

}  // namespace legacy_detail

/// The seed planner's plan(): success/failure and path shape match the
/// pre-refactor code exactly (same expansion order, same tie behaviour from
/// the same queue discipline). Returns true when a path was found.
inline bool legacy_plan(const co::HybridAStarConfig& config,
                        const vehicle::VehicleParams& params,
                        const geom::Pose2& start, const geom::Pose2& goal,
                        const std::vector<geom::Obb>& obstacles,
                        const geom::Aabb& bounds,
                        LegacyStats* stats = nullptr) {
  using legacy_detail::Node;
  using legacy_detail::QueueEntry;

  const vehicle::BicycleModel model(params);
  const double radius = params.min_turn_radius() * config.rs_radius_factor;
  const co::ReedsShepp rs(radius);
  const geom::ObbSet obstacle_set(obstacles);

  auto pose_free = [&](const geom::Pose2& p) {
    return legacy_detail::pose_free(model, config, p, obstacle_set, bounds);
  };

  auto heuristic = [&](const geom::Pose2& p) {
    const double euclid = geom::distance(p.position, goal.position);
    const auto path = rs.shortest_path(p, goal);
    return path ? std::max(euclid, rs.length(*path)) : euclid;
  };

  auto key_of = [&](const geom::Pose2& p, int dir) {
    const long xi = std::lround(p.x() / config.xy_resolution);
    const long yi = std::lround(p.y() / config.xy_resolution);
    const double h = geom::wrap_angle_2pi(p.heading);
    const long ti = std::lround(h / (geom::kTwoPi / config.heading_bins)) %
                    config.heading_bins;
    return ((xi * 4096 + yi) * 64 + ti) * 2 + (dir > 0 ? 1 : 0);
  };

  std::vector<Node> nodes;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>> open;
  std::unordered_map<long, double> best_g;

  if (!pose_free(start)) return false;
  nodes.push_back({start, 1, 0.0, 0.0, -1, {}});
  open.push({heuristic(start), 0});
  best_g[key_of(start, 1)] = 0.0;

  std::vector<double> steers;
  for (int i = 0; i < config.num_steer_levels; ++i)
    steers.push_back(config.steer_fraction *
                     (-params.max_steer + 2.0 * params.max_steer * i /
                                              (config.num_steer_levels - 1)));

  const int kArcSubsteps = 4;
  int expansions = 0;
  int shot_attempts = 0;
  int shot_parent = -1;
  double shot_cost = 0.0;

  while (!open.empty() && expansions < config.max_expansions) {
    const QueueEntry top = open.top();
    open.pop();
    const int ni = top.node;
    const Node snapshot = nodes[static_cast<std::size_t>(ni)];
    ++expansions;

    if (geom::distance(snapshot.pose.position, goal.position) <
        config.rs_shot_radius) {
      ++shot_attempts;
      if (const auto path = rs.shortest_path(snapshot.pose, goal)) {
        const auto samples = rs.sample(snapshot.pose, *path, config.sample_step);
        bool free = true;
        for (const co::RsSample& s : samples) {
          if (!pose_free(s.pose)) {
            free = false;
            break;
          }
        }
        if (free) {
          shot_parent = ni;
          shot_cost = snapshot.g + rs.length(*path);
          break;
        }
      }
    }

    for (int dir : {1, -1}) {
      for (double steer : steers) {
        geom::Pose2 p = snapshot.pose;
        std::vector<geom::Pose2> arc;
        bool free = true;
        const double ds = dir * config.step / kArcSubsteps;
        for (int k = 0; k < kArcSubsteps; ++k) {
          const double yaw_rate = std::tan(steer) / params.wheelbase;
          p.position.x += ds * std::cos(p.heading);
          p.position.y += ds * std::sin(p.heading);
          p.heading = geom::wrap_angle(p.heading + ds * yaw_rate);
          if (!pose_free(p)) {
            free = false;
            break;
          }
          arc.push_back(p);
        }
        if (!free) continue;

        double cost = config.step * (dir < 0 ? config.reverse_penalty : 1.0);
        cost += config.steer_penalty * std::abs(steer) * config.step;
        if (snapshot.parent >= 0 && dir != snapshot.direction)
          cost += config.switch_penalty;
        cost += config.steer_change_penalty * std::abs(steer - snapshot.steer);
        const double g = snapshot.g + cost;

        const long key = key_of(p, dir);
        const auto it = best_g.find(key);
        if (it != best_g.end() && it->second <= g) continue;
        best_g[key] = g;

        nodes.push_back({p, dir, steer, g, ni, std::move(arc)});
        open.push({g + heuristic(p), static_cast<int>(nodes.size()) - 1});
      }
    }
  }

  if (stats != nullptr) {
    stats->expansions = expansions;
    stats->rs_shot_attempts = shot_attempts;
    stats->solution_cost = shot_cost;
  }
  return shot_parent >= 0;
}

}  // namespace icoil::bench
