#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "co/refpath.hpp"
#include "core/frame_context.hpp"
#include "geom/aabb.hpp"
#include "geom/broadphase.hpp"
#include "geom/obb.hpp"
#include "vehicle/kinematics.hpp"

namespace icoil::co {

/// Packs a discretized SE(2) search state into disjoint bit fields of one
/// int64: bit 0 = direction, bits 1-8 = heading bin, bits 9-32 = grid y
/// (biased), bits 33-56 = grid x (biased). Every field gets its own bits, so
/// two states collide only when every component matches — unlike the old
/// `(xi * 4096 + yi) * ...` scheme, where |yi| >= 2048 overflowed into the
/// x field and mixed-sign coordinates aliased. 24 bits per axis at the
/// default 0.6 m resolution covers +/- 5000 km, far past any lot.
inline std::int64_t pack_grid_key(long xi, long yi, long ti, int dir) {
  constexpr long kBias = 1L << 23;
  const std::uint64_t ux = static_cast<std::uint64_t>(xi + kBias) & 0xFFFFFFu;
  const std::uint64_t uy = static_cast<std::uint64_t>(yi + kBias) & 0xFFFFFFu;
  const std::uint64_t ut = static_cast<std::uint64_t>(ti) & 0xFFu;
  return static_cast<std::int64_t>((ux << 33) | (uy << 9) | (ut << 1) |
                                   (dir > 0 ? 1u : 0u));
}

/// Tuning of the hybrid-A* search over SE(2).
struct HybridAStarConfig {
  double xy_resolution = 0.6;      ///< grid cell size for state binning [m]
  int heading_bins = 36;           ///< heading discretization (10 degrees)
  double step = 0.8;               ///< primitive arc length [m]
  int num_steer_levels = 5;        ///< steer samples across [-max, +max]
  double reverse_penalty = 1.5;    ///< cost multiplier for reverse arcs
  double switch_penalty = 2.5;     ///< cost for changing motion direction
  double steer_penalty = 0.15;     ///< cost per radian of steer per metre
  double steer_change_penalty = 0.4;
  double rs_shot_radius = 10.0;    ///< try the analytic expansion inside this
  double obstacle_margin = 0.1;    ///< extra footprint inflation [m]
  double sample_step = 0.25;       ///< output waypoint spacing [m]
  int max_expansions = 60000;
  /// Curvature headroom so the MPC can correct tracking errors: primitives
  /// use steer_fraction * max_steer and the Reeds-Shepp radius is scaled by
  /// rs_radius_factor above the vehicle minimum.
  double steer_fraction = 0.8;
  double rs_radius_factor = 1.35;

  /// Cell size of the Dijkstra cost-to-go raster [m]. plan() builds it from
  /// the raw obstacles on the first plan for a (lot, goal) and shares it
  /// with every later one (DijkstraCostMap::shared). 0.4 m keeps a build
  /// under ~0.5 ms on a lot-sized raster.
  double costmap_resolution = 0.4;
  /// Analytic-expansion throttle: inside rs_shot_radius every pop attempts
  /// the RS shot; outside, one attempt every rs_shot_period pops per
  /// rs_shot_radius of distance (the period shrinks as the goal nears).
  int rs_shot_period = 8;
};

/// Counters from one plan() call, for the planner bench and CoPlanner.
struct PlanStats {
  int expansions = 0;        ///< nodes popped from the open list
  int nodes = 0;             ///< nodes pushed (arena size)
  int rs_shot_attempts = 0;  ///< analytic expansions tried
  int heuristic_evals = 0;
  bool solved_by_shot = false;
  /// g at the shot node plus the analytic tail's length: the cost A*
  /// minimized. Lets benches compare solution quality across planners.
  double solution_cost = 0.0;
};

/// Hybrid A* path planner: searches kinematically feasible motion primitives
/// on a sparse SE(2) lattice with a Reeds-Shepp analytic expansion near the
/// goal. Produces the reference waypoints {s*} the CO module tracks.
class HybridAStar {
 public:
  /// Substeps per motion primitive — a compile-time constant so every search
  /// node carries its incoming arc inline (no per-node heap allocation).
  static constexpr int kArcSubsteps = 4;

  HybridAStar(HybridAStarConfig config, vehicle::VehicleParams params);

  const HybridAStarConfig& config() const { return config_; }

  /// Plan from `start` to `goal` around `obstacles` inside `bounds`.
  /// Returns nullopt when no path is found within the expansion budget.
  /// With `frame` set, the node-expansion loop polls it and gives up early
  /// (nullopt — callers fall back to Reeds-Shepp) once the budget trips.
  /// Every expansion and analytic-shot sample is checked with the exact OBB
  /// narrow phase. With `stats` set, expansion/shot counters are written
  /// there.
  std::optional<RefPath> plan(const geom::Pose2& start, const geom::Pose2& goal,
                              const std::vector<geom::Obb>& obstacles,
                              const geom::Aabb& bounds,
                              const core::FrameContext* frame = nullptr,
                              PlanStats* stats = nullptr) const;

  /// Straight-to-goal fallback: a pure Reeds-Shepp path ignoring obstacles.
  /// Used when the search budget is exhausted (the MPC still avoids
  /// obstacles locally).
  RefPath reeds_shepp_fallback(const geom::Pose2& start,
                               const geom::Pose2& goal) const;

  /// True when the vehicle footprint is collision-free at `pose`.
  bool pose_free(const geom::Pose2& pose, const std::vector<geom::Obb>& obstacles,
                 const geom::Aabb& bounds) const;
  /// Broad-phase variant used by the search loop: `obstacles` carries
  /// prebuilt AABBs so thousands of expansion probes prune cheaply.
  bool pose_free(const geom::Pose2& pose, const geom::ObbSet& obstacles,
                 const geom::Aabb& bounds) const;

 private:
  /// One motion primitive precomputed in the node's local frame: substep
  /// offsets from the expanding pose plus the arc's fixed base cost. Per
  /// expansion only one sin/cos of the node heading and a handful of
  /// multiply-adds remain — tan(steer), the Euler chain and the cost terms
  /// are computed once per planner instead of once per substep.
  struct ArcTemplate {
    struct Sub {
      double lx = 0.0;        ///< local-frame x offset
      double ly = 0.0;        ///< local-frame y offset
      double dheading = 0.0;  ///< heading delta from the expanding pose
    };
    Sub sub[kArcSubsteps];
    double steer = 0.0;
    double base_cost = 0.0;  ///< step + steer penalty (direction-independent
                             ///  terms folded in; switch/steer-change are not)
    int direction = 1;
  };

  HybridAStarConfig config_;
  vehicle::VehicleParams params_;
  vehicle::BicycleModel model_;
  /// Forward then reverse, each across the steer levels (the expansion
  /// order, so part of what makes plans deterministic).
  std::vector<ArcTemplate> templates_;
};

}  // namespace icoil::co
