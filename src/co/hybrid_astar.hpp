#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "co/heuristic.hpp"
#include "co/refpath.hpp"
#include "core/frame_context.hpp"
#include "geom/aabb.hpp"
#include "geom/broadphase.hpp"
#include "geom/obb.hpp"
#include "vehicle/kinematics.hpp"
#include "world/distance_field.hpp"

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

  /// Which lower bound guides the search (see co/heuristic.hpp). kMax — the
  /// shared RS table max'd with the obstacle-aware Dijkstra sweep — is both
  /// the cheapest per evaluation (a table read once the entry is filled;
  /// the first read of an entry solves its 15-point stencil) and the most
  /// informed; kEuclidRs keeps the historical exact-RS-per-push behaviour
  /// for the ablation.
  HeuristicMode heuristic = HeuristicMode::kMax;
  /// Lattice of the shared Reeds-Shepp table (see RsLutSpec). Entries fill
  /// on first read, so a finer or wider lattice costs memory, not set-up.
  double lut_xy_resolution = 0.7;
  /// Beyond the extent the table defers to the euclidean floor — far from
  /// the goal RS length converges to it anyway. 24 m covers every lot.
  double lut_extent = 24.0;
  int lut_heading_bins = 36;
  /// Second, finer LUT level over the near field, max'd with the coarse
  /// table. RS length varies fastest (heading alignment, cusps) within a
  /// few turning radii of the goal — exactly where the search density
  /// peaks — so that region gets 2x resolution in all three axes while the
  /// smooth far field stays cheap. 0 extent disables the level.
  double lut_fine_extent = 12.0;
  double lut_fine_xy_resolution = 0.35;
  int lut_fine_heading_bins = 72;
  /// Cell size of the per-plan Dijkstra cost-to-go raster [m]. Built by
  /// plan() itself from the raw obstacles (never from the caller's
  /// collision field), so the heuristic — and therefore the returned path —
  /// is identical under every collision backend. 0.4 m keeps the sweep
  /// under ~0.5 ms on a lot-sized raster.
  double costmap_resolution = 0.4;
  /// Analytic-expansion throttle: inside rs_shot_radius every pop attempts
  /// the RS shot; outside, one attempt every rs_shot_period pops per
  /// rs_shot_radius of distance (the period shrinks as the goal nears).
  int rs_shot_period = 8;
};

/// Counters from one plan() call, for the planner bench and ablations.
struct PlanStats {
  int expansions = 0;        ///< nodes popped from the open list
  int nodes = 0;             ///< nodes pushed (arena size)
  int rs_shot_attempts = 0;  ///< analytic expansions tried
  int heuristic_evals = 0;
  bool solved_by_shot = false;
  /// g at the shot node plus the analytic tail's length: the cost A*
  /// minimized. Lets benches compare solution quality across heuristics.
  double solution_cost = 0.0;
};

/// Hybrid A* path planner: searches kinematically feasible motion primitives
/// on a sparse SE(2) lattice with a Reeds-Shepp analytic expansion near the
/// goal. Produces the reference waypoints {s*} the CO module tracks.
class HybridAStar {
 public:
  HybridAStar(HybridAStarConfig config, vehicle::VehicleParams params);

  const HybridAStarConfig& config() const { return config_; }

  /// Plan from `start` to `goal` around `obstacles` inside `bounds`.
  /// Returns nullopt when no path is found within the expansion budget.
  /// With `frame` set, the node-expansion loop polls it and gives up early
  /// (nullopt — callers fall back to Reeds-Shepp) once the budget trips.
  /// With `field` set (the grid collision backend's distance field over the
  /// SAME static obstacles), every expansion probe first tries the O(1)
  /// certainly-free lookup and only runs the OBB narrow phase inside the
  /// conservative band — identical accept/reject decisions, cheaper search.
  /// With `stats` set, expansion/shot counters are written there.
  std::optional<RefPath> plan(const geom::Pose2& start, const geom::Pose2& goal,
                              const std::vector<geom::Obb>& obstacles,
                              const geom::Aabb& bounds,
                              const core::FrameContext* frame = nullptr,
                              const world::DistanceField* field = nullptr,
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
  /// prebuilt AABBs so thousands of expansion probes prune cheaply. An
  /// optional distance `field` short-circuits certainly-free probes in O(1)
  /// before the set is consulted (exact — see plan()).
  bool pose_free(const geom::Pose2& pose, const geom::ObbSet& obstacles,
                 const geom::Aabb& bounds,
                 const world::DistanceField* field = nullptr) const;

 private:
  HybridAStarConfig config_;
  vehicle::VehicleParams params_;
  vehicle::BicycleModel model_;
};

}  // namespace icoil::co
