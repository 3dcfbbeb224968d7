#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "geom/pose2.hpp"
#include "geom/vec2.hpp"
#include "world/distance_field.hpp"

namespace icoil::co {

/// Cache key of a Reeds-Shepp heuristic table: the RS turning radius plus
/// the lattice geometry. An entry's value depends on nothing else, so
/// planners with equal specs share one instance via RsHeuristicLut::shared().
struct RsLutSpec {
  double radius = 4.0;         ///< RS turning radius [m]
  double xy_resolution = 0.7;  ///< lattice cell size [m]
  double extent = 24.0;        ///< covers |dx|,|dy| <= extent [m]
  int heading_bins = 36;       ///< relative-heading discretization

  bool operator==(const RsLutSpec& o) const {
    return radius == o.radius && xy_resolution == o.xy_resolution &&
           extent == o.extent && heading_bins == o.heading_bins;
  }
};

/// Non-holonomic-without-obstacles heuristic: Reeds-Shepp shortest-path
/// lengths over a goal-relative (dx, dy, dtheta) lattice. Because the RS
/// metric is left-invariant, one table per (radius, lattice) serves every
/// (pose, goal) pair: the query transforms into the goal frame and reads the
/// nearest lattice sample. Admissibility: each entry is the MINIMUM RS
/// length over a 15-point stencil of its quantization box (centre,
/// xy-corners, heading-faces), so rounding biases the lookup downward by
/// construction; value() additionally subtracts slack() — a small residual
/// margin for dips between stencil samples — and clamps at zero. (A
/// triangle-inequality slack is unusable here: the RS metric prices
/// centimetre lateral offsets at whole parking manoeuvres.) Queries outside
/// the lattice extent, or with a non-finite coordinate, return 0 (callers
/// keep the euclidean floor).
///
/// Entries are filled on first read: construction only allocates the
/// table, and a read of an unfilled entry solves its stencil (15 RS solves,
/// tens of µs) and stores the result. A planning pass touches well under 1%
/// of the lattice, so this replaces a multi-second up-front build. Fills are
/// relaxed atomic stores of a pure function of the entry, so concurrent
/// readers may both fill one entry but always store the same bits — reads
/// are lock-free and independent of thread count and interleaving.
class RsHeuristicLut {
 public:
  /// Residual admissibility margin as a fraction of the cell size: covers
  /// in-box dips of the length function between stencil samples.
  static constexpr double kResidualMarginCells = 0.25;

  explicit RsHeuristicLut(const RsLutSpec& spec);

  /// The process-wide table cache, keyed by spec: every planner/episode with
  /// the same spec shares one table, and so every entry it has filled.
  static std::shared_ptr<const RsHeuristicLut> shared(const RsLutSpec& spec);
  static std::size_t shared_cache_size();

  const RsLutSpec& spec() const { return spec_; }
  /// The residual margin subtracted from every raw table read [m].
  double slack() const { return slack_; }

  /// Admissible lower bound on the Reeds-Shepp distance from `pose` to
  /// `goal` [m]; >= 0, and 0 when the relative pose falls off the lattice
  /// or is not finite.
  double value(const geom::Pose2& pose, const geom::Pose2& goal) const;
  /// Same bound for an explicit goal-frame relative pose.
  double value_rel(double dx, double dy, double dtheta) const;
  /// Fresh exact RS solve for the same relative pose (tests compare
  /// value_rel against this).
  double exact_rel(double dx, double dy, double dtheta) const;

 private:
  std::size_t index(int ix, int iy, int it) const {
    return (static_cast<std::size_t>(it) * nx_ + iy) * nx_ + ix;
  }

  /// Stencil minimum of entry (ix, iy, it): the RS lengths at the cell
  /// centre and its four xy-corners, each at the bin heading and both bin
  /// faces.
  float stencil_min(int ix, int iy, int it) const;

  /// Marks an entry not yet filled; RS lengths are >= 0.
  static constexpr float kUnfilled = -1.0f;

  RsLutSpec spec_;
  int cells_ = 0;       ///< lattice points per half-axis
  int nx_ = 0;          ///< lattice points per axis (2 * cells_ + 1)
  double slack_ = 0.0;
  /// RS stencil minimum [m] or kUnfilled, x-major within heading slab.
  mutable std::vector<std::atomic<float>> table_;
};

/// Obstacle-aware holonomic cost-to-go: one 8-connected Dijkstra sweep from
/// the goal cell over a DistanceField occupancy raster. A cell is blocked
/// when the EDT proves a vehicle disc of radius `inflation` cannot sit at
/// its centre; everything uncertain stays free, keeping the grid distance a
/// lower bound on real path length through it. cost_to_go() deflates the
/// octile grid distance by cos(pi/8) (an 8-connected shortest path
/// overestimates the euclidean shortest path by at most 1/cos(pi/8)) and
/// subtracts the cell-quantization slack, so the result lower-bounds the
/// arc length of ANY collision-free path to the goal — which is what makes
/// it admissible for the primitive search, and what lets it see dead ends.
class DijkstraCostMap {
 public:
  /// 8-connected shortest-path deflation: octile / euclidean <= 1 / cos(pi/8).
  static constexpr double kOctileDeflate = 0.92387953251128674;

  DijkstraCostMap(const world::DistanceField& field, geom::Vec2 goal,
                  double inflation);

  int width() const { return width_; }
  int height() const { return height_; }
  double resolution() const { return resolution_; }
  geom::Vec2 origin() const { return origin_; }
  bool goal_reached() const { return goal_in_grid_; }

  /// Admissible lower bound on collision-free path length from `p` to the
  /// goal [m], or a negative value when the bound is unknown (p outside the
  /// grid, in a blocked cell, or unreachable from the goal) — callers fall
  /// back to their other heuristic terms, never prune.
  double cost_to_go(geom::Vec2 p) const;

  /// Raw (undeflated) grid distance of cell (ix, iy) [m]; negative when
  /// blocked or unreachable. Exposed for the brute-force admissibility test.
  double cell_cost(int ix, int iy) const;
  bool blocked(int ix, int iy) const {
    return blocked_[static_cast<std::size_t>(iy) * width_ + ix] != 0;
  }

 private:
  int width_ = 0;
  int height_ = 0;
  double resolution_ = 1.0;
  double slack_ = 0.0;        ///< start+goal in-cell quantization [m]
  geom::Vec2 origin_;
  bool goal_in_grid_ = false;
  std::vector<std::uint8_t> blocked_;
  std::vector<float> cost_;   ///< octile distance from goal [m], row-major
};

}  // namespace icoil::co
