#pragma once

#include <cstdint>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/broadphase.hpp"
#include "geom/obb.hpp"
#include "geom/vec2.hpp"

namespace icoil::world {

/// A grid occupancy raster of static oriented-box obstacles with an exact
/// Euclidean distance transform (Felzenszwalb–Huttenlocher two-pass EDT):
/// every cell stores the distance from its centre to the nearest occupied
/// cell centre. The planner's Dijkstra cost-to-go (co::DijkstraCostMap)
/// rasterizes the static obstacles once per cached (lot, goal) map, reads
/// it per cell while sweeping, and keeps only the swept costs.
///
/// Conservativeness contract: the raster marks every cell whose centre lies
/// within an obstacle inflated by the half cell diagonal, so every obstacle
/// point lies in a marked cell. For any point p in cell c,
/// cell_distance(c) - conservative_slack() (raster dilation + in-cell
/// quantization, together sqrt(2) * resolution) is a LOWER bound on the
/// true distance from p to the obstacles.
class DistanceField {
 public:
  DistanceField() = default;

  /// Rasterize `statics` over `bounds` (plus a small pad) at `resolution`
  /// [m/cell] and build the EDT. An empty obstacle set yields an all-free
  /// field whose lookups return geom::kMaxClearance.
  DistanceField(const geom::Aabb& bounds, const std::vector<geom::Obb>& statics,
                double resolution);

  /// Build from an explicit row-major occupancy raster (tests, goldens):
  /// `occupied[iy * width + ix]` nonzero marks the cell at centre
  /// origin + (ix + 0.5, iy + 0.5) * resolution. No extra dilation is
  /// applied; conservative_slack() still assumes the caller rasterized
  /// conservatively.
  static DistanceField from_raster(geom::Vec2 origin, int width, int height,
                                   double resolution,
                                   const std::vector<std::uint8_t>& occupied);

  int width() const { return width_; }
  int height() const { return height_; }
  double resolution() const { return resolution_; }
  geom::Vec2 origin() const { return origin_; }

  /// Raw EDT value: distance [m] from the centre of cell (ix, iy) to the
  /// nearest occupied cell centre (geom::kMaxClearance when the raster has
  /// no occupied cell). Precondition: 0 <= ix < width, 0 <= iy < height.
  double cell_distance(int ix, int iy) const {
    return distance_[static_cast<std::size_t>(iy) * width_ + ix];
  }

  /// The slack to subtract from a raw EDT lookup for a lower bound at any
  /// point of the cell: raster dilation (half cell diagonal) + in-cell
  /// quantization (half cell diagonal) = sqrt(2) * resolution.
  double conservative_slack() const { return slack_; }

 private:
  void build_edt(const std::vector<std::uint8_t>& occupied);

  int width_ = 0;
  int height_ = 0;
  double resolution_ = 0.0;
  double slack_ = 0.0;
  geom::Vec2 origin_;           ///< world position of the raster corner
  std::vector<float> distance_;  ///< EDT at cell centres [m], row-major
};

}  // namespace icoil::world
