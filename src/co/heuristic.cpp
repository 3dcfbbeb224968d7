#include "co/heuristic.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>

#include "co/reeds_shepp.hpp"
#include "geom/angles.hpp"

namespace icoil::co {

RsHeuristicLut::RsHeuristicLut(const RsLutSpec& spec) : spec_(spec) {
  spec_.xy_resolution = std::max(1e-2, spec_.xy_resolution);
  spec_.extent = std::max(spec_.xy_resolution, spec_.extent);
  spec_.heading_bins = std::max(1, spec_.heading_bins);
  spec_.radius = std::max(1e-2, spec_.radius);
  cells_ = static_cast<int>(std::ceil(spec_.extent / spec_.xy_resolution));
  nx_ = 2 * cells_ + 1;

  // A query rounds to the nearest lattice point, so each table entry must
  // lower-bound the RS length over the whole quantization box
  // (±res/2, ±res/2, ±hbin/2) around it. A triangle-inequality slack is
  // useless here: the RS metric prices tiny LATERAL offsets at parking-
  // manoeuvre lengths (metres for centimetres), which would swamp the
  // table. Instead each entry stores the MINIMUM over a 15-point stencil
  // of its quantization box (see stencil_min()), so quantization biases the value
  // downward by construction. A small residual margin (slack_) covers dips
  // between stencil samples; away from the goal the length function is
  // ~1-Lipschitz in position, so a fraction of the cell diagonal suffices.
  slack_ = kResidualMarginCells * spec_.xy_resolution;

  table_ = std::vector<std::atomic<float>>(
      static_cast<std::size_t>(nx_) * nx_ * spec_.heading_bins);
  for (std::atomic<float>& entry : table_)
    entry.store(kUnfilled, std::memory_order_relaxed);
}

float RsHeuristicLut::stencil_min(int ix, int iy, int it) const {
  const ReedsShepp rs(spec_.radius);
  const auto solve = [&](double dx, double dy, double dtheta) {
    const auto path = rs.shortest_path({dx, dy, dtheta}, {0.0, 0.0, 0.0});
    return path ? static_cast<float>(rs.length(*path)) : 0.0f;
  };
  const int bins = spec_.heading_bins;
  const double res = spec_.xy_resolution;
  const double hbin = geom::kTwoPi / bins;
  // The bin heading, the face below bin it and the face above it (= the
  // face below bin it+1, wrapping). Corner (cx, cy) is the (-res/2, -res/2)
  // corner of cell (cx, cy), so cell (ix, iy) spans corners ix..ix+1 and
  // iy..iy+1. Each sample coordinate is computed from its own lattice index
  // (index times res, then the half-cell offset), never by stepping from a
  // neighbouring sample, so entries match the eager oracle in
  // planner_heuristic_test bit for bit.
  const int it_up = (it + 1) % bins;
  const double headings[3] = {it * hbin, (it - 0.5) * hbin,
                              (it_up - 0.5) * hbin};
  const double xc = (ix - cells_) * res;
  const double yc = (iy - cells_) * res;
  float v = std::numeric_limits<float>::infinity();
  for (const double th : headings) {
    v = std::min(v, solve(xc, yc, th));
    for (int cy = iy; cy <= iy + 1; ++cy) {
      const double yf = (cy - cells_) * res - 0.5 * res;
      for (int cx = ix; cx <= ix + 1; ++cx) {
        const double xf = (cx - cells_) * res - 0.5 * res;
        v = std::min(v, solve(xf, yf, th));
      }
    }
  }
  return v;
}

namespace {

/// The process-wide LUT cache. Leaked on purpose: planners on worker
/// threads may outlive static destruction order.
struct LutCache {
  std::mutex mutex;
  std::vector<std::shared_ptr<const RsHeuristicLut>> luts;
};
LutCache& lut_cache() {
  static LutCache* cache = new LutCache();
  return *cache;
}

}  // namespace

std::shared_ptr<const RsHeuristicLut> RsHeuristicLut::shared(
    const RsLutSpec& spec) {
  LutCache& cache = lut_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  for (const auto& lut : cache.luts)
    if (lut->spec() == spec) return lut;
  // Construction only allocates (entries fill on first read), so holding
  // the lock across it is cheap.
  cache.luts.push_back(std::make_shared<const RsHeuristicLut>(spec));
  return cache.luts.back();
}

std::size_t RsHeuristicLut::shared_cache_size() {
  LutCache& cache = lut_cache();
  std::lock_guard<std::mutex> lock(cache.mutex);
  return cache.luts.size();
}

double RsHeuristicLut::value(const geom::Pose2& pose,
                             const geom::Pose2& goal) const {
  const geom::Vec2 rel = goal.to_local(pose.position);
  return value_rel(rel.x, rel.y, pose.heading - goal.heading);
}

double RsHeuristicLut::value_rel(double dx, double dy, double dtheta) const {
  if (!std::isfinite(dx) || !std::isfinite(dy) || !std::isfinite(dtheta))
    return 0.0;
  // Bounds-check in double: converting an off-lattice offset to int first
  // can overflow and wrap back onto the lattice.
  const double qx = std::round(dx / spec_.xy_resolution);
  if (std::abs(qx) > cells_) return 0.0;
  const double qy = std::round(dy / spec_.xy_resolution);
  if (std::abs(qy) > cells_) return 0.0;
  const int ix = cells_ + static_cast<int>(qx);
  const int iy = cells_ + static_cast<int>(qy);
  const double hbin = geom::kTwoPi / spec_.heading_bins;
  const int it = static_cast<int>(std::lround(geom::wrap_angle_2pi(dtheta) /
                                              hbin)) %
                 spec_.heading_bins;
  std::atomic<float>& entry = table_[index(ix, iy, it)];
  float raw = entry.load(std::memory_order_relaxed);
  if (raw == kUnfilled) {
    raw = stencil_min(ix, iy, it);
    entry.store(raw, std::memory_order_relaxed);
  }
  return std::max(0.0, static_cast<double>(raw) - slack_);
}

double RsHeuristicLut::exact_rel(double dx, double dy, double dtheta) const {
  const ReedsShepp rs(spec_.radius);
  const auto path = rs.shortest_path({dx, dy, dtheta}, {0.0, 0.0, 0.0});
  return path ? rs.length(*path) : 0.0;
}

namespace {
constexpr float kUnreachable = std::numeric_limits<float>::infinity();
}  // namespace

DijkstraCostMap::DijkstraCostMap(const world::DistanceField& field,
                                 geom::Vec2 goal, double inflation)
    : width_(field.width()),
      height_(field.height()),
      resolution_(field.resolution()),
      origin_(field.origin()) {
  // Quantization slack: the query point and the goal each sit up to half a
  // cell diagonal from the cell centre the sweep measured between, so the
  // measured octile distance can exceed the true one by at most two
  // half-diagonals = sqrt(2) * resolution. Direction discretization is
  // already covered by the octile deflation in cost_to_go().
  slack_ = std::sqrt(2.0) * resolution_;
  const std::size_t cells = static_cast<std::size_t>(width_) * height_;
  blocked_.assign(cells, 0);
  cost_.assign(cells, kUnreachable);
  if (cells == 0) return;

  // A cell is provably infeasible for the axle point when even the most
  // favourable in-cell position plus raster dilation cannot reach the
  // required disc radius. Anything short of proof stays free: the sweep may
  // then underestimate (paths through uncertain cells), never overestimate.
  const double block_below = inflation - field.conservative_slack();
  for (int iy = 0; iy < height_; ++iy)
    for (int ix = 0; ix < width_; ++ix)
      if (field.cell_distance(ix, iy) < block_below)
        blocked_[static_cast<std::size_t>(iy) * width_ + ix] = 1;

  const int gx = static_cast<int>(std::floor((goal.x - origin_.x) / resolution_));
  const int gy = static_cast<int>(std::floor((goal.y - origin_.y) / resolution_));
  if (gx < 0 || gx >= width_ || gy < 0 || gy >= height_) return;
  const std::size_t gi = static_cast<std::size_t>(gy) * width_ + gx;
  if (blocked_[gi] != 0) return;
  goal_in_grid_ = true;

  // 8-connected Dijkstra from the goal cell, run as a Dial bucket sweep on
  // integer edge weights: straight = 58 ticks, diagonal = 82 ticks. Since
  // 82 = floor(58 * sqrt(2)), integer distances can only UNDERSHOOT the
  // exact octile distance (by < 0.04%) — slightly less tight, never
  // inadmissible — and monotone integer keys turn the O(log n) heap into
  // O(1) circular buckets. This build cost is what the planner's heuristic
  // pays on every plan() call, so it matters. Distances are exact integer
  // sums, so the sweep is deterministic regardless of platform.
  constexpr std::int32_t kStraightTicks = 58;
  constexpr std::int32_t kDiagTicks = 82;  // floor(58 * sqrt(2))
  constexpr std::int32_t kWindow = kDiagTicks + 1;
  const double tick = resolution_ / kStraightTicks;
  std::vector<std::int32_t> dist(cells,
                                 std::numeric_limits<std::int32_t>::max());
  std::array<std::vector<std::int32_t>, kWindow> buckets;
  dist[gi] = 0;
  buckets[0].push_back(static_cast<std::int32_t>(gi));
  std::size_t pending = 1;
  for (std::int32_t d = 0; pending > 0; ++d) {
    auto& bucket = buckets[d % kWindow];
    while (!bucket.empty()) {
      const std::int32_t idx = bucket.back();
      bucket.pop_back();
      --pending;
      if (dist[idx] != d) continue;  // stale (relaxed again since queued)
      const int cx = idx % width_;
      const int cy = idx / width_;
      for (int dy = -1; dy <= 1; ++dy) {
        const int ny = cy + dy;
        if (ny < 0 || ny >= height_) continue;
        for (int dx = -1; dx <= 1; ++dx) {
          if (dx == 0 && dy == 0) continue;
          const int nx = cx + dx;
          if (nx < 0 || nx >= width_) continue;
          const std::int32_t ni = static_cast<std::int32_t>(ny) * width_ + nx;
          if (blocked_[ni] != 0) continue;
          const std::int32_t nd =
              d + ((dx != 0 && dy != 0) ? kDiagTicks : kStraightTicks);
          if (nd < dist[ni]) {
            dist[ni] = nd;
            buckets[nd % kWindow].push_back(ni);
            ++pending;
          }
        }
      }
    }
  }
  // Truncate toward zero when quantizing: the stored cost must never exceed
  // the exact sweep distance, or the deflated lookup could overestimate.
  for (std::size_t i = 0; i < cells; ++i)
    if (dist[i] != std::numeric_limits<std::int32_t>::max())
      cost_[i] =
          std::nextafter(static_cast<float>(dist[i] * tick), 0.0f);
}

double DijkstraCostMap::cost_to_go(geom::Vec2 p) const {
  if (!goal_in_grid_) return -1.0;
  const int ix = static_cast<int>(std::floor((p.x - origin_.x) / resolution_));
  const int iy = static_cast<int>(std::floor((p.y - origin_.y) / resolution_));
  if (ix < 0 || ix >= width_ || iy < 0 || iy >= height_) return -1.0;
  const std::size_t i = static_cast<std::size_t>(iy) * width_ + ix;
  if (blocked_[i] != 0 || cost_[i] == kUnreachable) return -1.0;
  return std::max(0.0, kOctileDeflate * static_cast<double>(cost_[i]) - slack_);
}

double DijkstraCostMap::cell_cost(int ix, int iy) const {
  const std::size_t i = static_cast<std::size_t>(iy) * width_ + ix;
  if (blocked_[i] != 0 || cost_[i] == kUnreachable) return -1.0;
  return static_cast<double>(cost_[i]);
}

}  // namespace icoil::co
