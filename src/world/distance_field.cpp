#include "world/distance_field.hpp"

#include <algorithm>
#include <cmath>

namespace icoil::world {

namespace {

/// Squared-distance sentinel for "no occupied cell seen yet" — far above
/// any reachable squared cell distance, far below double overflow when the
/// parabola intersection arithmetic touches it.
constexpr double kInfSq = 1e18;

/// One pass of the Felzenszwalb–Huttenlocher exact 1D squared-distance
/// transform: d[q] = min_p (q - p)^2 + f[p], via the lower envelope of the
/// parabolas rooted at each sample. `v`/`z` are caller-provided scratch
/// (parabola apex indices / envelope boundaries) of size n and n + 1.
void edt_1d(const double* f, double* d, int* v, double* z, int n) {
  int k = 0;
  v[0] = 0;
  z[0] = -kInfSq;
  z[1] = kInfSq;
  for (int q = 1; q < n; ++q) {
    double s;
    for (;;) {
      const int p = v[k];
      s = ((f[q] + static_cast<double>(q) * q) -
           (f[p] + static_cast<double>(p) * p)) /
          (2.0 * q - 2.0 * p);
      if (s <= z[k] && k > 0) {
        --k;
        continue;
      }
      break;
    }
    ++k;
    v[k] = q;
    z[k] = s;
    z[k + 1] = kInfSq;
  }
  k = 0;
  for (int q = 0; q < n; ++q) {
    while (z[k + 1] < q) ++k;
    const double dq = q - v[k];
    d[q] = dq * dq + f[v[k]];
  }
}

}  // namespace

DistanceField::DistanceField(const geom::Aabb& bounds,
                             const std::vector<geom::Obb>& statics,
                             double resolution) {
  resolution_ = std::max(1e-3, resolution);
  slack_ = std::sqrt(2.0) * resolution_;
  // Pad the raster a couple of cells past the lot bounds so queries whose
  // footprint grazes the boundary still resolve instead of falling back.
  const double pad = 2.0 * resolution_;
  const geom::Aabb area = bounds.inflated(pad);
  origin_ = area.min;
  width_ = std::max(1, static_cast<int>(std::ceil(area.width() / resolution_)));
  height_ = std::max(1, static_cast<int>(std::ceil(area.height() / resolution_)));

  // Mark every cell whose centre lies within an obstacle inflated by the
  // half cell diagonal: every point of the true obstacle then lives in a
  // marked cell (the conservativeness contract callers rely on).
  std::vector<std::uint8_t> occupied(
      static_cast<std::size_t>(width_) * height_, 0);
  const double dilation = 0.5 * std::sqrt(2.0) * resolution_;
  for (const geom::Obb& box : statics) {
    const geom::Obb fat = box.inflated(dilation);
    const geom::Aabb bb = fat.aabb();
    const int x0 = std::max(
        0, static_cast<int>(std::floor((bb.min.x - origin_.x) / resolution_)));
    const int y0 = std::max(
        0, static_cast<int>(std::floor((bb.min.y - origin_.y) / resolution_)));
    const int x1 = std::min(
        width_ - 1,
        static_cast<int>(std::ceil((bb.max.x - origin_.x) / resolution_)));
    const int y1 = std::min(
        height_ - 1,
        static_cast<int>(std::ceil((bb.max.y - origin_.y) / resolution_)));
    for (int iy = y0; iy <= y1; ++iy) {
      const double cy = origin_.y + (iy + 0.5) * resolution_;
      for (int ix = x0; ix <= x1; ++ix) {
        const double cx = origin_.x + (ix + 0.5) * resolution_;
        if (fat.contains({cx, cy}))
          occupied[static_cast<std::size_t>(iy) * width_ + ix] = 1;
      }
    }
  }
  build_edt(occupied);
}

DistanceField DistanceField::from_raster(
    geom::Vec2 origin, int width, int height, double resolution,
    const std::vector<std::uint8_t>& occupied) {
  DistanceField field;
  field.resolution_ = std::max(1e-3, resolution);
  field.slack_ = std::sqrt(2.0) * field.resolution_;
  field.origin_ = origin;
  field.width_ = std::max(0, width);
  field.height_ = std::max(0, height);
  field.build_edt(occupied);
  return field;
}

void DistanceField::build_edt(const std::vector<std::uint8_t>& occupied) {
  const std::size_t cells = static_cast<std::size_t>(width_) * height_;
  distance_.assign(cells, static_cast<float>(geom::kMaxClearance));
  // Cells past the end of a short raster count as free.
  const std::size_t given = std::min(cells, occupied.size());
  auto is_occupied = [&](std::size_t i) {
    return i < given && occupied[i] != 0;
  };
  bool any_occupied = false;
  for (std::size_t i = 0; i < given && !any_occupied; ++i)
    any_occupied = is_occupied(i);
  if (!any_occupied) return;

  // Two-pass exact EDT over squared distances in cell units: columns first,
  // then rows of the column result.
  std::vector<double> sq(cells);
  const int n = std::max(width_, height_);
  std::vector<double> f(n), d(n), z(n + 1);
  std::vector<int> v(n);

  for (int ix = 0; ix < width_; ++ix) {
    for (int iy = 0; iy < height_; ++iy)
      f[iy] = is_occupied(static_cast<std::size_t>(iy) * width_ + ix)
                  ? 0.0
                  : kInfSq;
    edt_1d(f.data(), d.data(), v.data(), z.data(), height_);
    for (int iy = 0; iy < height_; ++iy)
      sq[static_cast<std::size_t>(iy) * width_ + ix] = d[iy];
  }
  for (int iy = 0; iy < height_; ++iy) {
    double* row = sq.data() + static_cast<std::size_t>(iy) * width_;
    std::copy(row, row + width_, f.data());
    edt_1d(f.data(), d.data(), v.data(), z.data(), width_);
    for (int ix = 0; ix < width_; ++ix)
      row[ix] = d[ix];
  }

  for (std::size_t i = 0; i < cells; ++i)
    distance_[i] = static_cast<float>(
        std::min(std::sqrt(sq[i]) * resolution_, geom::kMaxClearance));
}

}  // namespace icoil::world
