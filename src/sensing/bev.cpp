#include "sensing/bev.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace icoil::sense {

float BevImage::channel_mean(int c) const {
  const std::size_t plane = static_cast<std::size_t>(size_) * size_;
  const float* p = data_.data() + static_cast<std::size_t>(c) * plane;
  float acc = 0.0f;
  for (std::size_t i = 0; i < plane; ++i) acc += p[i];
  return acc / static_cast<float>(plane);
}

geom::Vec2 BevRasterizer::pixel_to_world(const geom::Pose2& ego_pose, int row,
                                         int col) const {
  const double mpp = spec_.metres_per_pixel();
  const double half = spec_.range * 0.5;
  // Local frame: x forward (+row up in the image), y left (+col left->right
  // maps to -y ... +y reversed so the image reads naturally).
  const double lx = half - (row + 0.5) * mpp;
  const double ly = half - (col + 0.5) * mpp;
  return ego_pose.to_world({lx, ly});
}

// Every pixel centre is the world point pixel_to_world returns and every box
// test is Obb::contains, evaluated term for term with the rotations hoisted
// out of the pixel loops, so the image is bit-identical to testing every box
// at every pixel. A box is tested only on the pixels of its corners' pixel
// rectangle, padded by one pixel against rounding and clamped to the image.
BevImage BevRasterizer::render(const world::World& world,
                               const geom::Pose2& ego_pose) const {
  const int n = spec_.size;
  BevImage img(kBevChannels, n);
  const double mpp = spec_.metres_per_pixel();
  const double half = spec_.range * 0.5;
  const geom::Vec2 ego = ego_pose.position;
  const double ec = std::cos(ego_pose.heading);
  const double es = std::sin(ego_pose.heading);

  // to_world({lx, ly}) = ego + {ec*lx - es*ly, es*lx + ec*ly}, where
  // lx = l[row] and ly = l[col] for the same l[i] = half - (i + 0.5) * mpp.
  std::vector<double> cl(n), sl(n);
  for (int i = 0; i < n; ++i) {
    const double l = half - (i + 0.5) * mpp;
    cl[i] = ec * l;
    sl[i] = es * l;
  }
  const auto pixel = [&](int r, int c) -> geom::Vec2 {
    return ego + geom::Vec2{cl[r] - sl[c], sl[r] + cl[c]};
  };

  const auto fill = [&](const geom::Obb& box, int channel) {
    // Pixel coordinates of the corners: row = (half - lx) / mpp - 0.5 and
    // col = (half - ly) / mpp - 0.5 for the ego-frame point (lx, ly).
    double rmin = 1e300, rmax = -1e300, cmin = 1e300, cmax = -1e300;
    for (const geom::Vec2& corner : box.corners()) {
      const geom::Vec2 d = corner - ego;
      const double lx = ec * d.x + es * d.y;
      const double ly = ec * d.y - es * d.x;
      const double r = (half - lx) / mpp - 0.5;
      const double c = (half - ly) / mpp - 0.5;
      rmin = std::min(rmin, r);
      rmax = std::max(rmax, r);
      cmin = std::min(cmin, c);
      cmax = std::max(cmax, c);
    }
    // Clamp in floating point: a box far outside the window must not
    // overflow the int conversion.
    const double r0 = std::max(std::floor(rmin) - 1.0, 0.0);
    const double r1 = std::min(std::ceil(rmax) + 1.0, n - 1.0);
    const double c0 = std::max(std::floor(cmin) - 1.0, 0.0);
    const double c1 = std::min(std::ceil(cmax) + 1.0, n - 1.0);
    if (!(r0 <= r1 && c0 <= c1)) return;

    // Obb::contains: (p - center).rotated(-heading) inside the half extents.
    const double bc = std::cos(-box.heading);
    const double bs = std::sin(-box.heading);
    for (int r = static_cast<int>(r0); r <= static_cast<int>(r1); ++r)
      for (int c = static_cast<int>(c0); c <= static_cast<int>(c1); ++c) {
        const geom::Vec2 d = pixel(r, c) - box.center;
        if (std::abs(bc * d.x - bs * d.y) <= box.half_length &&
            std::abs(bs * d.x + bc * d.y) <= box.half_width)
          img.at(channel, r, c) = 1.0f;
      }
  };

  for (const geom::Obb& b : world.static_obstacle_set().boxes())
    fill(b, kBevObstacles);
  for (const geom::Obb& b : world.dynamic_boxes()) fill(b, kBevObstacles);
  fill(world.map().goal_bay(), kBevGoal);

  const geom::Aabb& bounds = world.map().bounds;
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      if (!bounds.contains(pixel(r, c))) img.at(kBevBounds, r, c) = 1.0f;
  return img;
}

}  // namespace icoil::sense
