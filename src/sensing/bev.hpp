#pragma once

#include <cstddef>
#include <vector>

#include "geom/pose2.hpp"
#include "world/world.hpp"

namespace icoil::sense {

/// Geometry of the ego-centric BEV raster: `range` metres are mapped onto a
/// `size` x `size` grid with the ego at the centre, ego heading pointing
/// toward +row (up).
struct BevSpec {
  int size = 64;          ///< pixels per side
  double range = 24.0;    ///< metres covered per side
  double metres_per_pixel() const { return range / size; }
};

/// Channel layout of the BEV image.
enum BevChannel : int {
  kBevObstacles = 0,  ///< obstacle occupancy
  kBevGoal = 1,       ///< goal-bay mask
  kBevBounds = 2,     ///< out-of-lot mask
  kBevChannels = 3,
};

/// A float image in CHW layout, values in [0, 1]. This is `y_i = g(x_i)` of
/// the paper: the input the IL DNN consumes.
class BevImage {
 public:
  BevImage() = default;
  BevImage(int channels, int size) : channels_(channels), size_(size),
                                     data_(static_cast<std::size_t>(channels) * size * size, 0.0f) {}

  int channels() const { return channels_; }
  int size() const { return size_; }
  std::size_t num_values() const { return data_.size(); }

  float& at(int c, int row, int col) {
    return data_[(static_cast<std::size_t>(c) * size_ + row) * size_ + col];
  }
  float at(int c, int row, int col) const {
    return data_[(static_cast<std::size_t>(c) * size_ + row) * size_ + col];
  }

  std::vector<float>& data() { return data_; }
  const std::vector<float>& data() const { return data_; }

  /// Mean of one channel (useful for tests / uncertainty baselines).
  float channel_mean(int c) const;

 private:
  int channels_ = 0;
  int size_ = 0;
  std::vector<float> data_;
};

/// The BEV transformer `g`: rasterizes the world's ground-truth geometry into
/// an ego-centric multi-channel image. Replaces the camera + BEV network of
/// the paper's pipeline (see DESIGN.md substitutions).
class BevRasterizer {
 public:
  explicit BevRasterizer(BevSpec spec = {}) : spec_(spec) {}

  const BevSpec& spec() const { return spec_; }

  /// Render the scene as observed from `ego_pose`: a pixel is lit when its
  /// centre (pixel_to_world) lies in a box by Obb::contains. Each box is
  /// tested only inside its padded pixel rectangle; the image is bit-identical
  /// to testing every box at every pixel.
  BevImage render(const world::World& world, const geom::Pose2& ego_pose) const;

  /// World coordinates of a pixel centre as seen from `ego_pose`.
  geom::Vec2 pixel_to_world(const geom::Pose2& ego_pose, int row, int col) const;

 private:
  BevSpec spec_;
};

}  // namespace icoil::sense
