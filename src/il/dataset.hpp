#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "mathkit/rng.hpp"
#include "nn/tensor.hpp"
#include "sensing/bev.hpp"

namespace icoil::il {

/// One behaviour-cloning sample: a BEV observation, the expert's discretized
/// action class, and recording provenance — which scenario family and
/// difficulty produced it. `family` indexes the owning Dataset's family-name
/// table (-1 = unknown, e.g. legacy files); `difficulty` is the numeric
/// value of world::Difficulty at record time.
struct Sample {
  sense::BevImage observation;
  int label = 0;
  std::int16_t family = -1;
  std::uint8_t difficulty = 0;
};

/// The demonstration dataset D of eq. (2). Stores samples, shuffles
/// deterministically, splits train/validation and assembles batch tensors.
/// Samples carry provenance (scenario family + difficulty) through
/// serialization so a trained policy's data composition can be reported and
/// filtered after the fact.
class Dataset {
 public:
  void add(Sample sample) { samples_.push_back(std::move(sample)); }
  void reserve(std::size_t n) { samples_.reserve(n); }

  /// Append every sample of `other`, remapping its family indices into this
  /// dataset's family table.
  void append(const Dataset& other);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  const Sample& operator[](std::size_t i) const { return samples_[i]; }

  /// Intern a scenario-family name, returning its index for Sample::family.
  int intern_family(const std::string& name);
  /// Family-name table; Sample::family indexes into it.
  const std::vector<std::string>& family_names() const { return family_names_; }
  /// Name for a Sample::family index ("unknown" for -1 / out of range).
  const std::string& family_name(int index) const;

  /// Per-class sample counts (distribution diagnostics / class balance).
  std::vector<std::size_t> class_histogram(int num_classes) const;

  /// Sample counts keyed by scenario-family name (legacy samples without
  /// provenance count under "unknown").
  std::map<std::string, std::size_t> family_histogram() const;

  /// The subset of samples recorded from scenario family `name`.
  Dataset filter_family(const std::string& name) const;

  void shuffle(math::Rng& rng);

  /// Split off the last `fraction` of samples as a validation set.
  std::pair<Dataset, Dataset> split(double validation_fraction) const;

  /// Assemble samples [begin, begin+count) into an input tensor (N,C,H,W)
  /// and a label vector.
  std::pair<nn::Tensor, std::vector<int>> make_batch(std::size_t begin,
                                                     std::size_t count) const;

  /// The file format `save` writes (3: provenance, and an 8-bit codec that
  /// stores -1, 0 and 1 exactly). Part of the dataset cache key.
  static constexpr int kFormatVersion = 3;

  /// Replace every observation value with the one `save` stores for it and
  /// `load` returns, so a fresh recording trains on exactly the data its
  /// saved file will hold.
  void quantize();

  /// Persist to a compact binary file, pixels quantized to 8 bits: the
  /// occupancy channels (0 or 1) are stored exactly, the speed channel to
  /// within 1/254. Returns false on I/O error.
  bool save(const std::string& path) const;
  /// Load a dataset saved by `save`. Replaces current contents. Accepts the
  /// current format, v2 (same layout, older codec: 0 decodes as 1/255) and
  /// the pre-provenance v1 format (whose samples load with family = -1).
  bool load(const std::string& path);

 private:
  std::vector<Sample> samples_;
  std::vector<std::string> family_names_;
};

}  // namespace icoil::il
