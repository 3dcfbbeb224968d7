#include "il/dataset.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <fstream>

#include "il/action.hpp"

namespace icoil::il {

void Dataset::append(const Dataset& other) {
  std::vector<std::int16_t> remap(other.family_names_.size(), -1);
  for (std::size_t i = 0; i < other.family_names_.size(); ++i)
    remap[i] = static_cast<std::int16_t>(intern_family(other.family_names_[i]));
  samples_.reserve(samples_.size() + other.samples_.size());
  for (const Sample& s : other.samples_) {
    Sample copy = s;
    copy.family =
        (s.family >= 0 &&
         static_cast<std::size_t>(s.family) < remap.size())
            ? remap[static_cast<std::size_t>(s.family)]
            : std::int16_t{-1};
    samples_.push_back(std::move(copy));
  }
}

int Dataset::intern_family(const std::string& name) {
  for (std::size_t i = 0; i < family_names_.size(); ++i)
    if (family_names_[i] == name) return static_cast<int>(i);
  family_names_.push_back(name);
  return static_cast<int>(family_names_.size()) - 1;
}

const std::string& Dataset::family_name(int index) const {
  static const std::string kUnknown = "unknown";
  if (index < 0 || static_cast<std::size_t>(index) >= family_names_.size())
    return kUnknown;
  return family_names_[static_cast<std::size_t>(index)];
}

std::vector<std::size_t> Dataset::class_histogram(int num_classes) const {
  std::vector<std::size_t> hist(static_cast<std::size_t>(num_classes), 0);
  for (const Sample& s : samples_)
    if (s.label >= 0 && s.label < num_classes) ++hist[static_cast<std::size_t>(s.label)];
  return hist;
}

std::map<std::string, std::size_t> Dataset::family_histogram() const {
  std::map<std::string, std::size_t> hist;
  for (const Sample& s : samples_) ++hist[family_name(s.family)];
  return hist;
}

void Dataset::shuffle(math::Rng& rng) {
  std::shuffle(samples_.begin(), samples_.end(), rng.engine());
}

std::pair<Dataset, Dataset> Dataset::split(double validation_fraction) const {
  const std::size_t val_count = static_cast<std::size_t>(
      static_cast<double>(samples_.size()) * validation_fraction);
  const std::size_t train_count = samples_.size() - val_count;
  Dataset train, val;
  train.family_names_ = family_names_;
  val.family_names_ = family_names_;
  train.reserve(train_count);
  val.reserve(val_count);
  for (std::size_t i = 0; i < samples_.size(); ++i)
    (i < train_count ? train : val).add(samples_[i]);
  return {std::move(train), std::move(val)};
}

std::pair<nn::Tensor, std::vector<int>> Dataset::make_batch(std::size_t begin,
                                                            std::size_t count) const {
  assert(begin + count <= samples_.size() && count > 0);
  const sense::BevImage& first = samples_[begin].observation;
  const int c = first.channels(), s = first.size();
  nn::Tensor batch({static_cast<int>(count), c, s, s});
  std::vector<int> labels(count);
  const std::size_t stride = first.num_values();
  for (std::size_t i = 0; i < count; ++i) {
    const Sample& sample = samples_[begin + i];
    assert(sample.observation.num_values() == stride);
    std::copy(sample.observation.data().begin(), sample.observation.data().end(),
              batch.data() + i * stride);
    labels[i] = sample.label;
  }
  return {std::move(batch), std::move(labels)};
}

namespace {
// The only magic load() accepts. v1 (0x1C011D5E, no provenance) and v2
// (0x1C011D5F, a codec with no code for 0) files fail to load.
constexpr std::uint32_t kDatasetMagicV3 = 0x1C011D60u;
static_assert(Dataset::kFormatVersion == 3,
              "save() writes kDatasetMagicV3; keep the two in step");

// Values are clamped to [-1, 1] and stored as q = round(127 v) + 127 in
// [0, 254], so -1, 0 and 1 (every occupancy pixel) round-trip exactly and
// the speed channel is within half a step, 1/254.
std::uint8_t encode(float v) {
  const float clamped = std::clamp(v, -1.0f, 1.0f);
  return static_cast<std::uint8_t>(std::lround(clamped * 127.0f) + 127);
}
float decode(std::uint8_t q) {
  return static_cast<float>(static_cast<int>(q) - 127) / 127.0f;
}
}  // namespace

void Dataset::quantize() {
  for (Sample& s : samples_)
    for (float& v : s.observation.data()) v = decode(encode(v));
}

bool Dataset::save(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const std::uint32_t n = static_cast<std::uint32_t>(samples_.size());
  const std::uint32_t channels =
      samples_.empty() ? 0 : static_cast<std::uint32_t>(samples_[0].observation.channels());
  const std::uint32_t size =
      samples_.empty() ? 0 : static_cast<std::uint32_t>(samples_[0].observation.size());
  f.write(reinterpret_cast<const char*>(&kDatasetMagicV3), sizeof(kDatasetMagicV3));
  f.write(reinterpret_cast<const char*>(&n), sizeof(n));
  f.write(reinterpret_cast<const char*>(&channels), sizeof(channels));
  f.write(reinterpret_cast<const char*>(&size), sizeof(size));
  const std::uint32_t families = static_cast<std::uint32_t>(family_names_.size());
  f.write(reinterpret_cast<const char*>(&families), sizeof(families));
  for (const std::string& name : family_names_) {
    const std::uint32_t len = static_cast<std::uint32_t>(name.size());
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    f.write(name.data(), static_cast<std::streamsize>(name.size()));
  }
  std::vector<std::uint8_t> buffer;
  for (const Sample& s : samples_) {
    const std::int32_t label = s.label;
    f.write(reinterpret_cast<const char*>(&label), sizeof(label));
    f.write(reinterpret_cast<const char*>(&s.family), sizeof(s.family));
    f.write(reinterpret_cast<const char*>(&s.difficulty), sizeof(s.difficulty));
    buffer.resize(s.observation.num_values());
    for (std::size_t i = 0; i < buffer.size(); ++i)
      buffer[i] = encode(s.observation.data()[i]);
    f.write(reinterpret_cast<const char*>(buffer.data()),
            static_cast<std::streamsize>(buffer.size()));
  }
  return static_cast<bool>(f);
}

bool Dataset::load(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) return false;
  std::uint32_t magic = 0, n = 0, channels = 0, size = 0;
  f.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  f.read(reinterpret_cast<char*>(&n), sizeof(n));
  f.read(reinterpret_cast<char*>(&channels), sizeof(channels));
  f.read(reinterpret_cast<char*>(&size), sizeof(size));
  if (magic != kDatasetMagicV3 || !f) return false;

  std::uint32_t count = 0;
  f.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!f || count > 0xFFFF) return false;
  std::vector<std::string> families;
  families.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t len = 0;
    f.read(reinterpret_cast<char*>(&len), sizeof(len));
    if (!f || len > 4096) return false;
    std::string name(len, '\0');
    f.read(name.data(), static_cast<std::streamsize>(len));
    if (!f) return false;
    families.push_back(std::move(name));
  }

  // Every record has the same size, so the header must account for the
  // rest of the file exactly before anything is allocated from it.
  const std::streamoff body_start = f.tellg();
  f.seekg(0, std::ios::end);
  const std::streamoff file_end = f.tellg();
  f.seekg(body_start);
  if (!f || body_start < 0 || file_end < body_start) return false;
  const std::uint64_t remaining =
      static_cast<std::uint64_t>(file_end - body_start);
  if (channels > 0xFFFF || size > 0xFFFF) return false;
  const std::uint64_t pixels = std::uint64_t{channels} * size * size;
  if (n > 0 && pixels == 0) return false;
  const std::uint64_t record = sizeof(std::int32_t) + sizeof(Sample::family) +
                               sizeof(Sample::difficulty) + pixels;
  if (remaining % record != 0 || remaining / record != n) return false;

  std::vector<Sample> loaded;
  loaded.reserve(n);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(pixels));
  for (std::uint32_t i = 0; i < n; ++i) {
    std::int32_t label = 0;
    f.read(reinterpret_cast<char*>(&label), sizeof(label));
    Sample s;
    f.read(reinterpret_cast<char*>(&s.family), sizeof(s.family));
    f.read(reinterpret_cast<char*>(&s.difficulty), sizeof(s.difficulty));
    f.read(reinterpret_cast<char*>(buffer.data()),
           static_cast<std::streamsize>(buffer.size()));
    if (!f || label < 0 || label >= ActionDiscretizer::num_classes())
      return false;
    s.observation = sense::BevImage(static_cast<int>(channels), static_cast<int>(size));
    for (std::size_t j = 0; j < buffer.size(); ++j)
      s.observation.data()[j] = decode(buffer[j]);
    s.label = label;
    if (s.family >= 0 && static_cast<std::size_t>(s.family) >= families.size())
      s.family = -1;
    loaded.push_back(std::move(s));
  }
  samples_ = std::move(loaded);
  family_names_ = std::move(families);
  return true;
}

}  // namespace icoil::il
