#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace icoil::nn {

namespace {

// Format 2: Dense weights are stored (in_features, out_features). Format 1
// files hold them (out, in); a square Dense layer would accept one of those
// transposed, so the old magic is rejected outright.
constexpr std::uint32_t kMagic = 0x1C011A12u;

/// Bounds-checked cursor over a whole file held in memory.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  bool read(T& value) {
    const char* src = take(sizeof(T));
    if (src == nullptr) return false;
    std::memcpy(&value, src, sizeof(T));
    return true;
  }

  /// Consumes `n` bytes and returns where they start, or nullptr when fewer
  /// than `n` remain.
  const char* take(std::size_t n) {
    if (bytes_.size() - pos_ < n) return nullptr;
    const char* at = bytes_.data() + pos_;
    pos_ += n;
    return at;
  }

  bool at_end() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

/// The file's bytes; empty when it cannot be read (a directory, say), which
/// the magic check then rejects. Streamed rather than sized up front: a
/// directory's reported size can be huge.
std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream bytes;
  if (f) bytes << f.rdbuf();
  return std::move(bytes).str();
}

}  // namespace

bool save_params(Sequential& net, const std::string& path) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  const auto params = net.params();
  const std::uint32_t count = static_cast<std::uint32_t>(params.size());
  f.write(reinterpret_cast<const char*>(&kMagic), sizeof(kMagic));
  f.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (Param* p : params) {
    const auto& shape = p->value.shape();
    const std::uint32_t ndim = static_cast<std::uint32_t>(shape.size());
    f.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
    for (int d : shape) {
      const std::int32_t v = d;
      f.write(reinterpret_cast<const char*>(&v), sizeof(v));
    }
    f.write(reinterpret_cast<const char*>(p->value.data()),
            static_cast<std::streamsize>(p->value.size() * sizeof(float)));
  }
  return static_cast<bool>(f);
}

bool load_params(Sequential& net, const std::string& path) {
  const std::string bytes = read_file(path);
  Reader r(bytes);
  const auto params = net.params();
  std::uint32_t magic = 0, count = 0;
  if (!r.read(magic) || !r.read(count) || magic != kMagic ||
      count != params.size())
    return false;

  // Check the whole file before writing any parameter, so a rejected file
  // leaves the network exactly as it was.
  std::vector<const char*> payloads;
  payloads.reserve(params.size());
  for (Param* p : params) {
    const auto& shape = p->value.shape();
    std::uint32_t ndim = 0;
    if (!r.read(ndim) || ndim != shape.size()) return false;
    for (int d : shape) {
      std::int32_t v = 0;
      if (!r.read(v) || v != d) return false;
    }
    const char* payload = r.take(p->value.size() * sizeof(float));
    if (payload == nullptr) return false;
    payloads.push_back(payload);
  }
  if (!r.at_end()) return false;

  for (std::size_t k = 0; k < params.size(); ++k)
    std::memcpy(params[k]->value.data(), payloads[k],
                params[k]->value.size() * sizeof(float));
  return true;
}

}  // namespace icoil::nn
