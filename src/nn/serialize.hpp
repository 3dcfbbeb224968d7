#pragma once

#include <string>

#include "nn/sequential.hpp"

namespace icoil::nn {

/// Save every parameter tensor of `net` to a flat binary file
/// (magic + count + per-tensor shape + float32 payload). Returns false on
/// I/O error.
bool save_params(Sequential& net, const std::string& path);

/// Load parameters saved by `save_params`. The network must already be built
/// with identical architecture. All or nothing: the whole file (magic,
/// count, every shape and payload, no trailing bytes) is checked before any
/// parameter is written, so on a false return — mismatch, truncation or
/// I/O error — `net` is unchanged.
bool load_params(Sequential& net, const std::string& path);

}  // namespace icoil::nn
