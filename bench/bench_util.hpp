#pragma once

// Shared helpers for the figure/table harnesses: trained-policy acquisition,
// episode-count overrides so quick runs are possible via environment
// variables (ICOIL_EPISODES, ICOIL_EPOCHS, ICOIL_EXPERT_EPISODES), strict
// CLI number parsing, the SIGINT abort token both drivers share, and the
// key spelling of numeric knobs in report tables.

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/cancel_token.hpp"
#include "sim/evaluator.hpp"
#include "sim/policy_store.hpp"

namespace icoil::bench {

inline int episodes_override(int fallback) {
  return sim::env_int_or("ICOIL_EPISODES", fallback);
}

/// Strict CLI int parse by the same convention as sim::env_int_or: trailing
/// junk is an error, not silently ignored (atoi would map "2x" to 2 and
/// "eight" to 0). Range checks stay at the call site.
inline bool parse_int_arg(const char* text, int* out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < -1000000000L ||
      value > 1000000000L)
    return false;
  *out = static_cast<int>(value);
  return true;
}

/// Strict CLI double parse. strtod accepts "nan"/"inf"; a NaN tolerance
/// would make every baseline comparison silently pass, so only finite
/// values count as parsed. Range checks stay at the call site.
inline bool parse_double_arg(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

/// The process-wide SIGINT abort token shared by the bench drivers. A
/// signal handler may only touch lock-free atomics; CancelToken::cancel is
/// one relaxed atomic store, so tripping it from the handler is
/// async-signal-safe. Everything else (draining workers, writing the
/// partial report) happens on the normal path once the fan-out observes it.
inline core::CancelToken& sigint_token() {
  static core::CancelToken token;
  return token;
}

/// Installs the SIGINT -> sigint_token() handler; call once from main.
inline void install_sigint_handler() {
  sigint_token();  // construct before the handler can fire
  std::signal(SIGINT, [](int) { sigint_token().cancel(); });
}

/// The shared trained policy (cached on disk next to the working directory).
inline std::unique_ptr<il::IlPolicy> shared_policy() {
  return sim::get_or_train_policy(sim::default_policy_options());
}

/// A numeric knob (density, resolution) as a metric-table key: the shortest
/// round-trip-stable spelling, so 1.25 and 1.3 stay distinct rows.
inline std::string number_key(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

}  // namespace icoil::bench
