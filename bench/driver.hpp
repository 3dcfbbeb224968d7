#pragma once

// The one skeleton behind the bench drivers (bench_suite, bench_serve,
// bench_planner, bench_mission): a declarative flag table with strict
// number parsing, range checks and a usage text generated from the table;
// the one CSV list splitter; RunReport provenance stamping; and the one way
// a run ends (report written -> exit 3 on I/O error, aborted -> 130,
// baseline regression or a failed driver gate -> 1). Also the shared
// trained-policy acquisition, the SIGINT abort token and the key spelling
// of numeric knobs in report tables.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cancel_token.hpp"
#include "sim/evaluator.hpp"
#include "sim/policy_store.hpp"
#include "sim/report.hpp"

namespace icoil::bench {

/// Strict number parses for flag values: the whole text must be the
/// number. An int is in [-1e9, 1e9] (atoi would map "2x" to 2 and "eight"
/// to 0). A double is finite: strtod accepts "nan"/"inf", and a NaN
/// tolerance would make every baseline comparison silently pass. An
/// unsigned 64-bit value is decimal digits only: strtoull skips whitespace
/// and accepts a sign, wrapping "-1" to 2^64-1.
inline bool parse_number(const char* text, int* out) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < -1000000000L ||
      value > 1000000000L)
    return false;
  *out = static_cast<int>(value);
  return true;
}

inline bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(*out);
}

inline bool parse_number(const char* text, std::uint64_t* out) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || errno == ERANGE) return false;
  *out = value;
  return true;
}

/// "a,,b," -> {"a", "b"}: empty items are dropped.
inline std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

/// One command-line flag. `metavar` names its value in the usage text; an
/// empty one makes the flag a switch that takes no value. `set` stores a
/// value and returns false when it is malformed or out of range (a switch
/// gets nullptr).
struct Flag {
  std::string name;
  std::string metavar;
  std::string help;
  std::function<bool(const char*)> set;
};

/// The `min` of a double flag that must be > 0.
inline constexpr double kPositive = std::numeric_limits<double>::denorm_min();

/// A numeric flag: parsed by parse_number, then at least `min`.
template <class T>
Flag flag(std::string name, std::string metavar, std::string help, T* out,
          std::type_identity_t<T> min) {
  return {std::move(name), std::move(metavar), std::move(help),
          [out, min](const char* v) {
            T value{};
            if (!parse_number(v, &value) || value < min) return false;
            *out = value;
            return true;
          }};
}

/// A string flag (paths, registry keys, comma lists checked later).
inline Flag flag(std::string name, std::string metavar, std::string help,
                 std::string* out) {
  return {std::move(name), std::move(metavar), std::move(help),
          [out](const char* v) {
            *out = v;
            return true;
          }};
}

/// A switch: present means true.
inline Flag flag(std::string name, std::string help, bool* out) {
  return {std::move(name), "", std::move(help), [out](const char*) {
            *out = true;
            return true;
          }};
}

/// A driver's command line: at most one positional subcommand out of
/// `subcommands`, then any flags of the table, each as often as given (the
/// last value wins).
class Cli {
 public:
  Cli(std::string program, std::vector<std::string> subcommands,
      std::vector<Flag> flags)
      : program_(std::move(program)),
        subcommands_(std::move(subcommands)),
        flags_(std::move(flags)) {}

  /// Parses argv[1..argc). Returns nothing when the driver should run, or
  /// the exit code 2, with the usage printed, on an unknown argument, a
  /// missing, malformed or out-of-range value, or a second subcommand.
  std::optional<int> parse(int argc, const char* const* argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const Flag* match = nullptr;
      for (const Flag& f : flags_)
        if (f.name == arg) match = &f;
      if (match == nullptr) {
        bool is_subcommand = false;
        for (const std::string& s : subcommands_) is_subcommand |= s == arg;
        if (!is_subcommand)
          return usage_error("unknown argument \"" + arg + "\"");
        if (!subcommand_.empty())
          return usage_error("second subcommand \"" + arg + "\"");
        subcommand_ = arg;
        continue;
      }
      const char* value = nullptr;
      if (!match->metavar.empty()) {
        if (i + 1 >= argc) return usage_error(arg + " needs a value");
        value = argv[++i];
      }
      if (!match->set(value))
        return usage_error("bad value \"" + std::string(value) + "\" for " +
                           arg);
      given_.push_back(arg);
    }
    return std::nullopt;
  }

  /// The subcommand given, or "" when none was.
  const std::string& subcommand() const { return subcommand_; }
  /// The flags given, in command-line order.
  const std::vector<std::string>& given() const { return given_; }
  bool given(const std::string& name) const {
    for (const std::string& g : given_)
      if (g == name) return true;
    return false;
  }

  /// The usage text, one line per flag of the table.
  std::string usage() const {
    std::string out = "usage: " + program_;
    if (!subcommands_.empty()) {
      out += " [";
      for (std::size_t i = 0; i < subcommands_.size(); ++i)
        out += (i > 0 ? "|" : "") + subcommands_[i];
      out += "]";
    }
    out += " [options]\n";
    for (const Flag& f : flags_) {
      std::string head = "  " + f.name;
      if (!f.metavar.empty()) head += " " + f.metavar;
      head.resize(std::max<std::size_t>(head.size() + 2, 28), ' ');
      out += head + f.help + "\n";
    }
    return out;
  }

  /// Prints "program: message" and the usage to stderr; returns exit code 2.
  int usage_error(const std::string& message) const {
    std::fprintf(stderr, "%s: %s\n%s", program_.c_str(), message.c_str(),
                 usage().c_str());
    return 2;
  }

 private:
  std::string program_;
  std::vector<std::string> subcommands_;
  std::vector<Flag> flags_;
  std::string subcommand_;
  std::vector<std::string> given_;
};

/// Stamps the provenance every report carries. Episodes and base seed come
/// from `config`, whose fingerprint keys outcome comparability.
inline void stamp_meta(sim::RunReport& report, std::string suite, int threads,
                       const sim::EvalConfig& config) {
  report.meta.suite = std::move(suite);
  report.meta.git_describe = sim::build_git_describe();
  report.meta.threads = threads;
  report.meta.episodes_per_cell = config.episodes;
  report.meta.base_seed = config.base_seed;
  report.meta.config_fingerprint = sim::config_fingerprint(config);
}

/// Where a run's report goes (--report; "" = nowhere) and the baseline it
/// is gated against (--baseline; "" = none).
struct ReportOptions {
  std::string path;
  std::string baseline;
  sim::BaselineTolerance tolerance;
};

/// The one way a bench run ends; returns the process exit code. Writes the
/// report first (3 when it cannot), so an aborted run still leaves its
/// partial report; an aborted run then exits 130 without baseline gating,
/// which would only flag spurious regressions. A baseline that cannot load
/// exits 3; a regression against it, or a failed driver gate (`gates_ok`
/// false, reported by the driver), exits 1.
inline int finish(const std::string& tag, const sim::RunReport& report,
                  const ReportOptions& out, bool gates_ok = true) {
  std::string error;
  if (!out.path.empty()) {
    if (!report.save(out.path, &error)) {
      std::fprintf(stderr, "[%s] %s\n", tag.c_str(), error.c_str());
      return 3;
    }
    std::fprintf(stderr, "[%s] %sreport written to %s\n", tag.c_str(),
                 report.meta.aborted ? "partial (aborted) " : "",
                 out.path.c_str());
  }
  if (report.meta.aborted) {
    std::fprintf(stderr, "[%s] aborted by SIGINT\n", tag.c_str());
    return 130;  // 128 + SIGINT, the conventional "died on ctrl-C" code
  }
  if (!out.baseline.empty()) {
    sim::RunReport baseline;
    if (!sim::RunReport::load(out.baseline, &baseline, &error)) {
      std::fprintf(stderr, "[%s] cannot load baseline: %s\n", tag.c_str(),
                   error.c_str());
      return 3;
    }
    const sim::BaselineVerdict verdict =
        sim::compare_to_baseline(report, baseline, out.tolerance);
    std::printf("\n%s\n", verdict.summary().c_str());
    if (!verdict.ok) return 1;
  }
  return gates_ok ? 0 : 1;
}

/// The process-wide SIGINT abort token of the drivers that drain on ctrl-C.
/// A signal handler may only touch lock-free atomics; CancelToken::cancel is
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
