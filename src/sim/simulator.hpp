#pragma once

#include <cstdint>
#include <vector>

#include "core/cancel_token.hpp"
#include "core/controller.hpp"
#include "world/world.hpp"

namespace icoil::sim {

/// How an episode ended. kBudgetExceeded means the episode's wall-clock
/// budget (a core::CancelToken deadline) tripped before any simulated
/// terminal condition — the episode was cut short, not finished late.
enum class Outcome { kSuccess, kCollision, kTimeout, kBudgetExceeded };

const char* to_string(Outcome o);

/// One recorded frame of an episode (the time series behind Figs 5-7).
struct FrameRecord {
  double t = 0.0;
  vehicle::State state;
  core::FrameInfo info;
};

/// Result of one simulated parking episode.
struct EpisodeResult {
  Outcome outcome = Outcome::kTimeout;
  double park_time = 0.0;            ///< seconds from start to parked (or end)
  std::size_t frames = 0;
  /// Closest approach to any obstacle [m]; stays at the geom::kMaxClearance
  /// sentinel when no obstacle was ever within range.
  double min_clearance = geom::kMaxClearance;
  int mode_switches = 0;             ///< iCOIL CO<->IL transitions
  double il_fraction = 0.0;          ///< fraction of frames driven by IL
  /// Frames whose FrameContext deadline tripped (the controller returned a
  /// degraded best-so-far command). Always 0 without a frame_deadline_ms.
  int deadline_hits = 0;
  std::vector<FrameRecord> trace;    ///< full trace (empty unless recording)

  bool success() const { return outcome == Outcome::kSuccess; }
};

/// Simulation loop settings. The paper's "time stamps" correspond to
/// control frames (dt = 0.05 s -> a ~25 s episode is ~500 stamps).
struct SimConfig {
  double dt = 0.05;
  bool record_trace = false;
  double goal_pos_tol = 0.6;
  double goal_heading_tol = 0.35;
  double goal_speed_tol = 0.15;
  /// Wall-clock budget per control frame [ms], handed to the controller via
  /// core::FrameContext each step. <= 0 = unlimited. Budgets make results
  /// timing-dependent; leave off when bit-identical reproducibility matters.
  double frame_deadline_ms = 0.0;
};

/// Runs one controller through one scenario episode: sense -> act ->
/// integrate -> check collision/goal/timeout. A thin whole-episode loop
/// over sim::Session (which see for the stepwise API). When `cancel` is
/// given the loop polls it every frame and bails out with kBudgetExceeded
/// once it trips (wall-clock budgets, ctrl-C style aborts).
class Simulator {
 public:
  explicit Simulator(SimConfig config = {}) : config_(config) {}

  const SimConfig& config() const { return config_; }

  EpisodeResult run(const world::Scenario& scenario, core::Controller& controller,
                    std::uint64_t seed,
                    const core::CancelToken* cancel = nullptr) const;

 private:
  SimConfig config_;
};

}  // namespace icoil::sim
