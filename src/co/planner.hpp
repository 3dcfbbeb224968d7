#pragma once

#include <optional>
#include <vector>

#include "co/hybrid_astar.hpp"
#include "co/refpath.hpp"
#include "co/trajopt.hpp"
#include "sensing/detector.hpp"
#include "vehicle/kinematics.hpp"

namespace icoil::co {

/// Behaviour tuning of the CO driving module.
struct CoPlannerConfig {
  TrajOptConfig trajopt;
  HybridAStarConfig astar;
  double cruise_speed = 2.0;        ///< forward tracking speed [m/s]
  double reverse_speed = 0.9;       ///< reverse tracking speed [m/s]
  double approach_distance = 1.8;   ///< taper speed within this arc of a stop
  double min_speed = 0.35;          ///< floor of the taper [m/s]
  double goal_pos_tol = 0.25;       ///< [m] stop commanding when parked
  double goal_heading_tol = 0.15;   ///< [rad]
  // Phase handover: the path is tracked one directed segment at a time; the
  // planner moves to the next segment once the vehicle reaches the segment
  // end (or is stalled right next to it).
  double phase_pos_tol = 0.45;      ///< [m]
  double phase_heading_tol = 0.25;  ///< [rad]
  double phase_speed_tol = 0.35;    ///< [m/s]
  double stall_seconds = 3.0;       ///< advance (last phase: re-plan) after stalling this long
  double dt = 0.05;                 ///< control period (for the stall clock)
  /// Straight run-through added at every direction switch: the vehicle
  /// crosses the switch pose aligned and at speed, stops on the extension,
  /// and starts the next maneuver already aligned with its arc.
  double switch_extension = 0.8;    ///< [m]
};

/// One directed segment of the reference path with its target waypoints
/// (including the straight switch extensions).
struct PathPhase {
  std::vector<PathPoint> points;  ///< s is cumulative within the phase
  int direction = 1;

  double length() const { return points.empty() ? 0.0 : points.back().s; }
};

/// The CO module f_CO of section IV-B: tracks a hybrid-A* reference path
/// with the SQP MPC and converts the first optimized control into a driving
/// command. Holds per-episode state (reference path, phase progress, warm
/// start).
class CoPlanner {
 public:
  CoPlanner(CoPlannerConfig config, vehicle::VehicleParams params);

  const CoPlannerConfig& config() const { return config_; }
  const RefPath& reference() const { return ref_; }
  bool has_reference() const { return !ref_.empty(); }
  const std::vector<PathPhase>& phases() const { return phases_; }
  std::size_t current_phase() const { return phase_; }

  /// Plan the reference path from `start` to `goal` around the static
  /// obstacles. Returns false when hybrid A* fails (search exhausted, or a
  /// `frame` budget tripped mid-search) and the Reeds-Shepp fallback was
  /// used instead.
  bool plan_reference(const geom::Pose2& start, const geom::Pose2& goal,
                      const std::vector<geom::Obb>& static_obstacles,
                      const geom::Aabb& bounds,
                      const core::FrameContext* frame = nullptr);

  /// Captures an episode's planning inputs WITHOUT running the search; the
  /// next ensure_reference()/act() plans them. Deferring lets the heavy
  /// hybrid-A* search run under the first control frame's budget context
  /// instead of unbudgeted at episode setup (how the controllers use it).
  void defer_reference(const geom::Pose2& start, const geom::Pose2& goal,
                       std::vector<geom::Obb> static_obstacles,
                       const geom::Aabb& bounds);

  /// Runs a deferred plan if one is pending (no-op otherwise). act() calls
  /// this itself; controllers that need the plan earlier in their frame
  /// (e.g. before a mode decision) call it explicitly.
  void ensure_reference(const core::FrameContext* frame = nullptr);

  /// Set an externally computed reference (tests / replay). Optional
  /// obstacles let the switch extensions be collision-checked.
  void set_reference(RefPath path, std::vector<geom::Obb> static_obstacles = {},
                     std::optional<geom::Aabb> bounds = std::nullopt);

  /// Does nothing. Its only caller is perfbench/src/traced_controllers.hpp;
  /// delete both together.
  void set_distance_field(const world::DistanceField*) {}

  /// One control step: track the reference while avoiding `detections`.
  /// With `frame` set, the trajectory optimizer polls the frame budget
  /// between SQP rounds and returns its best-so-far control when it trips
  /// (graceful per-frame degradation instead of a blown deadline).
  vehicle::Command act(const vehicle::State& state,
                       const std::vector<sense::Detection>& detections,
                       const core::FrameContext* frame = nullptr);

  /// The H target points the MPC would track from `state` (exposed for
  /// tests and telemetry).
  std::vector<TargetPoint> build_targets(const vehicle::State& state);

  /// Result of the most recent MPC solve.
  const TrajOptResult& last_result() const { return last_result_; }

  /// Search counters of the most recent hybrid-A* run (zeroed until the
  /// first plan). Exposed for the planner bench and telemetry.
  const PlanStats& last_plan_stats() const { return plan_stats_; }

  /// Reset per-episode progress (keeps the reference).
  void reset_progress();

 private:
  void rebuild_phases();
  /// Moves to the next phase once the vehicle reaches (or stalls next to)
  /// the current phase's end; a stall at the end of the last phase re-plans
  /// to the goal instead.
  void maybe_advance_phase(const vehicle::State& state,
                           const core::FrameContext* frame);

  CoPlannerConfig config_;
  vehicle::VehicleParams params_;
  vehicle::BicycleModel model_;
  TrajOpt trajopt_;
  HybridAStar astar_;
  RefPath ref_;
  std::vector<geom::Obb> static_obstacles_;
  std::optional<geom::Aabb> bounds_;
  // Deferred-plan inputs (defer_reference -> ensure_reference).
  bool pending_plan_ = false;
  geom::Pose2 pending_start_, pending_goal_;
  std::vector<geom::Obb> pending_static_;
  geom::Aabb pending_bounds_;
  std::vector<PathPhase> phases_;
  std::size_t phase_ = 0;
  std::size_t progress_ = 0;   ///< nearest-index hint within the phase
  int stall_frames_ = 0;
  TrajOptResult last_result_;  ///< also the next solve's warm start
  PlanStats plan_stats_;
};

}  // namespace icoil::co
