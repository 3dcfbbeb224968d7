#pragma once

#include <optional>
#include <vector>

#include "core/frame_context.hpp"
#include "geom/obb.hpp"
#include "mathkit/qp.hpp"
#include "vehicle/kinematics.hpp"

namespace icoil::co {

/// Reference state for one horizon step (a target waypoint s* of eq. (4)).
struct TargetPoint {
  geom::Pose2 pose;
  double speed = 0.0;  ///< signed target speed [m/s]
};

/// An obstacle with a constant-velocity prediction model — supplies the
/// o_{h,k} positions of the collision constraint (5).
struct PredictedObstacle {
  geom::Obb box;
  geom::Vec2 velocity;
};

/// Tuning of the constrained trajectory optimization (eq. 6).
struct TrajOptConfig {
  int horizon = 15;            ///< H, prediction steps
  double dt = 0.15;            ///< step length [s]
  int sqp_iterations = 3;      ///< convexify-and-solve rounds
  // Tracking weights (eq. 4 distance cost, split by component).
  double w_pos = 4.0;
  double w_heading = 6.0;
  double w_speed = 1.0;
  // Control effort / smoothness.
  double w_accel = 0.15;
  double w_steer = 0.08;
  double w_daccel = 0.2;
  double w_dsteer = 0.3;
  // Trust region half-widths around the linearization point.
  double trust_pos = 2.0;
  double trust_heading = 0.8;
  double trust_speed = 1.5;
  // Collision handling (eq. 5).
  double safety_margin = 0.15;       ///< d_safe additive margin [m]
  double obstacle_active_range = 16.0;
  int collision_discs = 3;           ///< discs covering the footprint
  /// MPC-grade QP settings: accuracy relaxed for real-time solves (the
  /// SQP loop re-solves anyway, and warm starts absorb the slack). The
  /// residuals are checked every 5 iterations, so a warm-started QP that
  /// converges early stops early.
  math::QpSettings qp{.max_iterations = 500, .eps_abs = 1e-3, .eps_rel = 1e-3,
                      .check_interval = 5};
};

/// Result of one MPC solve. Its controls, stage duals and rho are the warm
/// start of the next frame's solve.
struct TrajOptResult {
  bool ok = false;
  vehicle::PlannerControl control;        ///< first control a*_i to execute
  std::vector<vehicle::State> predicted;  ///< nonlinear rollout of the plan
  std::vector<vehicle::PlannerControl> controls;
  std::vector<double> stage_duals;  ///< y of the last QP's 10H stage rows
  double rho = 0.0;                 ///< the last QP's final ADMM penalty
  double objective = 0.0;
  int qp_iterations = 0;
  int active_obstacle_constraints = 0;
};

/// One convexify step of the SQP loop: the QP of (6) linearized around a
/// nominal rollout.
///
/// The variable order is the elimination order of the sparse LDLT (see
/// math::SparseLdlt): the obstacle slacks come first, then the stages
/// (u_h, s_{h+1}) for h = 0..H-1, each a 2-vector control (accel, steer)
/// followed by a 4-vector state (x, y, theta, v). A slack couples only to
/// the (x, y, theta) of its own stage, so eliminating the slacks first
/// keeps their fill inside that stage's block, and the rest of the
/// factor stays banded.
///
/// The rows are the 10H stage rows (4H dynamics, 4H state bounds, 2H
/// control bounds), then two rows per slack: its half-space and `s >= 0`.
struct TrajOptQp {
  math::QpProblem problem;
  int slacks = 0;  ///< obstacle and wall half-space rows, one slack each
  /// The linearization point as QP variables: the nominal controls, the
  /// rollout's states with lifted headings, and the slacks at 0.
  std::vector<double> nominal;

  /// Index of control component `c` (0 accel, 1 steer) of u_h, h in [0, H).
  int control_index(int h, int c) const { return slacks + 6 * h + c; }
  /// Index of state component `c` (x, y, theta, v) of s_h, h in [1, H].
  int state_index(int h, int c) const { return slacks + 6 * (h - 1) + 2 + c; }
};

/// The CO trajectory optimizer: converts the nonconvex program (6) into a
/// sequence of convex QPs (linearized Ackermann dynamics + half-space
/// collision constraints + trust region) solved by the ADMM QP solver, in
/// the spirit of the convexification pipeline the paper implements on CVXPY.
///
/// `solve` runs the SQP loop from its public steps: `initial_nominal`,
/// then per round `build_qp`, `qp_warm_start`, a QP solve and `controls_of`.
/// The QP solver, and with it its workspace, belongs to the TrajOpt: it is
/// reused across the SQP rounds of a frame and across frames, so `solve` is
/// not const and a TrajOpt serves one thread at a time.
class TrajOpt {
 public:
  /// Revision of the CO expert's algorithm, part of every expert-dataset
  /// cache key (sim::dataset_fingerprint). Bump it whenever a change makes
  /// `solve`, or the CoPlanner that feeds it, return other controls for the
  /// same configuration. 1: unscaled ADMM QP solves. 2: Ruiz-equilibrated
  /// QP solves. 3: CoPlanner re-plans a stall at the end of its last phase.
  static constexpr int kRevision = 3;

  TrajOpt(TrajOptConfig config, vehicle::VehicleParams params);

  const TrajOptConfig& config() const { return config_; }

  /// Solve the MPC from `current`, tracking `targets` (size >= horizon) and
  /// avoiding `obstacles` and, when set, the walls of `bounds`. `warm` is
  /// the previous frame's result: its controls, stage duals and rho start
  /// this solve, the first two shifted one stage. With `frame` set, the SQP
  /// loop polls it between convexify-and-solve rounds and returns the
  /// best-so-far result (at least one round always runs) once the frame
  /// budget trips.
  TrajOptResult solve(const vehicle::State& current,
                      const std::vector<TargetPoint>& targets,
                      const std::vector<PredictedObstacle>& obstacles,
                      const geom::Aabb* bounds = nullptr,
                      const TrajOptResult* warm = nullptr,
                      const core::FrameContext* frame = nullptr);

  /// The nominal controls of the first SQP round: `warm` shifted by one
  /// step, or without it a braking profile from `current`.
  std::vector<vehicle::PlannerControl> initial_nominal(
      const vehicle::State& current,
      const std::vector<vehicle::PlannerControl>* warm) const;

  /// The QP of one SQP round, linearized around the rollout of `nominal`
  /// (size horizon) from `current`. `targets` holds at least horizon
  /// points; obstacles beyond the active range of `current` are ignored.
  /// With `bounds` set, every disc within 3 m of a wall gets a half-space
  /// row keeping it `disc_radius() + safety_margin` inside that wall.
  TrajOptQp build_qp(const vehicle::State& current,
                     const std::vector<TargetPoint>& targets,
                     const std::vector<PredictedObstacle>& obstacles,
                     const geom::Aabb* bounds,
                     const std::vector<vehicle::PlannerControl>& nominal) const;

  /// The warm start of `qp` in an SQP round. `prev` is the previous round's
  /// `{x, y, rho}` over `prev_slacks` slacks. In the first round `prev.x` is
  /// empty and `prev.y` holds the 10H stage duals carried from the previous
  /// frame, or nothing; x then starts at `qp.nominal`. When the slack count
  /// changes, the stage block of x and the stage rows of y carry over and
  /// the slack entries and rows start at 0. rho always carries over.
  math::QpWarmStart qp_warm_start(const TrajOptQp& qp, math::QpWarmStart prev,
                                  int prev_slacks) const;

  /// The controls of a solution `x` of `qp`, clamped to the actuator limits.
  std::vector<vehicle::PlannerControl> controls_of(
      const TrajOptQp& qp, const std::vector<double>& x) const;

  /// Disc centres (longitudinal offsets from the rear axle) and radius used
  /// to approximate the footprint in constraint (5).
  std::vector<double> disc_offsets() const;
  double disc_radius() const;

 private:
  TrajOptConfig config_;
  vehicle::VehicleParams params_;
  vehicle::BicycleModel model_;
  math::QpSolver solver_;
};

}  // namespace icoil::co
