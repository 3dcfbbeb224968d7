#include "co/planner.hpp"

#include <algorithm>
#include <cmath>

#include "geom/angles.hpp"

namespace icoil::co {

CoPlanner::CoPlanner(CoPlannerConfig config, vehicle::VehicleParams params)
    : config_(config), params_(params), model_(params),
      trajopt_(config.trajopt, params), astar_(config.astar, params) {}

bool CoPlanner::plan_reference(const geom::Pose2& start, const geom::Pose2& goal,
                               const std::vector<geom::Obb>& static_obstacles,
                               const geom::Aabb& bounds,
                               const core::FrameContext* frame) {
  bool planned = true;
  pending_plan_ = false;  // a direct plan overrides a deferred one
  static_obstacles_ = static_obstacles;
  bounds_ = bounds;
  if (auto path = astar_.plan(start, goal, static_obstacles, bounds, frame,
                              &plan_stats_)) {
    ref_ = std::move(*path);
  } else {
    ref_ = astar_.reeds_shepp_fallback(start, goal);
    planned = false;
  }
  reset_progress();
  return planned;
}

void CoPlanner::defer_reference(const geom::Pose2& start,
                                const geom::Pose2& goal,
                                std::vector<geom::Obb> static_obstacles,
                                const geom::Aabb& bounds) {
  pending_plan_ = true;
  pending_start_ = start;
  pending_goal_ = goal;
  pending_static_ = std::move(static_obstacles);
  pending_bounds_ = bounds;
  // The old episode's reference is stale the moment a new one is deferred.
  ref_ = RefPath{};
  reset_progress();
}

void CoPlanner::ensure_reference(const core::FrameContext* frame) {
  if (!pending_plan_) return;
  pending_plan_ = false;
  plan_reference(pending_start_, pending_goal_, pending_static_,
                 pending_bounds_, frame);
  pending_static_.clear();
}

void CoPlanner::set_reference(RefPath path,
                              std::vector<geom::Obb> static_obstacles,
                              std::optional<geom::Aabb> bounds) {
  pending_plan_ = false;  // an explicit reference overrides a deferred plan
  ref_ = std::move(path);
  static_obstacles_ = std::move(static_obstacles);
  bounds_ = bounds;
  reset_progress();
}

void CoPlanner::reset_progress() {
  phase_ = 0;
  progress_ = 0;
  stall_frames_ = 0;
  last_result_ = {};
  rebuild_phases();
}

void CoPlanner::rebuild_phases() {
  phases_.clear();
  if (ref_.empty()) return;

  // Split the reference at direction switches.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [begin, end]
  std::size_t begin = 0;
  for (std::size_t i = 1; i < ref_.size(); ++i) {
    if (ref_[i].direction != ref_[begin].direction) {
      ranges.emplace_back(begin, i - 1);
      begin = i;
    }
  }
  ranges.emplace_back(begin, ref_.size() - 1);

  // Collision probe for the straight switch extensions.
  auto extension_free = [&](const geom::Pose2& pose) {
    if (bounds_) return astar_.pose_free(pose, static_obstacles_, *bounds_);
    return true;
  };

  // Build the raw phases, then weave the straight switch extensions: phase r
  // is extended past the switch pose along its end heading, and phase r+1 is
  // prefixed with the same points in reverse order, so both maneuvers pass
  // through the switch pose aligned.
  constexpr double kExtStep = 0.2;
  std::vector<std::vector<PathPoint>> extensions(ranges.size());
  for (std::size_t r = 0; r < ranges.size(); ++r) {
    PathPhase phase;
    phase.direction = ref_[ranges[r].first].direction;
    for (std::size_t i = ranges[r].first; i <= ranges[r].second; ++i)
      phase.points.push_back(ref_[i]);

    const bool last = r + 1 == ranges.size();
    if (!last && config_.switch_extension > 1e-6 && !phase.points.empty()) {
      const geom::Pose2 end_pose = phase.points.back().pose;
      const geom::Vec2 dir =
          end_pose.forward() * static_cast<double>(phase.direction);
      for (double e = kExtStep; e <= config_.switch_extension + 1e-9;
           e += kExtStep) {
        const geom::Pose2 p{end_pose.position + dir * e, end_pose.heading};
        if (!extension_free(p)) break;
        extensions[r].push_back({p, phase.direction, 0.0});
      }
      for (const PathPoint& p : extensions[r]) phase.points.push_back(p);
    }
    phases_.push_back(std::move(phase));
  }

  for (std::size_t r = 0; r + 1 < phases_.size(); ++r) {
    if (extensions[r].empty()) continue;
    PathPhase& b = phases_[r + 1];
    std::vector<PathPoint> prefix(extensions[r].rbegin(), extensions[r].rend());
    for (PathPoint& p : prefix) p.direction = b.direction;
    b.points.insert(b.points.begin(), prefix.begin(), prefix.end());
  }

  // Recompute per-phase cumulative arc length.
  for (PathPhase& phase : phases_) {
    double s = 0.0;
    for (std::size_t i = 0; i < phase.points.size(); ++i) {
      if (i > 0)
        s += geom::distance(phase.points[i - 1].pose.position,
                            phase.points[i].pose.position);
      phase.points[i].s = s;
    }
  }
}

void CoPlanner::maybe_advance_phase(const vehicle::State& state,
                                    const core::FrameContext* frame) {
  const bool last = phase_ + 1 >= phases_.size();
  const PathPhase& ph = phases_[phase_];
  if (ph.points.empty()) {
    if (last) return;
    ++phase_;
    progress_ = 0;
    return;
  }
  const geom::Pose2& end_pose = ph.points.back().pose;
  const double pos_err = geom::distance(state.pose.position, end_pose.position);
  const double heading_err =
      std::abs(geom::angle_diff(state.pose.heading, end_pose.heading));
  const bool slow = std::abs(state.speed) <= config_.phase_speed_tol;

  bool advance = !last && pos_err <= config_.phase_pos_tol &&
                 heading_err <= config_.phase_heading_tol && slow;

  // Stall escape: when parked against the switch point but not exactly on
  // it, waiting forever is worse than starting the next maneuver. In the
  // last phase only a car whose progress has clamped at the phase end
  // counts: before that its targets still lead to the goal.
  const bool at_end = !last || progress_ + 1 >= ph.points.size();
  bool stalled = false;
  if (!advance && slow && at_end && pos_err <= 3.0 * config_.phase_pos_tol) {
    ++stall_frames_;
    const int limit =
        static_cast<int>(config_.stall_seconds / std::max(1e-3, config_.dt));
    stalled = stall_frames_ >= limit;
  } else if (std::abs(state.speed) > config_.phase_speed_tol) {
    stall_frames_ = 0;
  }

  if (stalled && last) {
    // Stalled at the end of the last phase, outside the goal tolerance (act
    // holds still inside it): the targets there have zero speed, so nothing
    // leads back to the goal. Re-plan from here to the same goal. The lot's
    // cost-to-go is already cached, so this pays only for the search, and a
    // failed search still gets the Reeds-Shepp fallback.
    const geom::Pose2 goal = ref_.back().pose;
    if (bounds_) {
      plan_reference(state.pose, goal, static_obstacles_, *bounds_, frame);
    } else {
      ref_ = astar_.reeds_shepp_fallback(state.pose, goal);
      reset_progress();
    }
    return;
  }
  if (advance || stalled) {
    ++phase_;
    progress_ = 0;
    stall_frames_ = 0;
    last_result_ = {};  // the gear flips; the old plan and its duals mislead
  }
}

std::vector<TargetPoint> CoPlanner::build_targets(const vehicle::State& state) {
  std::vector<TargetPoint> targets;
  const int H = config_.trajopt.horizon;
  if (phases_.empty()) return targets;

  const PathPhase& ph = phases_[phase_];
  const auto& pts = ph.points;
  if (pts.empty()) return targets;

  // Monotone nearest-point progress within the phase.
  progress_ = std::min(progress_, pts.size() - 1);
  {
    std::size_t best = progress_;
    double best_d =
        geom::distance_sq(pts[progress_].pose.position, state.pose.position);
    const std::size_t hi = std::min(pts.size() - 1, progress_ + 60);
    for (std::size_t i = progress_ + 1; i <= hi; ++i) {
      const double d = geom::distance_sq(pts[i].pose.position, state.pose.position);
      if (d < best_d) {
        best_d = d;
        best = i;
      }
    }
    progress_ = best;
  }

  const double phase_len = pts.back().s;
  const bool last_phase = phase_ + 1 == phases_.size();
  const double cruise =
      ph.direction > 0 ? config_.cruise_speed : config_.reverse_speed;

  auto index_at = [&](double s) {
    std::size_t i = progress_;
    while (i + 1 < pts.size() && pts[i + 1].s < s) ++i;
    return i;
  };

  double s = pts[progress_].s;
  for (int h = 0; h < H; ++h) {
    const std::size_t idx = index_at(std::min(s, phase_len));
    const PathPoint& p = pts[idx];

    const double remain = std::max(0.0, phase_len - p.s);
    double speed = cruise;
    if (remain < config_.approach_distance) {
      speed = cruise * remain / config_.approach_distance;
      if (remain > 0.4) speed = std::max(speed, config_.min_speed);
      if (remain <= (last_phase ? 0.15 : 0.1)) speed = 0.0;
    }

    targets.push_back({p.pose, ph.direction > 0 ? speed : -speed});
    s += std::max(0.05, std::abs(targets.back().speed)) * config_.trajopt.dt;
  }
  return targets;
}

vehicle::Command CoPlanner::act(const vehicle::State& state,
                                const std::vector<sense::Detection>& detections,
                                const core::FrameContext* frame) {
  ensure_reference(frame);
  if (ref_.empty() || phases_.empty()) return vehicle::Command::full_stop();

  // Parked? Hold still.
  const geom::Pose2& goal = ref_.back().pose;
  if (geom::distance(state.pose.position, goal.position) < config_.goal_pos_tol &&
      std::abs(geom::angle_diff(state.pose.heading, goal.heading)) <
          config_.goal_heading_tol &&
      std::abs(state.speed) < 0.2) {
    return vehicle::Command::full_stop();
  }

  maybe_advance_phase(state, frame);

  const std::vector<TargetPoint> targets = build_targets(state);
  if (static_cast<int>(targets.size()) < config_.trajopt.horizon)
    return vehicle::Command::full_stop();

  std::vector<PredictedObstacle> obstacles;
  obstacles.reserve(detections.size());
  for (const sense::Detection& d : detections)
    obstacles.push_back({d.box, d.dynamic ? d.velocity : geom::Vec2{}});

  // A failed result has no controls or duals, so the next solve starts cold.
  TrajOptResult result = trajopt_.solve(
      state, targets, obstacles, bounds_ ? &*bounds_ : nullptr, &last_result_, frame);
  last_result_ = std::move(result);
  if (!last_result_.ok) return vehicle::Command::full_stop();

  vehicle::Command cmd = model_.to_command(state, last_result_.control);
  // Gear selection: at near-zero speed `to_command` cannot infer intent, so
  // take the tracked direction of the current phase.
  if (std::abs(state.speed) < 0.15) {
    const bool want_reverse = phases_[phase_].direction < 0;
    if (cmd.throttle > 0.0) cmd.reverse = want_reverse;
  }
  return cmd;
}

}  // namespace icoil::co
