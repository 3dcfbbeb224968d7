#include "sim/session.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "core/batch_client.hpp"
#include "core/frame_context.hpp"

namespace icoil::sim {

namespace {
world::Scenario with_start(world::Scenario scenario, const geom::Pose2& pose) {
  scenario.start_pose = pose;
  return scenario;
}
}  // namespace

Session::Session(const world::Scenario& scenario, core::Controller& controller,
                 std::uint64_t seed, const vehicle::State& start,
                 double world_time, SimConfig config,
                 const core::CancelToken* cancel)
    : Session(with_start(scenario, start.pose), controller, seed, config,
              cancel) {
  state_ = start;  // carry the full state (speed, steer) across legs
  world_.set_time(world_time);
}

Session::Session(const world::Scenario& scenario, core::Controller& controller,
                 std::uint64_t seed, SimConfig config,
                 const core::CancelToken* cancel)
    : config_(config), controller_(&controller),
      batch_client_(dynamic_cast<core::BatchClient*>(&controller)),
      cancel_(cancel), rng_(seed ^ 0x51D5EEDull),
      world_(scenario),
      model_() /* default params (matches controllers) */,
      max_frames_(
          static_cast<std::size_t>(scenario.time_limit / config.dt)) {
  state_.pose = scenario.start_pose;
  state_.speed = 0.0;
  controller_->reset(world_.scenario());
}

void Session::finish(Outcome outcome, double park_time) {
  result_.outcome = outcome;
  result_.park_time = park_time;
  result_.il_fraction =
      result_.frames > 0 ? static_cast<double>(il_frames_) /
                               static_cast<double>(result_.frames)
                         : 0.0;
  done_ = true;
}

bool Session::begin_frame() {
  if (done_) return false;

  if (frame_ >= max_frames_) {
    finish(Outcome::kTimeout, world_.scenario().time_limit);
    return false;
  }

  if (cancel_ != nullptr && cancel_->cancelled()) {
    finish(Outcome::kBudgetExceeded, static_cast<double>(frame_) * config_.dt);
    return false;
  }

  return true;
}

Session::Status Session::step() {
  if (!begin_frame()) return Status::kDone;
  core::FrameContext frame_ctx(rng_, cancel_, config_.frame_deadline_ms);
  const vehicle::Command cmd = controller_->act(world_, state_, frame_ctx);
  return execute_frame(cmd);
}

bool Session::stage(il::BatchInferencer& service) {
  assert(batch_client_ != nullptr &&
         "Session::stage requires a BatchClient controller");
  if (!begin_frame()) return false;
  staged_ctx_.emplace(rng_, cancel_, config_.frame_deadline_ms);
  batch_client_->stage(world_, state_, *staged_ctx_, service);
  return true;
}

Session::Status Session::commit(il::BatchInferencer& service) {
  if (!staged_ctx_.has_value())
    return done_ ? Status::kDone : Status::kRunning;
  const vehicle::Command cmd =
      batch_client_->commit(world_, state_, *staged_ctx_, service);
  staged_ctx_.reset();
  return execute_frame(cmd);
}

Session::Status Session::execute_frame(const vehicle::Command& cmd) {
  const double t = static_cast<double>(frame_) * config_.dt;
  const core::FrameInfo& info = controller_->last_frame();

  if (config_.record_trace) result_.trace.push_back({t, state_, info});
  if (frame_ > 0 && info.mode != prev_mode_) ++result_.mode_switches;
  prev_mode_ = info.mode;
  if (info.mode == core::Mode::kIl) ++il_frames_;
  if (info.deadline_hit) ++result_.deadline_hits;

  state_ = model_.step(state_, cmd, config_.dt);
  world_.step(config_.dt);
  ++result_.frames;
  ++frame_;

  const geom::Obb fp = model_.footprint(state_);
  result_.min_clearance = std::min(result_.min_clearance, world_.clearance(fp));
  if (world_.in_collision(fp)) {
    finish(Outcome::kCollision, t + config_.dt);
    return Status::kDone;
  }

  if (world_.at_goal(state_.pose, config_.goal_pos_tol,
                     config_.goal_heading_tol) &&
      std::abs(state_.speed) <= config_.goal_speed_tol) {
    finish(Outcome::kSuccess, t + config_.dt);
    return Status::kDone;
  }

  return Status::kRunning;
}

}  // namespace icoil::sim
