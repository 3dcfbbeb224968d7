#include "core/co_controller.hpp"

#include <chrono>

namespace icoil::core {

CoController::CoController(co::CoPlannerConfig config,
                           vehicle::VehicleParams params)
    : planner_(config, params) {}

void CoController::reset(const world::Scenario& scenario) {
  detector_ = std::make_unique<sense::Detector>(scenario.noise);
  frame_ = {};
  frame_.mode = Mode::kCo;

  // Reference path avoids the obstacles' initial footprints; moving
  // obstacles are handled reactively by the MPC. Planning itself is
  // deferred to the first act() so its hybrid-A* expansions run under that
  // frame's budget context.
  std::vector<geom::Obb> static_boxes;
  for (const world::Obstacle& o : scenario.obstacles)
    if (!o.dynamic()) static_boxes.push_back(o.shape);
  planner_.defer_reference(scenario.start_pose, scenario.map.goal_pose,
                           std::move(static_boxes), scenario.map.bounds);
}

vehicle::Command CoController::act(const world::World& world,
                                   const vehicle::State& state,
                                   FrameContext& frame) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto detections =
      detector_->detect(world, state.pose.position, frame.rng());
  const vehicle::Command cmd = planner_.act(state, detections, &frame);
  frame_.mode = Mode::kCo;
  frame_.command = cmd;
  frame_.deadline_hit = frame.deadline_hit();
  frame_.solve_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  return cmd;
}

}  // namespace icoil::core
