#include "core/icoil_controller.hpp"

#include <chrono>

#include "il/observation.hpp"

namespace icoil::core {

IcoilController::IcoilController(IcoilConfig config,
                                 const il::IlPolicy& trained_policy)
    : config_(config), policy_(trained_policy.clone()),
      rasterizer_(trained_policy.bev_spec()),
      planner_(config.co, config.vehicle), hsa_(config.hsa),
      switcher_(config.hsa, Mode::kCo),
      safety_(config.safety, config.vehicle), model_(config.vehicle) {}

void IcoilController::reset(const world::Scenario& scenario) {
  noise_ = std::make_unique<sense::ImageNoise>(scenario.noise);
  detector_ = std::make_unique<sense::Detector>(scenario.noise);
  hsa_.reset();
  switcher_.reset(Mode::kCo);
  safety_.reset();
  frame_ = {};

  // Planning deferred to the first act() so hybrid-A* runs under that
  // frame's budget context.
  std::vector<geom::Obb> static_boxes;
  for (const world::Obstacle& o : scenario.obstacles)
    if (!o.dynamic()) static_boxes.push_back(o.shape);
  planner_.defer_reference(scenario.start_pose, scenario.map.goal_pose,
                           std::move(static_boxes), scenario.map.bounds);
}

sense::BevImage IcoilController::sense(const world::World& world,
                                       const vehicle::State& state,
                                       FrameContext& frame) {
  sense::BevImage bev = rasterizer_.render(world, state.pose);
  if (noise_) noise_->apply(bev, frame.rng());
  return bev;
}

vehicle::Command IcoilController::act(const world::World& world,
                                      const vehicle::State& state,
                                      FrameContext& frame) {
  const auto t0 = std::chrono::steady_clock::now();

  // Plan the deferred reference up front, not on the CO branch: it must
  // exist whichever mode wins this frame, or the first CO takeover after an
  // IL start would pay the full search mid-episode.
  planner_.ensure_reference(&frame);

  // (a) IL inference — always runs; HSA needs the output distribution.
  const sense::BevImage bev = sense(world, state, frame);
  const il::Inference inf =
      policy_->infer(il::make_observation(bev, state.speed));

  return finish_frame(world, state, frame, inf, t0);
}

void IcoilController::stage(const world::World& world,
                            const vehicle::State& state, FrameContext& frame,
                            il::BatchInferencer& service) {
  stage_t0_ = std::chrono::steady_clock::now();
  planner_.ensure_reference(&frame);
  const sense::BevImage bev = sense(world, state, frame);
  slot_ = service.submit(il::make_observation(bev, state.speed));
}

vehicle::Command IcoilController::commit(const world::World& world,
                                         const vehicle::State& state,
                                         FrameContext& frame,
                                         const il::BatchInferencer& service) {
  return finish_frame(world, state, frame, service.result(slot_), stage_t0_);
}

vehicle::Command IcoilController::finish_frame(
    const world::World& world, const vehicle::State& state,
    FrameContext& frame, const il::Inference& inf,
    std::chrono::steady_clock::time_point t0) {
  // (b) Obstacle distances for the complexity model (eq. 8).
  const auto detections =
      detector_->detect(world, state.pose.position, frame.rng());
  const geom::Obb ego = model_.footprint(state);
  std::vector<double> distances;
  distances.reserve(detections.size());
  for (const sense::Detection& d : detections)
    distances.push_back(geom::obb_distance(ego, d.box));

  // (c) Scenario analysis + guarded mode switch (eq. 1).
  hsa_.push(inf.entropy, distances);
  const Mode mode = switcher_.update(hsa_.ratio());

  // (d) Execute the selected working mode.
  vehicle::Command cmd;
  if (mode == Mode::kIl) {
    // Optional guard: veto IL actions whose short-horizon rollout collides.
    cmd = safety_.filter(world, state, inf.command);
  } else {
    cmd = planner_.act(state, detections, &frame);
  }

  frame_.mode = mode;
  frame_.entropy = inf.entropy;
  frame_.uncertainty = hsa_.uncertainty();
  frame_.complexity = hsa_.normalized_complexity();
  frame_.ratio = hsa_.ratio();
  frame_.command = cmd;
  frame_.deadline_hit = frame.deadline_hit();
  frame_.solve_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                t0)
          .count();
  return cmd;
}

}  // namespace icoil::core
