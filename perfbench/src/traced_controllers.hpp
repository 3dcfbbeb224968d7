#pragma once

// Controllers composed from the layers' public calls, with a span around
// each call. TracedIcoil replays core::IcoilController frame for frame and
// TracedIl replays core::IlController: same calls, same order, same episode
// RNG draws, so a traced episode must end exactly like its untraced twin
// (the benchmark checks the outcome digests and fails otherwise).

#include <chrono>
#include <memory>
#include <vector>

#include "core/batch_client.hpp"
#include "core/controller.hpp"
#include "core/icoil_controller.hpp"
#include "il/observation.hpp"
#include "il/policy.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-controller layer counters, merged after a run.
struct LayerCounters {
  int plans = 0;
  int plans_solved = 0;
  double expansions = 0.0;
  int co_frames = 0;
  int co_failed = 0;
  int co_capped = 0;  ///< CO frames with at least one QP's iteration cap
  double admm_iters = 0.0;
  int frames = 0;
  int il_frames = 0;

  void merge(const LayerCounters& o) {
    plans += o.plans;
    plans_solved += o.plans_solved;
    expansions += o.expansions;
    co_frames += o.co_frames;
    co_failed += o.co_failed;
    co_capped += o.co_capped;
    admm_iters += o.admm_iters;
    frames += o.frames;
    il_frames += o.il_frames;
  }
};

class TracedIcoil final : public icoil::core::Controller {
 public:
  TracedIcoil(const icoil::il::IlPolicy& policy, Tracer* tracer,
              LayerCounters* counters,
              icoil::core::IcoilConfig config = {})
      : config_(config), policy_(policy.clone()),
        rasterizer_(policy.bev_spec()), planner_(config.co, config.vehicle),
        hsa_(config.hsa), switcher_(config.hsa, icoil::core::Mode::kCo),
        safety_(config.safety, config.vehicle), model_(config.vehicle),
        tracer_(tracer), counters_(counters) {}

  std::string name() const override { return "iCOIL"; }

  void reset(const icoil::world::Scenario& scenario) override {
    noise_ = std::make_unique<icoil::sense::ImageNoise>(scenario.noise);
    detector_ = std::make_unique<icoil::sense::Detector>(scenario.noise);
    hsa_.reset();
    switcher_.reset(icoil::core::Mode::kCo);
    safety_.reset();
    frame_ = {};
    start_ = scenario.start_pose;
    goal_ = scenario.map.goal_pose;
    bounds_ = scenario.map.bounds;
    statics_.clear();
    for (const icoil::world::Obstacle& o : scenario.obstacles)
      if (!o.dynamic()) statics_.push_back(o.shape);
    // Clears the previous episode's reference and distance field exactly as
    // the real controller does; the plan itself runs on the first frame.
    planner_.defer_reference(start_, goal_, statics_, bounds_);
    plan_pending_ = true;
  }

  using Controller::act;
  icoil::vehicle::Command act(const icoil::world::World& world,
                              const icoil::vehicle::State& state,
                              icoil::core::FrameContext& frame) override {
    const auto t0 = std::chrono::steady_clock::now();
    plan(world, frame);
    const icoil::sense::BevImage bev = sense(world, state, frame);
    icoil::il::Inference inf;
    {
      Scope s(tracer_, Layer::kInfer);
      inf = policy_->infer(icoil::il::make_observation(bev, state.speed));
    }
    return finish(world, state, frame, inf, t0);
  }

  const icoil::core::FrameInfo& last_frame() const override { return frame_; }

 private:
  void plan(const icoil::world::World& world,
            icoil::core::FrameContext& frame) {
    planner_.set_distance_field(world.distance_field());
    if (!plan_pending_) return;
    plan_pending_ = false;
    bool solved = false;
    {
      Scope s(tracer_, Layer::kPlan);
      solved = planner_.plan_reference(start_, goal_, statics_, bounds_, &frame);
    }
    counters_->plans += 1;
    counters_->plans_solved += solved ? 1 : 0;
    counters_->expansions += planner_.last_plan_stats().expansions;
  }

  icoil::sense::BevImage sense(const icoil::world::World& world,
                               const icoil::vehicle::State& state,
                               icoil::core::FrameContext& frame) {
    Scope s(tracer_, Layer::kSense);
    icoil::sense::BevImage bev = rasterizer_.render(world, state.pose);
    if (noise_) noise_->apply(bev, frame.rng());
    return bev;
  }

  icoil::vehicle::Command finish(const icoil::world::World& world,
                                 const icoil::vehicle::State& state,
                                 icoil::core::FrameContext& frame,
                                 const icoil::il::Inference& inf,
                                 std::chrono::steady_clock::time_point t0) {
    std::vector<icoil::sense::Detection> detections;
    std::vector<double> distances;
    {
      Scope s(tracer_, Layer::kDetect);
      detections = detector_->detect(world, state.pose.position, frame.rng());
      const icoil::geom::Obb ego = model_.footprint(state);
      distances.reserve(detections.size());
      for (const icoil::sense::Detection& d : detections)
        distances.push_back(icoil::geom::obb_distance(ego, d.box));
    }
    icoil::core::Mode mode;
    {
      Scope s(tracer_, Layer::kHsa);
      hsa_.push(inf.entropy, distances);
      mode = switcher_.update(hsa_.ratio());
    }
    icoil::vehicle::Command cmd;
    counters_->frames += 1;
    if (mode == icoil::core::Mode::kIl) {
      Scope s(tracer_, Layer::kSafety);
      cmd = safety_.filter(world, state, inf.command);
      counters_->il_frames += 1;
    } else {
      {
        Scope s(tracer_, Layer::kTrajopt);
        cmd = planner_.act(state, detections, &frame);
      }
      counters_->co_frames += 1;
      counters_->co_failed += planner_.last_result().ok ? 0 : 1;
      const int iters = planner_.last_result().qp_iterations;
      counters_->admm_iters += iters;
      counters_->co_capped +=
          iters >= config_.co.trajopt.qp.max_iterations ? 1 : 0;
    }
    frame_.mode = mode;
    frame_.entropy = inf.entropy;
    frame_.uncertainty = hsa_.uncertainty();
    frame_.complexity = hsa_.normalized_complexity();
    frame_.ratio = hsa_.ratio();
    frame_.command = cmd;
    frame_.deadline_hit = frame.deadline_hit();
    frame_.solve_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return cmd;
  }

  icoil::core::IcoilConfig config_;
  std::unique_ptr<icoil::il::IlPolicy> policy_;
  icoil::sense::BevRasterizer rasterizer_;
  std::unique_ptr<icoil::sense::ImageNoise> noise_;
  std::unique_ptr<icoil::sense::Detector> detector_;
  icoil::co::CoPlanner planner_;
  icoil::core::Hsa hsa_;
  icoil::core::ModeSwitcher switcher_;
  icoil::core::SafetyMonitor safety_;
  icoil::vehicle::BicycleModel model_;
  icoil::core::FrameInfo frame_;
  icoil::geom::Pose2 start_, goal_;
  icoil::geom::Aabb bounds_;
  std::vector<icoil::geom::Obb> statics_;
  bool plan_pending_ = false;
  Tracer* tracer_;
  LayerCounters* counters_;
};

class TracedIl final : public icoil::core::Controller,
                       public icoil::core::BatchClient {
 public:
  TracedIl(const icoil::il::IlPolicy& policy, Tracer* tracer,
           LayerCounters* counters)
      : policy_(policy.clone()), rasterizer_(policy.bev_spec()),
        tracer_(tracer), counters_(counters) {}

  std::string name() const override { return "IL"; }

  void reset(const icoil::world::Scenario& scenario) override {
    noise_ = std::make_unique<icoil::sense::ImageNoise>(scenario.noise);
    frame_ = {};
    frame_.mode = icoil::core::Mode::kIl;
  }

  using Controller::act;
  icoil::vehicle::Command act(const icoil::world::World& world,
                              const icoil::vehicle::State& state,
                              icoil::core::FrameContext& frame) override {
    const auto t0 = std::chrono::steady_clock::now();
    const icoil::sense::BevImage bev = sense(world, state, frame);
    icoil::il::Inference inf;
    {
      Scope s(tracer_, Layer::kInfer);
      inf = policy_->infer(icoil::il::make_observation(bev, state.speed));
    }
    return finish(inf, t0);
  }

  void stage(const icoil::world::World& world,
             const icoil::vehicle::State& state,
             icoil::core::FrameContext& frame,
             icoil::il::BatchInferencer& service) override {
    stage_t0_ = std::chrono::steady_clock::now();
    const icoil::sense::BevImage bev = sense(world, state, frame);
    slot_ = service.submit(icoil::il::make_observation(bev, state.speed));
  }

  icoil::vehicle::Command commit(
      const icoil::world::World&, const icoil::vehicle::State&,
      icoil::core::FrameContext&,
      const icoil::il::BatchInferencer& service) override {
    return finish(service.result(slot_), stage_t0_);
  }

  const icoil::core::FrameInfo& last_frame() const override { return frame_; }

 private:
  icoil::sense::BevImage sense(const icoil::world::World& world,
                               const icoil::vehicle::State& state,
                               icoil::core::FrameContext& frame) {
    Scope s(tracer_, Layer::kSense);
    icoil::sense::BevImage bev = rasterizer_.render(world, state.pose);
    if (noise_) noise_->apply(bev, frame.rng());
    return bev;
  }

  icoil::vehicle::Command finish(const icoil::il::Inference& inf,
                                 std::chrono::steady_clock::time_point t0) {
    counters_->frames += 1;  // no HSA here: il_frames counts HSA picks only
    frame_.mode = icoil::core::Mode::kIl;
    frame_.entropy = inf.entropy;
    frame_.uncertainty = inf.entropy;
    frame_.complexity = 0.0;
    frame_.ratio = 0.0;
    frame_.command = inf.command;
    frame_.deadline_hit = false;
    frame_.solve_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return inf.command;
  }

  std::unique_ptr<icoil::il::IlPolicy> policy_;
  icoil::sense::BevRasterizer rasterizer_;
  std::unique_ptr<icoil::sense::ImageNoise> noise_;
  icoil::core::FrameInfo frame_;
  std::size_t slot_ = 0;
  std::chrono::steady_clock::time_point stage_t0_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

}  // namespace perfbench
