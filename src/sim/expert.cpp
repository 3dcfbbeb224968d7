#include "sim/expert.hpp"

#include <cmath>
#include <stdexcept>

#include "core/task_pool.hpp"
#include "geom/angles.hpp"
#include "il/action.hpp"
#include "il/observation.hpp"
#include "sensing/bev.hpp"
#include "sensing/detector.hpp"
#include "world/world.hpp"

namespace icoil::sim {

namespace {
// Upper bound on recorder worker threads (one episode per task).
constexpr int kRecorderThreadCap = 16;
}  // namespace

ExpertRecorder::ExpertRecorder(ExpertConfig config,
                               il::IlPolicyConfig policy_config)
    : config_(config), policy_config_(policy_config) {
  if (config_.curriculum.empty()) config_.curriculum = Curriculum::canonical();
}

il::Dataset ExpertRecorder::record(ExpertStats* stats_out) const {
  // Episodes are independent: record them in parallel, then merge in
  // episode order so the dataset is deterministic regardless of thread
  // scheduling. The curriculum fixes each episode's scenario cell up front.
  const std::vector<int> cell_of_episode =
      config_.curriculum.assignments(config_.episodes);
  std::vector<il::Dataset> episode_data(static_cast<std::size_t>(config_.episodes));
  std::vector<ExpertStats> episode_stats(static_cast<std::size_t>(config_.episodes));

  core::TaskPool pool(core::TaskPool::recommended_workers(
      /*requested=*/0, config_.episodes, kRecorderThreadCap));
  for (int ep = 0; ep < config_.episodes; ++ep) {
    pool.submit([&, ep](const core::TaskPool::Context&) {
      const CurriculumEntry& entry =
          config_.curriculum
              .entries[static_cast<std::size_t>(cell_of_episode[static_cast<std::size_t>(ep)])];
      record_episode(ep, entry, episode_data[static_cast<std::size_t>(ep)],
                     episode_stats[static_cast<std::size_t>(ep)]);
    });
  }
  pool.wait_idle();

  il::Dataset dataset;
  ExpertStats stats;
  for (int ep = 0; ep < config_.episodes; ++ep) {
    dataset.append(episode_data[static_cast<std::size_t>(ep)]);
    const ExpertStats& es = episode_stats[static_cast<std::size_t>(ep)];
    stats.episodes_run += es.episodes_run;
    stats.episodes_succeeded += es.episodes_succeeded;
    stats.samples += es.samples;
    stats.forward_samples += es.forward_samples;
    stats.reverse_samples += es.reverse_samples;
    for (const auto& [family, count] : es.episodes_by_family)
      stats.episodes_by_family[family] += count;
  }
  if (stats_out) *stats_out = stats;
  return dataset;
}

void ExpertRecorder::record_episode(int ep, const CurriculumEntry& entry,
                                    il::Dataset& dataset,
                                    ExpertStats& stats) const {
  const std::uint64_t seed = config_.base_seed + static_cast<std::uint64_t>(ep);

  if (!entry.mission.empty()) {
    // Mission cell: one "episode" is one mission run's worth of driving
    // legs, each recorded as its own expert rollout (statics + traffic
    // frozen at the leg start, goal set to the leg goal).
    const MissionLegExpander& expand = mission_leg_expander();
    if (!expand)
      throw std::logic_error(
          "ExpertRecorder: curriculum entry \"mission:" + entry.mission +
          "\" needs a mission-leg expander — call "
          "mission::install_curriculum_expander() at startup");
    const std::vector<world::Scenario> legs = expand(entry.mission, seed);
    for (std::size_t leg = 0; leg < legs.size(); ++leg)
      record_scenario(legs[leg],
                      seed ^ (0xC2B2AE3D27D4EB4Full * (leg + 1)), dataset,
                      stats);
    return;
  }

  const world::StartClass classes[3] = {world::StartClass::kRandom,
                                        world::StartClass::kClose,
                                        world::StartClass::kRemote};
  world::ScenarioOptions options = entry.options();
  if (config_.mix_start_classes) options.start_class = classes[ep % 3];
  record_scenario(world::make_scenario(options, seed), seed, dataset, stats);
}

void ExpertRecorder::record_scenario(const world::Scenario& scenario,
                                     std::uint64_t seed, il::Dataset& dataset,
                                     ExpertStats& stats) const {
  const sense::BevSpec bev_spec{policy_config_.bev_size, policy_config_.bev_range};
  const sense::BevRasterizer rasterizer(bev_spec);
  const vehicle::VehicleParams params;
  const vehicle::BicycleModel model(params);

  const std::int16_t family =
      static_cast<std::int16_t>(dataset.intern_family(scenario.generator));
  const std::uint8_t difficulty =
      static_cast<std::uint8_t>(scenario.difficulty);
  ++stats.episodes_by_family[scenario.generator];

  world::World world(scenario);
  math::Rng rng(seed ^ 0xE4BE27ull);
  sense::Detector detector(scenario.noise);

  co::CoPlanner planner(config_.co, params);
  std::vector<geom::Obb> static_boxes;
  for (const world::Obstacle& o : scenario.obstacles)
    if (!o.dynamic()) static_boxes.push_back(o.shape);
  planner.plan_reference(scenario.start_pose, scenario.map.goal_pose,
                         static_boxes, scenario.map.bounds);

  vehicle::State state;
  state.pose = scenario.start_pose;

  const std::size_t max_frames =
      static_cast<std::size_t>(scenario.time_limit / config_.dt);
  bool success = false;
  for (std::size_t frame = 0; frame < max_frames; ++frame) {
    const auto detections = detector.detect(world, state.pose.position, rng);
    const vehicle::Command raw = planner.act(state, detections);
    const int label = il::ActionDiscretizer::to_class(raw);
    const vehicle::Command cmd = il::ActionDiscretizer::to_command(label);

    if (frame % static_cast<std::size_t>(config_.frame_stride) == 0) {
      il::Sample sample;
      sample.observation =
          il::make_observation(rasterizer.render(world, state.pose), state.speed);
      sample.label = label;
      sample.family = family;
      sample.difficulty = difficulty;
      dataset.add(std::move(sample));
      ++stats.samples;
      if (cmd.reverse)
        ++stats.reverse_samples;
      else
        ++stats.forward_samples;
    }

    state = model.step(state, cmd, config_.dt);
    world.step(config_.dt);

    if (world.in_collision(model.footprint(state))) break;
    if (world.at_goal(state.pose) && std::abs(state.speed) < 0.15) {
      success = true;
      break;
    }
  }
  ++stats.episodes_run;
  if (success) ++stats.episodes_succeeded;
}

}  // namespace icoil::sim
