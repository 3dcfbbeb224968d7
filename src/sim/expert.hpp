#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "co/planner.hpp"
#include "il/dataset.hpp"
#include "il/policy.hpp"
#include "sim/curriculum.hpp"
#include "world/scenario.hpp"

namespace icoil::sim {

/// Demonstration-collection settings. The paper collected 5171 samples
/// (2624 forward-moving, 2547 reverse-parking) from a human driver; our
/// scripted expert is the CO planner whose commands pass through the same
/// action discretization the IL network predicts, so the demonstrations
/// are exactly representable by the policy class.
struct ExpertConfig {
  int episodes = 20;
  std::uint64_t base_seed = 500;
  int frame_stride = 2;      ///< record every k-th frame
  double dt = 0.05;
  co::CoPlannerConfig co;
  /// Scenario cells episodes are drawn from (deterministic weighted
  /// assignment; see Curriculum). Defaults to the canonical/easy-only
  /// behaviour of the pre-curriculum recorder.
  Curriculum curriculum = Curriculum::canonical();
  /// Mix of start classes so the dataset covers the whole lot: when set, the
  /// per-episode start class cycles random/close/remote regardless of the
  /// curriculum entry's start_class.
  bool mix_start_classes = true;
};

/// Statistics of a recording run.
struct ExpertStats {
  int episodes_run = 0;
  int episodes_succeeded = 0;
  std::size_t samples = 0;
  std::size_t forward_samples = 0;
  std::size_t reverse_samples = 0;
  /// Episodes recorded per scenario family (curriculum composition).
  std::map<std::string, int> episodes_by_family;
};

/// Rolls out the CO expert on curriculum-sampled scenarios and records
/// (BEV image, discretized action) pairs into a behaviour-cloning dataset,
/// tagging every sample with its scenario family and difficulty. The expert
/// executes the discretized command it records (the MPC replans around
/// discretization error), so closed-loop IL behaviour matches the
/// demonstrations.
class ExpertRecorder {
 public:
  ExpertRecorder(ExpertConfig config, il::IlPolicyConfig policy_config);

  /// Record demonstrations; `stats_out` is optional.
  il::Dataset record(ExpertStats* stats_out = nullptr) const;

 private:
  void record_episode(int ep, const CurriculumEntry& entry,
                      il::Dataset& dataset, ExpertStats& stats) const;
  /// Rolls the CO expert through one concrete scenario, recording samples.
  /// Generator episodes call it once; mission episodes call it per leg.
  void record_scenario(const world::Scenario& scenario, std::uint64_t seed,
                       il::Dataset& dataset, ExpertStats& stats) const;

  ExpertConfig config_;
  il::IlPolicyConfig policy_config_;
};

}  // namespace icoil::sim
