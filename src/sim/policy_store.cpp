#include "sim/policy_store.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "co/trajopt.hpp"
#include "mathkit/fnv.hpp"

namespace icoil::sim {

namespace {

// Every CoPlannerConfig knob shapes the expert's demonstrations, so all of
// it (including the nested trajopt / hybrid-A* configs) goes into the
// dataset fingerprint, and so does the optimizer's algorithm revision.
// Field added to a config? Hash it here too.
void hash_co_config(math::Fnv1a& h, const co::CoPlannerConfig& co, int revision) {
  h.add_int(revision);
  const co::TrajOptConfig& t = co.trajopt;
  h.add_int(t.horizon);
  h.add_double(t.dt);
  h.add_int(t.sqp_iterations);
  h.add_double(t.w_pos);
  h.add_double(t.w_heading);
  h.add_double(t.w_speed);
  h.add_double(t.w_accel);
  h.add_double(t.w_steer);
  h.add_double(t.w_daccel);
  h.add_double(t.w_dsteer);
  h.add_double(t.trust_pos);
  h.add_double(t.trust_heading);
  h.add_double(t.trust_speed);
  h.add_double(t.safety_margin);
  h.add_double(t.obstacle_active_range);
  h.add_int(t.collision_discs);
  h.add_int(t.qp.max_iterations);
  h.add_double(t.qp.rho);
  h.add_double(t.qp.sigma);
  h.add_double(t.qp.alpha);
  h.add_double(t.qp.eps_abs);
  h.add_double(t.qp.eps_rel);
  h.add_int(t.qp.check_interval);
  h.add_int(t.qp.adaptive_rho ? 1 : 0);
  const co::HybridAStarConfig& a = co.astar;
  h.add_double(a.xy_resolution);
  h.add_int(a.heading_bins);
  h.add_double(a.step);
  h.add_int(a.num_steer_levels);
  h.add_double(a.reverse_penalty);
  h.add_double(a.switch_penalty);
  h.add_double(a.steer_penalty);
  h.add_double(a.steer_change_penalty);
  h.add_double(a.rs_shot_radius);
  h.add_double(a.obstacle_margin);
  h.add_double(a.sample_step);
  h.add_int(a.max_expansions);
  h.add_double(a.steer_fraction);
  h.add_double(a.rs_radius_factor);
  h.add_double(a.costmap_resolution);
  h.add_int(a.rs_shot_period);
  h.add_double(co.cruise_speed);
  h.add_double(co.reverse_speed);
  h.add_double(co.approach_distance);
  h.add_double(co.min_speed);
  h.add_double(co.goal_pos_tol);
  h.add_double(co.goal_heading_tol);
  h.add_double(co.phase_pos_tol);
  h.add_double(co.phase_heading_tol);
  h.add_double(co.phase_speed_tol);
  h.add_double(co.stall_seconds);
  h.add_double(co.dt);
  h.add_double(co.switch_extension);
}

}  // namespace

int env_int_or(const char* name, int fallback, int min_value) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(env, &end, 10);
  if (errno != 0 || end == env || *end != '\0') {
    std::fprintf(stderr,
                 "[policy_store] warning: %s=\"%s\" is not an integer; "
                 "using %d\n",
                 name, env, fallback);
    return fallback;
  }
  if (value < min_value || value > 1000000000L) {
    std::fprintf(stderr,
                 "[policy_store] warning: %s=%ld out of range [%d, 1e9]; "
                 "using %d\n",
                 name, value, min_value, fallback);
    return fallback;
  }
  return static_cast<int>(value);
}

namespace detail {

// dataset_fingerprint with the expert's revision as a parameter, so a test
// can show that another revision gives another key. Declared where used.
std::uint64_t dataset_fingerprint(const ExpertConfig& expert,
                                  const il::IlPolicyConfig& policy, int co_revision) {
  // ExpertRecorder normalizes an empty curriculum to canonical(); hash the
  // normalized form so both spellings share one cache.
  math::Fnv1a h(expert.curriculum.empty()
                    ? Curriculum::canonical().fingerprint()
                    : expert.curriculum.fingerprint());
  h.add_int(expert.episodes);
  h.add_int(static_cast<std::int64_t>(expert.base_seed));
  h.add_int(expert.frame_stride);
  h.add_double(expert.dt);
  hash_co_config(h, expert.co, co_revision);
  h.add_int(expert.mix_start_classes ? 1 : 0);
  h.add_int(policy.bev_size);
  h.add_double(policy.bev_range);
  // A cache written with another codec holds other values.
  h.add_int(il::Dataset::kFormatVersion);
  return h.value();
}

}  // namespace detail

std::uint64_t dataset_fingerprint(const ExpertConfig& expert,
                                  const il::IlPolicyConfig& policy) {
  return detail::dataset_fingerprint(expert, policy, co::TrajOpt::kRevision);
}

std::uint64_t policy_fingerprint(const PolicyStoreOptions& options) {
  math::Fnv1a h(dataset_fingerprint(options.expert, options.policy));
  // The gradient shard count fixes the summation order, and with it the
  // trained weights, so it is part of the cache key.
  h.add_int(il::Trainer::kShards);
  for (int c : options.policy.conv_channels) h.add_int(c);
  for (int w : options.policy.fc_sizes) h.add_int(w);
  h.add_int(options.train.epochs);
  h.add_int(options.train.batch_size);
  h.add_double(options.train.learning_rate);
  h.add_double(options.train.validation_fraction);
  h.add_int(static_cast<std::int64_t>(options.train.shuffle_seed));
  return h.value();
}

std::string fingerprinted_path(const std::string& path,
                               std::uint64_t fingerprint) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  const std::size_t slash = path.find_last_of('/');
  const std::size_t dot = path.find_last_of('.');
  const bool has_ext =
      dot != std::string::npos && (slash == std::string::npos || dot > slash);
  if (!has_ext) return path + "-" + hex;
  return path.substr(0, dot) + "-" + hex + path.substr(dot);
}

std::string policy_cache_path(const PolicyStoreOptions& options) {
  return fingerprinted_path(options.cache_path, policy_fingerprint(options));
}

std::string dataset_cache_path(const PolicyStoreOptions& options) {
  return fingerprinted_path(options.dataset_cache_path,
                            dataset_fingerprint(options.expert, options.policy));
}

PolicyStoreOptions default_policy_options() {
  PolicyStoreOptions options;
  options.expert.episodes = 30;
  options.train.epochs = 40;
  options.train.batch_size = 64;
  options.train.epochs = env_int_or("ICOIL_EPOCHS", options.train.epochs);
  options.expert.episodes =
      env_int_or("ICOIL_EXPERT_EPISODES", options.expert.episodes);
  return options;
}

il::Dataset get_or_record_dataset(const PolicyStoreOptions& options) {
  const std::string path = dataset_cache_path(options);
  il::Dataset dataset;
  // A cached dataset is reused only if its images fit the network; any
  // other shape would feed the first conv and dense layers out of bounds.
  if (dataset.load(path) &&
      (dataset.empty() ||
       (dataset[0].observation.channels() == il::kObservationChannels &&
        dataset[0].observation.size() == options.policy.bev_size))) {
    std::fprintf(stderr, "[policy_store] loaded %zu cached samples from %s\n",
                 dataset.size(), path.c_str());
    return dataset;
  }

  std::fprintf(stderr,
               "[policy_store] no usable dataset at %s; recording expert "
               "demonstrations (%d episodes, curriculum \"%s\")...\n",
               path.c_str(), options.expert.episodes,
               options.expert.curriculum.name.c_str());
  ExpertStats stats;
  dataset = ExpertRecorder(options.expert, options.policy).record(&stats);
  // Train on what the cache will hold, so a policy does not depend on
  // whether its dataset was recorded or loaded.
  dataset.quantize();
  std::fprintf(stderr,
               "[policy_store] %zu samples (%zu forward, %zu reverse), "
               "%d/%d expert episodes parked\n",
               stats.samples, stats.forward_samples, stats.reverse_samples,
               stats.episodes_succeeded, stats.episodes_run);
  for (const auto& [family, episodes] : stats.episodes_by_family)
    std::fprintf(stderr, "[policy_store]   %-18s %d episodes\n",
                 family.c_str(), episodes);
  if (!dataset.save(path))
    std::fprintf(stderr, "[policy_store] warning: could not save dataset to %s\n",
                 path.c_str());
  return dataset;
}

std::unique_ptr<il::IlPolicy> get_or_train_policy(
    const PolicyStoreOptions& options) {
  const std::string cache_path = policy_cache_path(options);
  auto policy = std::make_unique<il::IlPolicy>(options.policy);
  if (policy->load(cache_path)) {
    std::fprintf(stderr,
                 "[policy_store] loaded cached policy from %s "
                 "(curriculum \"%s\")\n",
                 cache_path.c_str(), options.expert.curriculum.name.c_str());
    return policy;
  }

  std::fprintf(stderr, "[policy_store] no cache at %s\n", cache_path.c_str());
  const il::Dataset dataset = get_or_record_dataset(options);
  std::fprintf(stderr, "[policy_store] training %d epochs on %zu samples...\n",
               options.train.epochs, dataset.size());

  il::Trainer trainer(options.train);
  trainer.train(*policy, dataset, [](const il::EpochStats& e) {
    std::fprintf(stderr,
                 "[policy_store] epoch %d: loss %.4f, train acc %.3f, "
                 "val acc %.3f\n",
                 e.epoch, e.train_loss, e.train_accuracy, e.val_accuracy);
  });

  if (!policy->save(cache_path))
    std::fprintf(stderr, "[policy_store] warning: could not save cache to %s\n",
                 cache_path.c_str());
  return policy;
}

}  // namespace icoil::sim
