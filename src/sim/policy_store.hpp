#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "il/dataset.hpp"
#include "il/policy.hpp"
#include "il/trainer.hpp"
#include "sim/expert.hpp"

namespace icoil::sim {

/// Options controlling on-demand policy training. `cache_path` /
/// `dataset_cache_path` are base names: the store inserts a fingerprint of
/// the training spec before the extension (see fingerprinted_path), so
/// caches trained under a different curriculum / recorder / architecture
/// spec are never silently reused and differently-trained policies coexist
/// on disk. The store reports what it loads, records and trains on stderr.
struct PolicyStoreOptions {
  std::string cache_path = "il_policy.bin";
  std::string dataset_cache_path = "il_dataset.bin";
  ExpertConfig expert;
  il::TrainConfig train;
  il::IlPolicyConfig policy;
};

/// Fingerprint of everything that determines the recorded dataset: the
/// training curriculum plus the recorder knobs and the observation geometry
/// (BEV size/range).
std::uint64_t dataset_fingerprint(const ExpertConfig& expert,
                                  const il::IlPolicyConfig& policy);

/// Fingerprint of everything that determines the trained policy: the
/// dataset fingerprint plus the network architecture and the training
/// hyperparameters.
std::uint64_t policy_fingerprint(const PolicyStoreOptions& options);

/// `path` with "-<16 hex digits>" inserted before the extension
/// ("il_policy.bin" -> "il_policy-0123456789abcdef.bin").
std::string fingerprinted_path(const std::string& path, std::uint64_t fingerprint);

/// The on-disk cache paths get_or_train_policy will use for `options`.
std::string policy_cache_path(const PolicyStoreOptions& options);
std::string dataset_cache_path(const PolicyStoreOptions& options);

/// The demonstration dataset for `options`: loaded from dataset_cache_path
/// when the file holds a v3 dataset whose images fit the network, otherwise
/// recorded (per the configured curriculum), quantize()d and saved there.
/// A fresh recording thus holds the values its cache will load, and a
/// policy trained on either is the same bits.
il::Dataset get_or_record_dataset(const PolicyStoreOptions& options);

/// Loads the trained IL policy from the fingerprinted cache path if present,
/// otherwise trains the network on get_or_record_dataset and saves it.
/// Benches and examples share one trained policy per training spec this
/// way, so the (one-time) training cost is amortized across the whole
/// harness.
std::unique_ptr<il::IlPolicy> get_or_train_policy(
    const PolicyStoreOptions& options = {});

/// Default options used by the benchmark harness: ~5000 samples
/// (paper: 5171) and enough epochs to converge. Respects the
/// ICOIL_EPOCHS / ICOIL_EXPERT_EPISODES environment variables for quick
/// runs.
PolicyStoreOptions default_policy_options();

/// Strictly-parsed integer environment variable: returns `fallback` when
/// `name` is unset, and warns on stderr (keeping `fallback`) when the value
/// is malformed, has trailing junk, or is below `min_value`.
int env_int_or(const char* name, int fallback, int min_value = 1);

}  // namespace icoil::sim
