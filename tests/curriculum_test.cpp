#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>

#include "il/observation.hpp"
#include "sim/curriculum.hpp"
#include "sim/expert.hpp"
#include "sim/policy_store.hpp"
#include "world/generators/registry.hpp"

namespace icoil::sim {
namespace {

il::IlPolicyConfig tiny_policy_config() {
  il::IlPolicyConfig cfg;
  cfg.bev_size = 16;
  cfg.conv_channels[0] = 4;
  cfg.conv_channels[1] = 4;
  cfg.conv_channels[2] = 8;
  cfg.fc_sizes[0] = 32;
  cfg.fc_sizes[1] = 16;
  cfg.fc_sizes[2] = 16;
  return cfg;
}

// ------------------------------------------------------------- assignment

TEST(CurriculumTest, EpisodeCountsFollowWeights) {
  Curriculum c;
  CurriculumEntry heavy;
  heavy.generator = "canonical";
  heavy.weight = 3.0;
  CurriculumEntry light;
  light.generator = "crowded_lot";
  light.weight = 1.0;
  c.entries = {heavy, light};

  const auto counts = c.episode_counts(8);
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], 6);
  EXPECT_EQ(counts[1], 2);

  // Counts always sum to the episode total, whatever the remainders.
  for (int n : {1, 3, 7, 10, 31}) {
    const auto k = c.episode_counts(n);
    EXPECT_EQ(k[0] + k[1], n) << n;
  }
}

TEST(CurriculumTest, AssignmentsDeterministicAndInterleaved) {
  Curriculum c = Curriculum::all_families();
  ASSERT_GE(c.size(), 4u);

  const auto a = c.assignments(20);
  const auto b = c.assignments(20);
  ASSERT_EQ(a.size(), 20u);
  EXPECT_EQ(a, b);  // deterministic

  // Every family appears, matching its episode_counts share.
  const auto counts = c.episode_counts(20);
  std::vector<int> seen(c.size(), 0);
  for (int idx : a) {
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, static_cast<int>(c.size()));
    ++seen[static_cast<std::size_t>(idx)];
  }
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_EQ(seen[i], counts[i]) << i;

  // Interleaving: a prefix of one family-count already mixes families.
  std::set<int> prefix(a.begin(), a.begin() + static_cast<int>(c.size()));
  EXPECT_GT(prefix.size(), 1u);
}

TEST(CurriculumTest, ParseSpecs) {
  EXPECT_EQ(Curriculum::parse("canonical").size(), 1u);
  EXPECT_EQ(Curriculum::parse("").size(), 1u);
  EXPECT_EQ(Curriculum::parse("all").size(),
            world::GeneratorRegistry::instance().size());
  const Curriculum two = Curriculum::parse("crowded_lot,parallel_street");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two.entries[0].generator, "crowded_lot");
  EXPECT_EQ(two.entries[1].generator, "parallel_street");
  EXPECT_THROW(Curriculum::parse("not_a_generator"), std::invalid_argument);
  EXPECT_THROW(Curriculum::parse("canonical,nope"), std::invalid_argument);
}

// ------------------------------------------------------------ fingerprint

TEST(CurriculumTest, FingerprintSeparatesSpecs) {
  const std::uint64_t canonical = Curriculum::canonical().fingerprint();
  EXPECT_EQ(canonical, Curriculum::canonical().fingerprint());
  EXPECT_NE(canonical, Curriculum::all_families().fingerprint());

  Curriculum tweaked = Curriculum::canonical();
  tweaked.entries[0].difficulty = world::Difficulty::kHard;
  EXPECT_NE(canonical, tweaked.fingerprint());

  Curriculum reweighted = Curriculum::canonical();
  reweighted.entries[0].weight = 2.0;
  EXPECT_NE(canonical, reweighted.fingerprint());

  // The display name is excluded: equal specs share a fingerprint.
  Curriculum renamed = Curriculum::canonical();
  renamed.name = "renamed";
  EXPECT_EQ(canonical, renamed.fingerprint());
}

// ------------------------------------------------------------- provenance

TEST(CurriculumTest, ExpertRecordsProvenanceAcrossFamilies) {
  ExpertConfig cfg;
  cfg.curriculum = Curriculum::all_families();
  cfg.episodes = static_cast<int>(cfg.curriculum.size());
  cfg.frame_stride = 16;
  ExpertStats stats;
  const il::Dataset dataset =
      ExpertRecorder(cfg, tiny_policy_config()).record(&stats);
  ASSERT_GT(dataset.size(), 0u);

  // One episode per family -> every registered family contributes samples.
  const auto hist = dataset.family_histogram();
  EXPECT_GE(hist.size(), 4u);
  EXPECT_EQ(hist.count("unknown"), 0u);
  for (const std::string& name : world::GeneratorRegistry::instance().names())
    EXPECT_GT(hist.at(name), 0u) << name;
  EXPECT_EQ(stats.episodes_by_family.size(), cfg.curriculum.size());

  // Per-sample provenance is consistent with the curriculum difficulty.
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_GE(dataset[i].family, 0);
    EXPECT_EQ(dataset[i].difficulty,
              static_cast<std::uint8_t>(world::Difficulty::kEasy));
  }

  // The histogram counts each sample under its own family's name.
  std::size_t canonical = 0;
  for (std::size_t i = 0; i < dataset.size(); ++i)
    canonical += dataset.family_name(dataset[i].family) == "canonical";
  EXPECT_EQ(canonical, hist.at("canonical"));
}

TEST(CurriculumTest, ProvenanceRoundTripsThroughSaveLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_curriculum_ds.bin")
          .string();
  ExpertConfig cfg;
  cfg.curriculum = Curriculum::parse("canonical,dynamic_gauntlet");
  cfg.episodes = 4;
  cfg.frame_stride = 16;
  const il::Dataset a = ExpertRecorder(cfg, tiny_policy_config()).record();
  ASSERT_GT(a.size(), 0u);
  ASSERT_TRUE(a.save(path));

  il::Dataset b;
  ASSERT_TRUE(b.load(path));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.family_names(), b.family_names());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].family, b[i].family);
    EXPECT_EQ(a[i].difficulty, b[i].difficulty);
    EXPECT_EQ(a[i].label, b[i].label);
  }
  EXPECT_EQ(a.family_histogram(), b.family_histogram());
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ cache keying

TEST(PolicyStoreCurriculumTest, FingerprintMismatchForcesRetrain) {
  const auto dir =
      std::filesystem::temp_directory_path() / "icoil_curriculum_store";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  PolicyStoreOptions opts;
  opts.cache_path = (dir / "policy.bin").string();
  opts.dataset_cache_path = (dir / "dataset.bin").string();
  opts.expert.episodes = 1;
  opts.expert.frame_stride = 16;
  opts.train.epochs = 1;
  opts.policy = tiny_policy_config();

  const std::string canonical_path = policy_cache_path(opts);
  const auto canonical_policy = get_or_train_policy(opts);
  ASSERT_NE(canonical_policy, nullptr);
  EXPECT_TRUE(std::filesystem::exists(canonical_path));

  // Same spec -> same fingerprint -> the cache is reused, not retrained
  // (the dataset cache would be rewritten on a retrain; its write time is
  // not observable here, so assert via identical inference instead).
  const auto reloaded = get_or_train_policy(opts);
  sense::BevImage obs(il::kObservationChannels, 16);
  obs.at(0, 5, 5) = 1.0f;
  const auto ia = canonical_policy->infer(obs);
  const auto ib = reloaded->infer(obs);
  for (std::size_t i = 0; i < ia.probs.size(); ++i)
    EXPECT_FLOAT_EQ(ia.probs[i], ib.probs[i]);

  // A different curriculum fingerprints to a different path: the canonical
  // cache cannot be silently reused and a fresh policy is trained.
  PolicyStoreOptions curriculum_opts = opts;
  curriculum_opts.expert.curriculum = Curriculum::parse("crowded_lot");
  const std::string curriculum_path = policy_cache_path(curriculum_opts);
  EXPECT_NE(canonical_path, curriculum_path);
  EXPECT_FALSE(std::filesystem::exists(curriculum_path));
  const auto curriculum_policy = get_or_train_policy(curriculum_opts);
  ASSERT_NE(curriculum_policy, nullptr);
  EXPECT_TRUE(std::filesystem::exists(curriculum_path));
  EXPECT_TRUE(std::filesystem::exists(canonical_path));  // both coexist

  std::filesystem::remove_all(dir);
}

TEST(PolicyStoreCurriculumTest, EnvIntOrValidatesStrictly) {
  ASSERT_EQ(setenv("ICOIL_TEST_ENV_INT", "12", 1), 0);
  EXPECT_EQ(env_int_or("ICOIL_TEST_ENV_INT", 3), 12);
  setenv("ICOIL_TEST_ENV_INT", "12abc", 1);
  EXPECT_EQ(env_int_or("ICOIL_TEST_ENV_INT", 3), 3);
  setenv("ICOIL_TEST_ENV_INT", "garbage", 1);
  EXPECT_EQ(env_int_or("ICOIL_TEST_ENV_INT", 3), 3);
  setenv("ICOIL_TEST_ENV_INT", "0", 1);
  EXPECT_EQ(env_int_or("ICOIL_TEST_ENV_INT", 3), 3);  // below min_value = 1
  setenv("ICOIL_TEST_ENV_INT", "-5", 1);
  EXPECT_EQ(env_int_or("ICOIL_TEST_ENV_INT", 3), 3);
  setenv("ICOIL_TEST_ENV_INT", "", 1);
  EXPECT_EQ(env_int_or("ICOIL_TEST_ENV_INT", 3), 3);
  unsetenv("ICOIL_TEST_ENV_INT");
  EXPECT_EQ(env_int_or("ICOIL_TEST_ENV_INT", 3), 3);
}

}  // namespace
}  // namespace icoil::sim
