#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/icoil_controller.hpp"
#include "core/il_controller.hpp"
#include "il/batch_inferencer.hpp"
#include "il/observation.hpp"
#include "il/policy.hpp"
#include "il_oracle.hpp"
#include "sensing/bev.hpp"
#include "sim/session.hpp"
#include "world/generators/registry.hpp"
#include "world/scenario.hpp"
#include "world/world.hpp"

namespace icoil {
namespace {

using il::testing::expect_same_inference;
using il::testing::oracle_infer;

// A freshly initialized policy suffices for the identity contract: nothing
// below depends on the weights being trained, only on the batched forward
// replaying the per-observation forward bit for bit.
il::IlPolicy make_policy() { return il::IlPolicy(il::IlPolicyConfig(), 99u); }

sense::BevImage observation_for(const il::IlPolicy& policy,
                                const std::string& family, std::uint64_t seed,
                                double speed) {
  world::ScenarioOptions opt;
  opt.generator = family;
  const world::Scenario scenario = world::make_scenario(opt, seed);
  const world::World world(scenario);
  const sense::BevRasterizer rasterizer(policy.bev_spec());
  const sense::BevImage bev = rasterizer.render(world, scenario.start_pose);
  return il::make_observation(bev, speed);
}

// ------------------------------------------------- batched == single infer

TEST(BatchInferencerTest, MatchesSingleInferAcrossScenarioFamilies) {
  il::IlPolicy policy = make_policy();
  il::BatchInferencer service(policy, 32);

  std::vector<sense::BevImage> observations;
  const auto families = world::GeneratorRegistry::instance().names();
  ASSERT_GE(families.size(), 2u);
  for (std::size_t f = 0; f < families.size(); ++f)
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
      observations.push_back(observation_for(policy, families[f], seed,
                                             0.4 * static_cast<double>(f) -
                                                 0.5));

  std::vector<std::size_t> slots;
  for (const sense::BevImage& obs : observations)
    slots.push_back(service.submit(obs));
  service.run_tick();

  for (std::size_t i = 0; i < observations.size(); ++i) {
    const std::string what = "obs " + std::to_string(i);
    const il::Inference single = policy.infer(observations[i]);
    expect_same_inference(service.result(slots[i]), single, what.c_str());
    expect_same_inference(single, oracle_infer(policy, observations[i]),
                          what.c_str());
  }
}

TEST(BatchInferencerTest, MatchesSingleInferAtEachBatchSize) {
  il::IlPolicy policy = make_policy();
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{32}}) {
    il::BatchInferencer service(policy, 32);
    std::vector<sense::BevImage> observations;
    for (std::size_t i = 0; i < n; ++i)
      observations.push_back(observation_for(
          policy, "canonical", 10 + i, 0.1 * static_cast<double>(i)));

    for (const sense::BevImage& obs : observations) service.submit(obs);
    service.run_tick();

    EXPECT_EQ(service.stats().requests, n);
    EXPECT_EQ(service.stats().batches, 1u);
    EXPECT_EQ(service.stats().max_batch, n);
    for (std::size_t i = 0; i < n; ++i)
      expect_same_inference(service.result(i), policy.infer(observations[i]),
                            ("batch " + std::to_string(n) + " obs " +
                             std::to_string(i))
                                .c_str());
  }
}

TEST(BatchInferencerTest, RaggedFinalChunkMatchesSingleInfer) {
  il::IlPolicy policy = make_policy();
  il::BatchInferencer service(policy, 32);

  // 37 submissions against a 32 cap: one full chunk plus a ragged 5-tail.
  std::vector<sense::BevImage> observations;
  for (std::size_t i = 0; i < 37; ++i)
    observations.push_back(
        observation_for(policy, "canonical", 100 + i, i % 2 == 0 ? 0.3 : -0.2));
  for (const sense::BevImage& obs : observations) service.submit(obs);
  service.run_tick();

  EXPECT_EQ(service.stats().ticks, 1u);
  EXPECT_EQ(service.stats().requests, 37u);
  EXPECT_EQ(service.stats().batches, 2u);
  EXPECT_EQ(service.stats().max_batch, 32u);
  EXPECT_DOUBLE_EQ(service.stats().mean_batch(), 18.5);

  for (std::size_t i = 0; i < observations.size(); ++i)
    expect_same_inference(service.result(i), policy.infer(observations[i]),
                          ("obs " + std::to_string(i)).c_str());
}

// The batched forward reads the policy's weights on every tick: loading
// other weights between ticks must show on the next one.
TEST(BatchInferencerTest, TickFollowsLoad) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_batch_load.bin").string();
  il::IlPolicy other(il::IlPolicyConfig(), 7u);
  ASSERT_TRUE(other.save(path));

  il::IlPolicy policy = make_policy();
  il::BatchInferencer service(policy, 32);
  std::vector<sense::BevImage> observations;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    observations.push_back(observation_for(policy, "canonical", seed, 0.2));

  for (const sense::BevImage& obs : observations) service.submit(obs);
  service.run_tick();
  ASSERT_TRUE(policy.load(path));
  for (const sense::BevImage& obs : observations) service.submit(obs);
  service.run_tick();

  for (std::size_t i = 0; i < observations.size(); ++i)
    expect_same_inference(service.result(i), oracle_infer(other, observations[i]),
                          ("obs " + std::to_string(i)).c_str());
  std::filesystem::remove(path);
}

// submit() is the entry point worker threads share: concurrent submissions
// must each land in their own slot and read back their own row.
TEST(BatchInferencerTest, ConcurrentSubmitsMatchOracle) {
  il::IlPolicy policy = make_policy();
  il::BatchInferencer service(policy, 32);
  constexpr std::size_t kThreads = 4, kPerThread = 6;
  std::vector<sense::BevImage> observations;
  for (std::size_t i = 0; i < kThreads * kPerThread; ++i)
    observations.push_back(observation_for(policy, "canonical", 200 + i,
                                           0.05 * static_cast<double>(i)));

  std::vector<std::size_t> slots(observations.size());
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (std::size_t k = 0; k < kPerThread; ++k) {
        const std::size_t i = t * kPerThread + k;
        slots[i] = service.submit(observations[i]);
      }
    });
  for (std::thread& w : workers) w.join();
  service.run_tick();

  EXPECT_EQ(service.stats().requests, observations.size());
  for (std::size_t i = 0; i < observations.size(); ++i)
    expect_same_inference(service.result(slots[i]),
                          oracle_infer(policy, observations[i]),
                          ("obs " + std::to_string(i)).c_str());
}

TEST(BatchInferencerTest, EmptyTickIsANoOp) {
  il::IlPolicy policy = make_policy();
  il::BatchInferencer service(policy);
  service.run_tick();
  EXPECT_EQ(service.stats().ticks, 0u);
  EXPECT_EQ(service.stats().requests, 0u);
}

// ------------------------------------- staged sessions == stepped sessions

void expect_same_result(const sim::EpisodeResult& batched,
                        const sim::EpisodeResult& stepped) {
  EXPECT_EQ(batched.outcome, stepped.outcome);
  EXPECT_EQ(batched.frames, stepped.frames);
  EXPECT_EQ(batched.park_time, stepped.park_time);
  EXPECT_EQ(batched.min_clearance, stepped.min_clearance);
  EXPECT_EQ(batched.mode_switches, stepped.mode_switches);
  EXPECT_EQ(batched.il_fraction, stepped.il_fraction);
}

TEST(SessionBatchingTest, IlSessionStageCommitReplaysStep) {
  il::IlPolicy policy = make_policy();

  world::ScenarioOptions opt;
  opt.generator = "canonical";
  opt.time_limit = 4.0;
  const world::Scenario scenario = world::make_scenario(opt, 7u);

  core::IlController stepped_ctrl(policy);
  sim::Session stepped(scenario, stepped_ctrl, 21u);
  while (stepped.step() == sim::Session::Status::kRunning) {
  }

  il::BatchInferencer service(policy, 32);
  core::IlController batched_ctrl(policy);
  sim::Session batched(scenario, batched_ctrl, 21u);
  ASSERT_TRUE(batched.supports_batching());
  while (!batched.done()) {
    if (!batched.stage(service)) break;
    service.run_tick();
    batched.commit(service);
  }

  expect_same_result(batched.result(), stepped.result());
  EXPECT_EQ(batched.state().pose.position.x, stepped.state().pose.position.x);
  EXPECT_EQ(batched.state().pose.position.y, stepped.state().pose.position.y);
  EXPECT_EQ(batched.state().speed, stepped.state().speed);
}

TEST(SessionBatchingTest, IcoilSessionStageCommitReplaysStep) {
  il::IlPolicy policy = make_policy();

  world::ScenarioOptions opt;
  opt.generator = "perpendicular";
  opt.time_limit = 2.0;
  const world::Scenario scenario = world::make_scenario(opt, 3u);

  core::IcoilController stepped_ctrl(core::IcoilConfig(), policy);
  sim::Session stepped(scenario, stepped_ctrl, 5u);
  while (stepped.step() == sim::Session::Status::kRunning) {
  }

  il::BatchInferencer service(policy, 32);
  core::IcoilController batched_ctrl(core::IcoilConfig(), policy);
  sim::Session batched(scenario, batched_ctrl, 5u);
  ASSERT_TRUE(batched.supports_batching());
  while (!batched.done()) {
    if (!batched.stage(service)) break;
    service.run_tick();
    batched.commit(service);
  }

  expect_same_result(batched.result(), stepped.result());
  EXPECT_EQ(batched.state().pose.position.x, stepped.state().pose.position.x);
  EXPECT_EQ(batched.state().pose.position.y, stepped.state().pose.position.y);
  EXPECT_EQ(batched.state().speed, stepped.state().speed);
  EXPECT_GT(service.stats().ticks, 0u);
}

// Two interleaved sessions sharing one service must still replay their
// solo runs exactly — the batch rows of other sessions cannot bleed in.
TEST(SessionBatchingTest, InterleavedSessionsMatchSoloRuns) {
  il::IlPolicy policy = make_policy();

  world::ScenarioOptions opt;
  opt.time_limit = 3.0;
  const world::Scenario sa = world::make_scenario(opt, 11u);
  const world::Scenario sb = world::make_scenario(opt, 12u);

  core::IlController solo_a_ctrl(policy), solo_b_ctrl(policy);
  sim::Session solo_a(sa, solo_a_ctrl, 1u);
  sim::Session solo_b(sb, solo_b_ctrl, 2u);
  while (solo_a.step() == sim::Session::Status::kRunning) {
  }
  while (solo_b.step() == sim::Session::Status::kRunning) {
  }

  il::BatchInferencer service(policy, 32);
  core::IlController ctrl_a(policy), ctrl_b(policy);
  sim::Session sess_a(sa, ctrl_a, 1u);
  sim::Session sess_b(sb, ctrl_b, 2u);
  while (!sess_a.done() || !sess_b.done()) {
    bool any = false;
    if (!sess_a.done()) any |= sess_a.stage(service);
    if (!sess_b.done()) any |= sess_b.stage(service);
    if (!any) break;
    service.run_tick();
    sess_a.commit(service);
    sess_b.commit(service);
  }

  expect_same_result(sess_a.result(), solo_a.result());
  expect_same_result(sess_b.result(), solo_b.result());
}

}  // namespace
}  // namespace icoil
