#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#include "core/co_controller.hpp"
#include "sim/evaluator.hpp"
#include "sim/expert.hpp"
#include "sim/policy_store.hpp"
#include "sim/simulator.hpp"

namespace icoil::sim {
namespace detail {
// policy_store.cpp: dataset_fingerprint for a given CO expert revision.
std::uint64_t dataset_fingerprint(const ExpertConfig& expert,
                                  const il::IlPolicyConfig& policy, int co_revision);
}  // namespace detail
namespace {

/// A controller that always emits a fixed command — handy for forcing
/// specific simulator outcomes.
class FixedController final : public core::Controller {
 public:
  explicit FixedController(vehicle::Command cmd) : cmd_(cmd) {}
  std::string name() const override { return "fixed"; }
  void reset(const world::Scenario&) override {}
  using core::Controller::act;
  vehicle::Command act(const world::World&, const vehicle::State&,
                       core::FrameContext&) override {
    frame_.command = cmd_;
    frame_.mode = core::Mode::kCo;
    return cmd_;
  }
  const core::FrameInfo& last_frame() const override { return frame_; }

 private:
  vehicle::Command cmd_;
  core::FrameInfo frame_;
};

world::Scenario easy_scenario(std::uint64_t seed = 500) {
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  return world::make_scenario(opt, seed);
}

TEST(SimulatorTest, FullThrottleEndsInCollision) {
  // Driving straight at full throttle must eventually leave the lot or hit
  // something.
  FixedController controller({1.0, 0.0, 0.0, false});
  Simulator sim;
  const EpisodeResult res = sim.run(easy_scenario(), controller, 1);
  EXPECT_EQ(res.outcome, Outcome::kCollision);
  EXPECT_GT(res.frames, 10u);
  EXPECT_LT(res.park_time, 60.0);
}

TEST(SimulatorTest, HoldingStillTimesOut) {
  FixedController controller(vehicle::Command::full_stop());
  world::Scenario sc = easy_scenario();
  sc.time_limit = 3.0;
  Simulator sim;
  const EpisodeResult res = sim.run(sc, controller, 1);
  EXPECT_EQ(res.outcome, Outcome::kTimeout);
  EXPECT_DOUBLE_EQ(res.park_time, 3.0);
}

TEST(SimulatorTest, TraceRecordingRespectsFlag) {
  FixedController controller(vehicle::Command::full_stop());
  world::Scenario sc = easy_scenario();
  sc.time_limit = 1.0;
  SimConfig cfg;
  cfg.record_trace = false;
  EXPECT_TRUE(Simulator(cfg).run(sc, controller, 1).trace.empty());
  cfg.record_trace = true;
  const EpisodeResult res = Simulator(cfg).run(sc, controller, 1);
  EXPECT_EQ(res.trace.size(), res.frames);
  // Frame times increase monotonically.
  for (std::size_t i = 1; i < res.trace.size(); ++i)
    EXPECT_GT(res.trace[i].t, res.trace[i - 1].t);
}

TEST(SimulatorTest, CoControllerParksOnEasyScenario) {
  core::CoController controller(co::CoPlannerConfig{}, vehicle::VehicleParams{});
  Simulator sim;
  const EpisodeResult res = sim.run(easy_scenario(500), controller, 500);
  EXPECT_EQ(res.outcome, Outcome::kSuccess) << to_string(res.outcome);
  EXPECT_GT(res.park_time, 5.0);
  EXPECT_GT(res.min_clearance, 0.0);
}

TEST(SimulatorTest, DeterministicForSameSeed) {
  auto run_once = [] {
    core::CoController controller(co::CoPlannerConfig{},
                                  vehicle::VehicleParams{});
    Simulator sim;
    return sim.run(easy_scenario(501), controller, 7);
  };
  const EpisodeResult a = run_once();
  const EpisodeResult b = run_once();
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_DOUBLE_EQ(a.park_time, b.park_time);
  EXPECT_EQ(a.frames, b.frames);
}

TEST(SimulatorTest, OutcomeToString) {
  EXPECT_STREQ(to_string(Outcome::kSuccess), "success");
  EXPECT_STREQ(to_string(Outcome::kCollision), "collision");
  EXPECT_STREQ(to_string(Outcome::kTimeout), "timeout");
  EXPECT_STREQ(to_string(Outcome::kBudgetExceeded), "budget_exceeded");
}

TEST(SimulatorTest, CancelledTokenCutsEpisodeShort) {
  FixedController controller(vehicle::Command::full_stop());
  world::Scenario sc = easy_scenario();
  sc.time_limit = 30.0;
  core::CancelToken cancel;
  cancel.cancel();
  const EpisodeResult res = Simulator().run(sc, controller, 1, &cancel);
  EXPECT_EQ(res.outcome, Outcome::kBudgetExceeded);
  EXPECT_EQ(res.frames, 0u);
}

// -------------------------------------------------------------- evaluator

TEST(EvaluatorTest, AggregateCountsAddUp) {
  EvalConfig cfg;
  cfg.episodes = 6;
  cfg.sim.dt = 0.05;
  Evaluator ev(cfg);
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  opt.time_limit = 5.0;  // too short to park: all timeout or collide
  const Aggregate agg = ev.evaluate(
      [] {
        return std::make_unique<FixedController>(vehicle::Command::full_stop());
      },
      opt, "fixed");
  EXPECT_EQ(agg.episodes, 6);
  EXPECT_EQ(agg.successes + agg.collisions + agg.timeouts, 6);
  EXPECT_EQ(agg.timeouts, 6);
  EXPECT_DOUBLE_EQ(agg.success_ratio(), 0.0);
  EXPECT_EQ(agg.method, "fixed");
  EXPECT_EQ(agg.level, "easy");
}

TEST(EvaluatorTest, DetailedResultsInSeedOrderAndThreadInvariant) {
  world::ScenarioOptions opt;
  opt.difficulty = world::Difficulty::kEasy;
  opt.time_limit = 4.0;

  EvalConfig cfg1;
  cfg1.episodes = 8;
  cfg1.num_threads = 1;
  const auto r1 = Evaluator(cfg1).evaluate_detailed(
      [] {
        return std::make_unique<FixedController>(
            vehicle::Command{1.0, 0.0, 0.3, false});
      },
      opt);

  EvalConfig cfg4 = cfg1;
  cfg4.num_threads = 4;
  const auto r4 = Evaluator(cfg4).evaluate_detailed(
      [] {
        return std::make_unique<FixedController>(
            vehicle::Command{1.0, 0.0, 0.3, false});
      },
      opt);

  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].outcome, r4[i].outcome) << i;
    EXPECT_DOUBLE_EQ(r1[i].park_time, r4[i].park_time) << i;
  }
}

// -------------------------------------------------------------- suite API

TEST(ScenarioSuiteTest, CrossBuildsEveryCell) {
  const ScenarioSuite suite = ScenarioSuite::cross(
      {"canonical", "dynamic_gauntlet"},
      {world::Difficulty::kEasy, world::Difficulty::kNormal},
      {world::StartClass::kClose});
  ASSERT_EQ(suite.cells.size(), 4u);
  EXPECT_EQ(suite.cells[0].generator, "canonical");
  EXPECT_EQ(suite.cells[3].generator, "dynamic_gauntlet");
  EXPECT_EQ(suite.cells[1].display_label(), "canonical/normal/close");
}

TEST(ScenarioSuiteTest, CellLabelOverride) {
  SuiteCell cell;
  cell.label = "custom";
  EXPECT_EQ(cell.display_label(), "custom");
  cell.label.clear();
  EXPECT_EQ(cell.display_label(), "canonical/easy/random");
}

TEST(EvaluatorTest, SuiteMatchesPerCellEvaluate) {
  // The batched fan-out must reproduce per-cell evaluation exactly: same
  // seeds, same scenarios, same outcomes.
  EvalConfig cfg;
  cfg.episodes = 5;
  Evaluator ev(cfg);
  const core::ControllerFactory factory = [] {
    return std::make_unique<FixedController>(
        vehicle::Command{1.0, 0.0, 0.3, false});
  };

  ScenarioSuite suite;
  SuiteCell easy;
  easy.difficulty = world::Difficulty::kEasy;
  easy.time_limit = 4.0;
  suite.add(easy);
  SuiteCell gauntlet;
  gauntlet.generator = "dynamic_gauntlet";
  gauntlet.difficulty = world::Difficulty::kNormal;
  gauntlet.time_limit = 4.0;
  suite.add(gauntlet);

  const auto batched = ev.evaluate_suite(factory, suite, "fixed");
  ASSERT_EQ(batched.size(), 2u);
  for (std::size_t c = 0; c < suite.cells.size(); ++c) {
    const Aggregate solo =
        ev.evaluate(factory, suite.cells[c].options(), "fixed");
    const Aggregate& agg = batched[c].aggregate;
    EXPECT_EQ(agg.episodes, solo.episodes);
    EXPECT_EQ(agg.successes, solo.successes);
    EXPECT_EQ(agg.collisions, solo.collisions);
    EXPECT_EQ(agg.timeouts, solo.timeouts);
    EXPECT_DOUBLE_EQ(agg.park_time.mean(), solo.park_time.mean());
    EXPECT_DOUBLE_EQ(agg.min_clearance.mean(), solo.min_clearance.mean());
    EXPECT_EQ(agg.level, suite.cells[c].display_label());
    EXPECT_EQ(agg.method, "fixed");
  }
}

TEST(EvaluatorTest, SuiteProgressStrictlyIncreasing) {
  // Regression: the `done` counter used to be incremented before taking the
  // progress mutex, so two workers finishing cells back-to-back could enter
  // the lock in swapped order and report counts out of order. With many
  // cells and wide fan-out, the callback must see 1, 2, ..., N exactly.
  const core::ControllerFactory factory = [] {
    return std::make_unique<FixedController>(
        vehicle::Command{1.0, 0.0, 0.2, false});
  };
  ScenarioSuite suite = ScenarioSuite::cross(
      {"canonical", "perpendicular", "crowded_lot", "parallel_street"},
      {world::Difficulty::kEasy, world::Difficulty::kNormal,
       world::Difficulty::kHard},
      {world::StartClass::kRandom});
  for (SuiteCell& cell : suite.cells) cell.time_limit = 1.0;

  EvalConfig cfg;
  cfg.episodes = 2;
  cfg.num_threads = 8;
  cfg.thread_cap = 8;
  std::vector<int> seen;  // appended under the evaluator's progress lock
  const auto results = Evaluator(cfg).evaluate_suite(
      factory, suite, "fixed",
      [&](const SuiteCell&, int completed, int total) {
        EXPECT_EQ(total, static_cast<int>(suite.cells.size()));
        seen.push_back(completed);
      });
  ASSERT_EQ(results.size(), suite.cells.size());
  ASSERT_EQ(seen.size(), suite.cells.size());
  for (std::size_t i = 0; i < seen.size(); ++i)
    EXPECT_EQ(seen[i], static_cast<int>(i) + 1);
}

TEST(EvaluatorTest, ThreadCapRespectsConfigAndPreservesResults) {
  // Raising the cap beyond the old hard-coded 16 must not change outcomes.
  const core::ControllerFactory factory = [] {
    return std::make_unique<FixedController>(
        vehicle::Command{1.0, 0.0, -0.1, false});
  };
  world::ScenarioOptions opt;
  opt.time_limit = 2.0;
  EvalConfig narrow;
  narrow.episodes = 6;
  narrow.num_threads = 1;
  EvalConfig wide = narrow;
  wide.num_threads = 0;
  wide.thread_cap = 64;
  const auto a = Evaluator(narrow).evaluate_detailed(factory, opt);
  const auto b = Evaluator(wide).evaluate_detailed(factory, opt);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].outcome, b[i].outcome) << i;
    EXPECT_DOUBLE_EQ(a[i].min_clearance, b[i].min_clearance) << i;
  }
}

TEST(EvaluatorTest, SuiteThreadInvariant) {
  const core::ControllerFactory factory = [] {
    return std::make_unique<FixedController>(
        vehicle::Command{1.0, 0.0, -0.2, false});
  };
  ScenarioSuite suite;
  SuiteCell cell;
  cell.generator = "crowded_lot";
  cell.difficulty = world::Difficulty::kNormal;
  cell.time_limit = 3.0;
  suite.add(cell);
  SuiteCell street;
  street.generator = "parallel_street";
  street.time_limit = 3.0;
  suite.add(street);

  EvalConfig cfg1;
  cfg1.episodes = 6;
  cfg1.num_threads = 1;
  EvalConfig cfg4 = cfg1;
  cfg4.num_threads = 4;
  const auto r1 = Evaluator(cfg1).evaluate_suite(factory, suite, "fixed");
  const auto r4 = Evaluator(cfg4).evaluate_suite(factory, suite, "fixed");
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t c = 0; c < r1.size(); ++c) {
    EXPECT_EQ(r1[c].aggregate.successes, r4[c].aggregate.successes);
    EXPECT_EQ(r1[c].aggregate.collisions, r4[c].aggregate.collisions);
    EXPECT_DOUBLE_EQ(r1[c].aggregate.park_time.mean(),
                     r4[c].aggregate.park_time.mean());
  }
}

// ----------------------------------------------------------------- expert

TEST(ExpertTest, RecordsLabelledSamples) {
  ExpertConfig cfg;
  cfg.episodes = 1;
  cfg.frame_stride = 4;
  il::IlPolicyConfig policy_cfg;
  policy_cfg.bev_size = 16;
  ExpertRecorder recorder(cfg, policy_cfg);
  ExpertStats stats;
  const il::Dataset dataset = recorder.record(&stats);
  EXPECT_EQ(stats.episodes_run, 1);
  EXPECT_GT(dataset.size(), 50u);
  EXPECT_EQ(stats.samples, dataset.size());
  EXPECT_GT(stats.forward_samples, 0u);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    EXPECT_GE(dataset[i].label, 0);
    EXPECT_LT(dataset[i].label, 15);
    EXPECT_EQ(dataset[i].observation.channels(), il::kObservationChannels);
    EXPECT_EQ(dataset[i].observation.size(), 16);
  }
}

TEST(ExpertTest, DeterministicDataset) {
  ExpertConfig cfg;
  cfg.episodes = 2;
  cfg.frame_stride = 8;
  il::IlPolicyConfig policy_cfg;
  policy_cfg.bev_size = 16;
  const il::Dataset a = ExpertRecorder(cfg, policy_cfg).record();
  const il::Dataset b = ExpertRecorder(cfg, policy_cfg).record();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    for (std::size_t j = 0; j < a[i].observation.num_values(); ++j)
      ASSERT_FLOAT_EQ(a[i].observation.data()[j], b[i].observation.data()[j]);
  }
}

// The codec stores every occupancy pixel (0 or 1) exactly and the speed
// channel to within half a step, 1/254; quantize() gives the loaded values.
TEST(ExpertTest, DatasetSaveLoadRoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_dataset_test.bin").string();
  ExpertConfig cfg;
  cfg.episodes = 1;
  cfg.frame_stride = 10;
  il::IlPolicyConfig policy_cfg;
  policy_cfg.bev_size = 16;
  const il::Dataset a = ExpertRecorder(cfg, policy_cfg).record();
  ASSERT_TRUE(a.save(path));
  il::Dataset b;
  ASSERT_TRUE(b.load(path));
  il::Dataset a_quantized = a;
  a_quantized.quantize();
  ASSERT_EQ(a.size(), b.size());
  const std::size_t speed_begin = static_cast<std::size_t>(sense::kBevChannels) *
                                  policy_cfg.bev_size * policy_cfg.bev_size;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    const std::vector<float>& va = a[i].observation.data();
    const std::vector<float>& vb = b[i].observation.data();
    for (std::size_t j = 0; j < va.size(); ++j) {
      if (j < speed_begin) {
        ASSERT_TRUE(va[j] == 0.0f || va[j] == 1.0f) << va[j];
        ASSERT_EQ(std::memcmp(&va[j], &vb[j], sizeof(float)), 0)
            << "sample " << i << " pixel " << j << ": " << va[j] << " -> "
            << vb[j];
      } else {
        ASSERT_NEAR(va[j], vb[j], 1.0f / 254.0f + 1e-6f)
            << "sample " << i << " speed value " << j;
      }
    }
    ASSERT_EQ(std::memcmp(a_quantized[i].observation.data().data(), vb.data(),
                          vb.size() * sizeof(float)),
              0)
        << "sample " << i;
  }
  std::filesystem::remove(path);
}

// -1, 0 and 1 survive a save/load bit for bit.
TEST(ExpertTest, DatasetCodecExactOnZeroAndOne) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_codec_test.bin").string();
  il::Dataset d;
  sense::BevImage img(1, 2);
  img.data() = {0.0f, 1.0f, -1.0f, 0.25f};
  d.add({img, 3});
  ASSERT_TRUE(d.save(path));
  il::Dataset back;
  ASSERT_TRUE(back.load(path));
  ASSERT_EQ(back.size(), 1u);
  const std::vector<float>& v = back[0].observation.data();
  for (int j = 0; j < 3; ++j)
    EXPECT_EQ(std::memcmp(&v[j], &img.data()[j], sizeof(float)), 0)
        << j << ": " << v[j];
  EXPECT_NEAR(v[3], 0.25f, 1.0f / 254.0f);
  std::filesystem::remove(path);
}

constexpr std::uint32_t kDatasetV1 = 0x1C011D5Eu;
constexpr std::uint32_t kDatasetV2 = 0x1C011D5Fu;
constexpr std::uint32_t kDatasetV3 = 0x1C011D60u;

/// A hand-written dataset file: the header (magic, n, channels, size), for
/// v2/v3 an empty family table, then per sample the label, for v2/v3 the
/// provenance (family -1, difficulty 0), and the pixels; `extra` is
/// appended after the samples.
void write_dataset(const std::string& path, std::uint32_t magic,
                   std::uint32_t n, std::uint32_t channels, std::uint32_t size,
                   const std::vector<std::int32_t>& labels,
                   const std::string& extra = "") {
  std::ofstream f(path, std::ios::binary);
  const std::uint32_t header[4] = {magic, n, channels, size};
  f.write(reinterpret_cast<const char*>(header), sizeof(header));
  const std::uint32_t families = 0;
  if (magic != kDatasetV1)
    f.write(reinterpret_cast<const char*>(&families), sizeof(families));
  // Only small shapes carry samples; the huge ones are header-only.
  const std::vector<char> pixels(
      labels.empty() ? 0 : static_cast<std::size_t>(channels) * size * size,
      '\x40');
  const std::int16_t family = -1;
  const std::uint8_t difficulty = 0;
  for (const std::int32_t label : labels) {
    f.write(reinterpret_cast<const char*>(&label), sizeof(label));
    if (magic != kDatasetV1) {
      f.write(reinterpret_cast<const char*>(&family), sizeof(family));
      f.write(reinterpret_cast<const char*>(&difficulty), sizeof(difficulty));
    }
    f.write(pixels.data(), static_cast<std::streamsize>(pixels.size()));
  }
  f << extra;
}

// Only the format save() writes loads: a well-formed v1 or v2 file is
// rejected, and the dataset keeps what it held.
TEST(ExpertTest, DatasetLoadRejectsV1AndV2Files) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_old_format.bin").string();
  write_dataset(path, kDatasetV3, 2, 1, 2, {3, 5});
  il::Dataset d;
  ASSERT_TRUE(d.load(path));
  ASSERT_EQ(d.size(), 2u);
  for (const std::uint32_t magic : {kDatasetV1, kDatasetV2}) {
    write_dataset(path, magic, 1, 1, 2, {7});
    EXPECT_FALSE(d.load(path)) << std::hex << magic;
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0].label, 3);
    EXPECT_EQ(d[1].label, 5);
  }
  std::filesystem::remove(path);
}

TEST(ExpertTest, DatasetLoadRejectsGarbage) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_garbage.bin").string();
  {
    std::ofstream f(path, std::ios::binary);
    f << "not a dataset";
  }
  il::Dataset d;
  EXPECT_FALSE(d.load(path));
  EXPECT_FALSE(d.load("/nonexistent/nope.bin"));

  // The well-formed baseline the corruptions below start from.
  write_dataset(path, kDatasetV3, 1, 1, 2, {3});
  ASSERT_TRUE(d.load(path));
  ASSERT_EQ(d.size(), 1u);

  // A sample count the file cannot hold: rejected before any allocation
  // (reserving 2^32 samples throws std::bad_alloc).
  write_dataset(path, kDatasetV3, 0xFFFFFFFFu, 1, 2, {3});
  EXPECT_FALSE(d.load(path));
  // So is an image shape whose pixel count overflows what is left.
  write_dataset(path, kDatasetV3, 1, 0xFFFFFFFFu, 0xFFFFFFFFu, {});
  EXPECT_FALSE(d.load(path));
  write_dataset(path, kDatasetV3, 1, 0, 0, {3});
  EXPECT_FALSE(d.load(path));
  // Truncated or trailing bytes.
  write_dataset(path, kDatasetV3, 2, 1, 2, {3});
  EXPECT_FALSE(d.load(path));
  write_dataset(path, kDatasetV3, 1, 1, 2, {3}, "x");
  EXPECT_FALSE(d.load(path));

  // Labels outside [0, num_classes) would index the loss out of bounds,
  // whether the file was written by hand or by save().
  for (const std::int32_t label :
       {99, -5, il::ActionDiscretizer::num_classes()}) {
    write_dataset(path, kDatasetV3, 1, 1, 2, {label});
    EXPECT_FALSE(d.load(path)) << "hand-written label " << label;
    il::Dataset bad;
    bad.add({sense::BevImage(1, 2), label});
    ASSERT_TRUE(bad.save(path));
    EXPECT_FALSE(d.load(path)) << "saved label " << label;
  }
  // A rejected file leaves the last good contents in place.
  EXPECT_EQ(d.size(), 1u);
  std::filesystem::remove(path);
}

// A cached dataset whose images do not fit the network (a valid file for
// another BEV size) is re-recorded, not trained on.
TEST(PolicyStoreTest, MismatchedDatasetShapeIsReRecorded) {
  const auto dir = std::filesystem::temp_directory_path() / "icoil_store_shape";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  PolicyStoreOptions opts;
  opts.cache_path = (dir / "policy.bin").string();
  opts.dataset_cache_path = (dir / "dataset.bin").string();
  opts.expert.episodes = 1;
  opts.expert.frame_stride = 16;
  opts.train.epochs = 1;
  opts.policy.bev_size = 16;
  opts.policy.conv_channels[0] = 2;
  opts.policy.conv_channels[1] = 2;
  opts.policy.conv_channels[2] = 4;
  opts.policy.fc_sizes[0] = 8;
  opts.policy.fc_sizes[1] = 8;
  opts.policy.fc_sizes[2] = 8;

  const std::string dataset_path = dataset_cache_path(opts);
  il::Dataset wrong;
  for (int i = 0; i < 4; ++i)
    wrong.add({sense::BevImage(il::kObservationChannels, 24), i});
  ASSERT_TRUE(wrong.save(dataset_path));

  ASSERT_NE(get_or_train_policy(opts), nullptr);
  il::Dataset cached;
  ASSERT_TRUE(cached.load(dataset_path));
  ASSERT_FALSE(cached.empty());
  EXPECT_EQ(cached[0].observation.size(), 16);
  EXPECT_EQ(cached[0].observation.channels(), il::kObservationChannels);
  std::filesystem::remove_all(dir);
}

// A cached dataset whose images fit the network is what the store returns:
// it is loaded, not re-recorded over.
TEST(PolicyStoreTest, CachedDatasetIsLoadedSampleForSample) {
  const auto dir = std::filesystem::temp_directory_path() / "icoil_store_cached";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  PolicyStoreOptions opts;
  opts.dataset_cache_path = (dir / "dataset.bin").string();
  opts.expert.episodes = 1;
  opts.policy.bev_size = 16;

  // Labels and pixels no recording of this spec produces.
  il::Dataset planted;
  const int family = planted.intern_family("planted");
  for (int i = 0; i < 5; ++i) {
    sense::BevImage img(il::kObservationChannels, 16);
    img.data()[static_cast<std::size_t>(i)] = 1.0f;
    img.data().back() = -1.0f;
    planted.add({img, (7 * i + 3) % il::ActionDiscretizer::num_classes(),
                 static_cast<std::int16_t>(family), 2});
  }
  ASSERT_TRUE(planted.save(dataset_cache_path(opts)));

  const il::Dataset got = get_or_record_dataset(opts);
  ASSERT_EQ(got.size(), planted.size());
  EXPECT_EQ(got.family_names(), planted.family_names());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].label, planted[i].label) << i;
    EXPECT_EQ(got[i].family, planted[i].family) << i;
    EXPECT_EQ(got[i].difficulty, planted[i].difficulty) << i;
    const std::vector<float>& a = got[i].observation.data();
    const std::vector<float>& b = planted[i].observation.data();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0)
        << i;
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ policy store

TEST(PolicyStoreTest, TrainsAndCaches) {
  const auto dir = std::filesystem::temp_directory_path() / "icoil_store_test";
  std::filesystem::create_directories(dir);
  PolicyStoreOptions opts;
  opts.cache_path = (dir / "policy.bin").string();
  opts.dataset_cache_path = (dir / "dataset.bin").string();
  opts.expert.episodes = 1;
  opts.expert.frame_stride = 6;
  opts.train.epochs = 1;
  opts.policy.bev_size = 16;
  opts.policy.conv_channels[0] = 4;
  opts.policy.conv_channels[1] = 4;
  opts.policy.conv_channels[2] = 8;
  opts.policy.fc_sizes[0] = 32;
  opts.policy.fc_sizes[1] = 16;
  opts.policy.fc_sizes[2] = 16;

  // The store keys its caches by training-spec fingerprint.
  const std::string policy_path = policy_cache_path(opts);
  const std::string dataset_path = dataset_cache_path(opts);
  std::filesystem::remove(policy_path);
  std::filesystem::remove(dataset_path);

  const auto first = get_or_train_policy(opts);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(std::filesystem::exists(policy_path));
  EXPECT_TRUE(std::filesystem::exists(dataset_path));

  // Second call loads the cache and produces identical outputs.
  const auto second = get_or_train_policy(opts);
  sense::BevImage obs(il::kObservationChannels, 16);
  obs.at(0, 3, 3) = 1.0f;
  const auto ia = first->infer(obs);
  const auto ib = second->infer(obs);
  for (std::size_t i = 0; i < ia.probs.size(); ++i)
    EXPECT_FLOAT_EQ(ia.probs[i], ib.probs[i]);
  std::filesystem::remove_all(dir);
}

// A policy trained right after recording and one retrained from the saved
// dataset cache see the same values, so their weights are the same bits.
TEST(PolicyStoreTest, FreshAndCachedDatasetTrainIdentically) {
  const auto dir = std::filesystem::temp_directory_path() / "icoil_store_fresh";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  PolicyStoreOptions opts;
  opts.cache_path = (dir / "policy.bin").string();
  opts.dataset_cache_path = (dir / "dataset.bin").string();
  opts.expert.episodes = 1;
  opts.expert.frame_stride = 8;
  opts.train.epochs = 1;
  opts.policy.bev_size = 16;
  opts.policy.conv_channels[0] = 2;
  opts.policy.conv_channels[1] = 2;
  opts.policy.conv_channels[2] = 4;
  opts.policy.fc_sizes[0] = 8;
  opts.policy.fc_sizes[1] = 8;
  opts.policy.fc_sizes[2] = 8;

  const auto fresh = get_or_train_policy(opts);
  ASSERT_TRUE(std::filesystem::exists(dataset_cache_path(opts)));
  ASSERT_TRUE(std::filesystem::remove(policy_cache_path(opts)));
  const auto cached = get_or_train_policy(opts);

  const auto a = fresh->network().params();
  const auto b = cached->network().params();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p]->value.size(), b[p]->value.size());
    EXPECT_EQ(std::memcmp(a[p]->value.data(), b[p]->value.data(),
                          a[p]->value.size() * sizeof(float)),
              0)
        << "param " << p;
  }
  std::filesystem::remove_all(dir);
}

TEST(PolicyStoreTest, DatasetFingerprintCoversPlannerAndQpFields) {
  // Each of these shapes the expert's demonstrations, so changing one must
  // change the cache key (or a stale dataset and policy would be reused).
  const il::IlPolicyConfig policy;
  const std::uint64_t base = dataset_fingerprint(ExpertConfig{}, policy);
  const std::vector<std::pair<const char*, void (*)(co::CoPlannerConfig&)>>
      perturbations = {
          {"astar.costmap_resolution",
           [](co::CoPlannerConfig& c) { c.astar.costmap_resolution *= 2.0; }},
          {"astar.rs_shot_period",
           [](co::CoPlannerConfig& c) { c.astar.rs_shot_period += 1; }},
          {"trajopt.qp.rho",
           [](co::CoPlannerConfig& c) { c.trajopt.qp.rho *= 2.0; }},
          {"trajopt.qp.sigma",
           [](co::CoPlannerConfig& c) { c.trajopt.qp.sigma *= 2.0; }},
          {"trajopt.qp.alpha",
           [](co::CoPlannerConfig& c) { c.trajopt.qp.alpha -= 0.1; }},
          {"trajopt.qp.check_interval",
           [](co::CoPlannerConfig& c) { c.trajopt.qp.check_interval += 1; }},
          {"trajopt.qp.adaptive_rho",
           [](co::CoPlannerConfig& c) {
             c.trajopt.qp.adaptive_rho = !c.trajopt.qp.adaptive_rho;
           }},
      };
  for (const auto& [field, perturb] : perturbations) {
    ExpertConfig expert;
    perturb(expert.co);
    EXPECT_NE(dataset_fingerprint(expert, policy), base) << field;
  }
}

TEST(PolicyStoreTest, DatasetFingerprintCoversTrajOptRevision) {
  // A change to the CO expert's algorithm that keeps every config field
  // reaches the cache key only through co::TrajOpt::kRevision: a dataset
  // (and policy) recorded by another revision must not be reused.
  const ExpertConfig expert;
  const il::IlPolicyConfig policy;
  const std::uint64_t key = dataset_fingerprint(expert, policy);
  EXPECT_EQ(detail::dataset_fingerprint(expert, policy, co::TrajOpt::kRevision), key);
  EXPECT_NE(detail::dataset_fingerprint(expert, policy, co::TrajOpt::kRevision - 1), key);
}

}  // namespace
}  // namespace icoil::sim
