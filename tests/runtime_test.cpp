// Coverage for the execution runtime (core::TaskPool + CancelToken) and the
// RunReport results subsystem: pool semantics, deadline cancellation through
// the evaluator, thread-count invariance of suite results, and the report
// write -> load -> baseline-compare loop, including a mutation fuzz of the
// loader over the committed baselines.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/task_pool.hpp"
#include "sim/evaluator.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"

namespace icoil {
namespace {

// ------------------------------------------------------------- TaskPool

TEST(TaskPoolTest, RecommendedWorkersRule) {
  // An explicit request wins (the cap tames only the hardware default);
  // jobs always bound the width; floor 1.
  EXPECT_EQ(core::TaskPool::recommended_workers(4, 100, 16), 4);
  EXPECT_EQ(core::TaskPool::recommended_workers(4, 2, 16), 2);
  EXPECT_EQ(core::TaskPool::recommended_workers(32, 100, 16), 32);
  EXPECT_EQ(core::TaskPool::recommended_workers(5, 100, 0), 5);
  EXPECT_EQ(core::TaskPool::recommended_workers(0, 0, 16), 1);
  EXPECT_EQ(core::TaskPool::recommended_workers(-3, 1, 16), 1);
  // requested = 0 falls back to hardware concurrency, clamped to the cap.
  EXPECT_GE(core::TaskPool::recommended_workers(0, 100, 16), 1);
  EXPECT_LE(core::TaskPool::recommended_workers(0, 100, 16), 16);
  EXPECT_EQ(core::TaskPool::recommended_workers(0, 100, 1), 1);
}

TEST(TaskPoolTest, RunsEveryTaskWithValidWorkerIndex) {
  core::TaskPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr int kTasks = 200;
  std::atomic<int> done{0};
  std::atomic<bool> index_ok{true};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&](const core::TaskPool::Context& ctx) {
      if (ctx.worker < 0 || ctx.worker >= 4) index_ok = false;
      if (ctx.cancelled()) index_ok = false;  // nobody cancelled us
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_TRUE(index_ok.load());
}

TEST(TaskPoolTest, ReusableAcrossWaves) {
  core::TaskPool pool(2);
  std::atomic<int> done{0};
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 10; ++i)
      pool.submit([&](const core::TaskPool::Context&) { done.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(done.load(), (wave + 1) * 10);
  }
}

TEST(TaskPoolTest, WaitIdleRethrowsFirstTaskError) {
  core::TaskPool pool(2);
  pool.submit([](const core::TaskPool::Context&) {
    throw std::runtime_error("task boom");
  });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is consumed; the pool keeps working.
  std::atomic<int> done{0};
  pool.submit([&](const core::TaskPool::Context&) { done.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 1);
}

TEST(TaskPoolTest, DeadlineTripsCancelToken) {
  core::TaskPool pool(1);
  std::atomic<bool> saw_cancel{false};
  std::atomic<int> iterations{0};
  pool.submit(
      [&](const core::TaskPool::Context& ctx) {
        // Busy task that politely polls its token.
        for (int i = 0; i < 10000; ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          iterations.fetch_add(1);
          if (ctx.cancelled()) {
            saw_cancel = true;
            return;
          }
        }
      },
      /*budget_seconds=*/0.05);
  pool.wait_idle();
  EXPECT_TRUE(saw_cancel.load());
  EXPECT_LT(iterations.load(), 10000);
}

TEST(TaskPoolTest, SharedTokenArmsOnceAndCancelsTheGroup) {
  auto token = std::make_shared<core::CancelToken>();
  EXPECT_FALSE(token->deadline_armed());
  core::TaskPool pool(2);
  std::atomic<int> cancelled_count{0};
  for (int i = 0; i < 4; ++i) {
    pool.submit(
        [&](const core::TaskPool::Context& ctx) {
          while (!ctx.cancelled())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          cancelled_count.fetch_add(1);
        },
        token, /*budget_seconds=*/0.05);
  }
  pool.wait_idle();
  EXPECT_TRUE(token->deadline_armed());
  EXPECT_TRUE(token->cancelled());
  EXPECT_EQ(cancelled_count.load(), 4);
}

TEST(CancelTokenTest, ExplicitCancelWithoutDeadline) {
  core::CancelToken token;
  EXPECT_FALSE(token.cancelled());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
}

// ------------------------------------------- evaluator on the runtime

/// Always emits the same command — cheap deterministic episodes.
class FixedController final : public core::Controller {
 public:
  explicit FixedController(vehicle::Command cmd, double act_sleep_ms = 0.0)
      : cmd_(cmd), act_sleep_ms_(act_sleep_ms) {}
  std::string name() const override { return "fixed"; }
  void reset(const world::Scenario&) override {}
  using core::Controller::act;
  vehicle::Command act(const world::World&, const vehicle::State&,
                       core::FrameContext&) override {
    if (act_sleep_ms_ > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(act_sleep_ms_));
    frame_.command = cmd_;
    frame_.mode = core::Mode::kCo;
    return cmd_;
  }
  const core::FrameInfo& last_frame() const override { return frame_; }

 private:
  vehicle::Command cmd_;
  double act_sleep_ms_;
  core::FrameInfo frame_;
};

sim::ScenarioSuite small_suite() {
  sim::ScenarioSuite suite;
  sim::SuiteCell easy;
  easy.difficulty = world::Difficulty::kEasy;
  easy.time_limit = 3.0;
  suite.add(easy);
  sim::SuiteCell gauntlet;
  gauntlet.generator = "dynamic_gauntlet";
  gauntlet.difficulty = world::Difficulty::kNormal;
  gauntlet.time_limit = 3.0;
  suite.add(gauntlet);
  sim::SuiteCell crowded;
  crowded.generator = "crowded_lot";
  crowded.difficulty = world::Difficulty::kNormal;
  crowded.time_limit = 3.0;
  suite.add(crowded);
  return suite;
}

core::ControllerFactory fixed_factory() {
  return [] {
    return std::make_unique<FixedController>(
        vehicle::Command{1.0, 0.0, 0.25, false});
  };
}

TEST(RuntimeEvaluatorTest, SuiteBitIdenticalAcross1_4_16Threads) {
  const sim::ScenarioSuite suite = small_suite();
  std::vector<std::vector<sim::SuiteCellEpisodes>> runs;
  for (int threads : {1, 4, 16}) {
    sim::EvalConfig cfg;
    cfg.episodes = 5;
    cfg.num_threads = threads;
    cfg.thread_cap = 16;
    runs.push_back(
        sim::Evaluator(cfg).evaluate_suite_detailed(fixed_factory(), suite));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[0].size(), runs[r].size());
    for (std::size_t c = 0; c < runs[0].size(); ++c) {
      ASSERT_EQ(runs[0][c].episodes.size(), runs[r][c].episodes.size());
      for (std::size_t e = 0; e < runs[0][c].episodes.size(); ++e) {
        const sim::EpisodeResult& a = runs[0][c].episodes[e];
        const sim::EpisodeResult& b = runs[r][c].episodes[e];
        EXPECT_EQ(a.outcome, b.outcome) << c << "/" << e;
        EXPECT_EQ(a.frames, b.frames) << c << "/" << e;
        // Bit-identical, not approximately equal:
        EXPECT_EQ(a.park_time, b.park_time) << c << "/" << e;
        EXPECT_EQ(a.min_clearance, b.min_clearance) << c << "/" << e;
        EXPECT_EQ(a.il_fraction, b.il_fraction) << c << "/" << e;
      }
    }
  }
}

TEST(RuntimeEvaluatorTest, SuiteRejectsNonPositiveEpisodes) {
  sim::EvalConfig cfg;
  cfg.episodes = 0;
  EXPECT_THROW(
      sim::Evaluator(cfg).evaluate_suite(fixed_factory(), small_suite(), "x"),
      std::invalid_argument);
  cfg.episodes = -3;
  EXPECT_THROW(
      sim::Evaluator(cfg).evaluate_suite_detailed(fixed_factory(),
                                                  small_suite()),
      std::invalid_argument);
}

TEST(RuntimeEvaluatorTest, SlowCellReportsBudgetExceeded) {
  // One deliberately slow cell (controller sleeps every frame, long time
  // limit) with a tiny wall budget: its episodes must come back as
  // kBudgetExceeded instead of finishing late. The fast cell is unaffected.
  sim::ScenarioSuite suite;
  sim::SuiteCell slow;
  slow.time_limit = 60.0;
  slow.wall_budget = 0.05;
  slow.label = "slow";
  suite.add(slow);
  sim::SuiteCell fast;
  fast.time_limit = 1.0;
  fast.label = "fast";
  suite.add(fast);

  sim::EvalConfig cfg;
  cfg.episodes = 2;
  cfg.num_threads = 2;
  const auto results = sim::Evaluator(cfg).evaluate_suite(
      [] {
        return std::make_unique<FixedController>(vehicle::Command::full_stop(),
                                                 /*act_sleep_ms=*/2.0);
      },
      suite, "fixed");
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].aggregate.budget_exceeded, 2);
  EXPECT_EQ(results[0].aggregate.successes, 0);
  EXPECT_EQ(results[1].aggregate.budget_exceeded, 0);
  EXPECT_EQ(results[1].aggregate.episodes, 2);
}

TEST(RuntimeEvaluatorTest, OutcomeStringCoversBudgetExceeded) {
  EXPECT_STREQ(sim::to_string(sim::Outcome::kBudgetExceeded),
               "budget_exceeded");
}

// --------------------------------------------------------------- RunReport

sim::RunReport tiny_report() {
  sim::EvalConfig cfg;
  cfg.episodes = 3;
  sim::Evaluator ev(cfg);
  sim::ScenarioSuite suite = small_suite();
  // A label with JSON specials: user-settable labels must survive the
  // writer/loader round trip.
  suite.cells[0].label = "easy \"quoted\" \\ backslash";

  sim::RunReport report;
  report.meta.suite = "runtime_test";
  report.meta.git_describe = sim::build_git_describe();
  report.meta.threads = 2;
  report.meta.episodes_per_cell = cfg.episodes;
  // Above 2^53: must survive the round trip exactly (u64s travel as
  // strings, not lossy JSON numbers).
  report.meta.base_seed = (1ull << 60) + 7;
  report.meta.config_fingerprint = sim::config_fingerprint(cfg);
  const auto detailed = ev.evaluate_suite_detailed(fixed_factory(), suite);
  report.add_cells_detailed(sim::aggregate_suite(detailed, "fixed"), detailed);
  // Keys with JSON specials too, and values that need all 17 digits.
  sim::MetricsTable levels("serve", {"method", "offered"},
                           {"frames", "frames_per_second"});
  levels.add_row({"co \"q\"", "2"}, {1234, 493.6});
  levels.add_row({"co \"q\"", "8"}, {4321, 0.1 + 0.2});
  report.tables.push_back(levels);
  return report;
}

/// A schema-3 document around one table object literal.
std::string doc_with_table(const std::string& table) {
  return "{\"schema_version\":3,\"meta\":{},\"cells\":[],\"tables\":[" +
         table + "]}";
}

TEST(RunReportTest, RoundTripsThroughJson) {
  const sim::RunReport report = tiny_report();
  const std::string path =
      (std::filesystem::temp_directory_path() / "icoil_report_test.json")
          .string();
  std::string error;
  ASSERT_TRUE(report.save(path, &error)) << error;

  sim::RunReport loaded;
  ASSERT_TRUE(sim::RunReport::load(path, &loaded, &error)) << error;
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.meta.schema_version, sim::kRunReportSchemaVersion);
  EXPECT_EQ(loaded.meta.suite, report.meta.suite);
  EXPECT_EQ(loaded.meta.git_describe, report.meta.git_describe);
  EXPECT_EQ(loaded.meta.threads, report.meta.threads);
  EXPECT_EQ(loaded.meta.episodes_per_cell, report.meta.episodes_per_cell);
  EXPECT_EQ(loaded.meta.base_seed, report.meta.base_seed);
  EXPECT_EQ(loaded.meta.config_fingerprint, report.meta.config_fingerprint);

  ASSERT_EQ(loaded.cells.size(), report.cells.size());
  for (std::size_t c = 0; c < report.cells.size(); ++c) {
    const sim::CellRecord& a = report.cells[c];
    const sim::CellRecord& b = loaded.cells[c];
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.method, b.method);
    EXPECT_EQ(a.generator, b.generator);
    EXPECT_EQ(a.episodes, b.episodes);
    EXPECT_EQ(a.successes, b.successes);
    EXPECT_EQ(a.budget_exceeded, b.budget_exceeded);
    EXPECT_DOUBLE_EQ(a.success_ratio, b.success_ratio);
    EXPECT_DOUBLE_EQ(a.park_time_mean, b.park_time_mean);
    EXPECT_DOUBLE_EQ(a.min_clearance_mean, b.min_clearance_mean);
    ASSERT_EQ(a.episode_records.size(), b.episode_records.size());
    for (std::size_t e = 0; e < a.episode_records.size(); ++e) {
      EXPECT_EQ(a.episode_records[e].outcome, b.episode_records[e].outcome);
      EXPECT_DOUBLE_EQ(a.episode_records[e].park_time,
                       b.episode_records[e].park_time);
    }
  }

  ASSERT_EQ(loaded.tables.size(), 1u);
  const sim::MetricsTable& t = loaded.tables[0];
  EXPECT_EQ(t.name, "serve");
  EXPECT_EQ(t.key_columns, report.tables[0].key_columns);
  EXPECT_EQ(t.value_columns, report.tables[0].value_columns);
  ASSERT_EQ(t.rows.size(), 2u);
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    EXPECT_EQ(t.rows[r].keys, report.tables[0].rows[r].keys);
    EXPECT_EQ(t.rows[r].values, report.tables[0].rows[r].values);  // exact
  }
  ASSERT_NE(loaded.table("serve"), nullptr);
  EXPECT_EQ(loaded.table("mission"), nullptr);
}

TEST(RunReportTest, MetricsTableRejectsMalformedRows) {
  sim::MetricsTable t("t", {"k"}, {"v"});
  t.add_row({"a"}, {1.0});
  EXPECT_THROW(t.add_row({"a"}, {2.0}), std::invalid_argument);  // dup keys
  EXPECT_THROW(t.add_row({"b"}, {}), std::invalid_argument);     // width
  EXPECT_THROW(t.add_row({"b"}, {std::nan("")}), std::invalid_argument);
  EXPECT_THROW(sim::MetricsTable("t", {"x"}, {"x"}), std::invalid_argument);
  EXPECT_EQ(t.rows.size(), 1u);
  EXPECT_EQ(t.value_index("v"), 0);
  EXPECT_EQ(t.value_index("k"), -1);
}

TEST(RunReportTest, LoaderRejectsGarbageAndFutureSchema) {
  sim::RunReport out;
  std::string error;
  const auto rejects = [&](const std::string& json, const std::string& why) {
    error.clear();
    const bool loaded = sim::RunReport::parse(json, &out, &error);
    EXPECT_FALSE(loaded) << json.substr(0, 200);
    EXPECT_NE(error.find(why), std::string::npos) << error;
  };
  rejects("not json at all", "JSON parse error");
  rejects("[1,2,3]", "not a JSON object");
  rejects("{\"schema_version\": 999, \"meta\": {}, \"cells\": []}",
          "schema_version");
  // Merge-mangled numbers must be rejected, not prefix-parsed.
  rejects("{\"schema_version\":3,\"meta\":{},"
          "\"cells\":[{\"success_ratio\":1..0}]}",
          "number");
  // Out-of-range numbers would load as inf.
  rejects("{\"schema_version\":3,\"meta\":{},"
          "\"cells\":[{\"success_ratio\":1e999}]}",
          "out of range");
  rejects(doc_with_table("{\"name\":\"t\",\"keys\":[],\"columns\":[\"v\"],"
                         "\"rows\":[{\"v\":-1e999}]}"),
          "out of range");
  // Nesting far past any report's depth fails cleanly, not by overflowing
  // the stack.
  rejects(std::string(2000000, '['), "nesting");
  rejects("{\"schema_version\":3,\"cells\":" + std::string(100, '[') +
              std::string(100, ']') + "}",
          "nesting");

  // Table rows must match the header exactly, with string keys, numeric
  // values and unique keys; the error names the table and the row.
  const std::string head =
      "{\"name\":\"levels\",\"keys\":[\"offered\"],\"columns\":[\"fps\"],"
      "\"rows\":[{\"offered\":\"2\",\"fps\":1},";
  ASSERT_TRUE(sim::RunReport::parse(
      doc_with_table(head + "{\"offered\":\"8\",\"fps\":2}]}"), &out, &error))
      << error;
  const std::string row1 = "table \"levels\" row 1";
  rejects(doc_with_table(head + "{\"offered\":\"8\",\"fps\":2,\"x\":0}]}"),
          row1 + ": fields differ");
  rejects(doc_with_table(head + "{\"offered\":\"8\"}]}"), row1);
  rejects(doc_with_table(head + "{\"offered\":\"8\",\"x\":2}]}"),
          row1 + ": column \"fps\"");
  rejects(doc_with_table(head + "{\"offered\":8,\"fps\":2}]}"),
          row1 + ": key \"offered\"");
  rejects(doc_with_table(head + "{\"offered\":\"8\",\"fps\":\"2\"}]}"),
          row1 + ": column \"fps\"");
  rejects(doc_with_table(head + "{\"offered\":\"2\",\"fps\":3}]}"),
          row1 + ": duplicate keys");
  rejects(doc_with_table("{\"name\":\"t\",\"keys\":[1],\"columns\":[],"
                         "\"rows\":[]}"),
          "table \"t\"");
  rejects(doc_with_table("{\"name\":\"t\",\"keys\":[],\"columns\":[],"
                         "\"rows\":[]},{\"name\":\"t\",\"keys\":[],"
                         "\"columns\":[],\"rows\":[]}"),
          "appears twice");

  EXPECT_FALSE(sim::RunReport::load("/nonexistent/nope.json", &out, &error));
}

TEST(RunReportTest, LoaderSurvivesMutatedBaselines) {
  // Fixed-seed mutation fuzzing over the committed baselines: every
  // truncated, bit-flipped or byte-inserted mutant either loads (and then
  // writes back out) or is rejected with a message — never a crash.
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::filesystem::path(ICOIL_SOURCE_DIR) / "bench" / "baselines"))
    if (entry.path().extension() == ".json") paths.push_back(entry.path());
  std::sort(paths.begin(), paths.end());
  ASSERT_GE(paths.size(), 2u);

  const std::string structural = "{}[]\",:.-+eE0123456789tfnu\\ ";
  std::mt19937_64 rng(20261017);
  const auto below = [&](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  int loaded = 0, rejected = 0;
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    const std::string doc((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    sim::RunReport report;
    std::string error;
    ASSERT_TRUE(sim::RunReport::parse(doc, &report, &error))
        << path << ": " << error;
    for (int i = 0; i < 2000; ++i) {
      std::string mutant = doc;
      for (std::size_t edits = 1 + below(4); edits > 0; --edits) {
        switch (below(3)) {
          case 0:  // truncation
            mutant.resize(below(mutant.size() + 1));
            break;
          case 1:  // bit flip
            if (!mutant.empty())
              mutant[below(mutant.size())] ^=
                  static_cast<char>(1u << below(8));
            break;
          default:  // insertion: a structural character or any byte
            mutant.insert(below(mutant.size() + 1), 1,
                          below(2) == 0 ? structural[below(structural.size())]
                                        : static_cast<char>(below(256)));
        }
      }
      error.clear();
      if (sim::RunReport::parse(mutant, &report, &error)) {
        ++loaded;
        EXPECT_FALSE(report.to_json().empty());
      } else {
        ++rejected;
        EXPECT_FALSE(error.empty()) << path << " mutant " << i;
      }
    }
  }
  EXPECT_GT(loaded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(RunReportTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(sim::json_escape("plain"), "plain");
  EXPECT_EQ(sim::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(sim::json_escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
  EXPECT_EQ(sim::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(RunReportTest, BaselineCompareVerdicts) {
  const sim::RunReport report = tiny_report();

  // Self-compare is clean.
  sim::BaselineVerdict verdict = sim::compare_to_baseline(report, report);
  EXPECT_TRUE(verdict.ok) << verdict.summary();
  EXPECT_TRUE(verdict.failures.empty());

  // Doctored baseline with an inflated success rate -> regression.
  sim::RunReport doctored = report;
  doctored.cells[0].success_ratio += 0.5;
  doctored.cells[0].successes += 1;
  verdict = sim::compare_to_baseline(report, doctored);
  EXPECT_FALSE(verdict.ok);
  ASSERT_EQ(verdict.failures.size(), 1u);
  EXPECT_NE(verdict.failures[0].find("success ratio"), std::string::npos);

  // A slower run fails the park-time gate (only over parked episodes).
  sim::RunReport slower = report;
  bool bumped = false;
  for (sim::CellRecord& cell : slower.cells) {
    if (cell.successes > 0 && cell.park_time_mean > 0) {
      cell.park_time_mean *= 2.0;
      bumped = true;
    }
  }
  if (bumped) {
    verdict = sim::compare_to_baseline(slower, report);
    EXPECT_FALSE(verdict.ok);
  }

  // Coverage is strict both ways: a cell or table row missing from the
  // current run, or one the baseline lacks, is a regression.
  sim::RunReport shrunk = report;
  shrunk.cells.pop_back();
  EXPECT_FALSE(sim::compare_to_baseline(shrunk, report).ok);
  verdict = sim::compare_to_baseline(report, shrunk);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.summary().find("not in baseline"), std::string::npos);
  sim::RunReport fewer_rows = report;
  fewer_rows.tables[0].rows.pop_back();
  verdict = sim::compare_to_baseline(report, fewer_rows);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.summary().find("row not in baseline"), std::string::npos);
  verdict = sim::compare_to_baseline(fewer_rows, report);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.summary().find("row missing"), std::string::npos);
  sim::RunReport no_table = report;
  no_table.tables.clear();
  EXPECT_FALSE(sim::compare_to_baseline(report, no_table).ok);
  EXPECT_FALSE(sim::compare_to_baseline(no_table, report).ok);

  // Table gates: only gated columns compare, each by its own rule.
  sim::RunReport slower_serve = report;
  slower_serve.tables[0].rows[0].values[1] -= 10.0;  // frames_per_second
  EXPECT_TRUE(sim::compare_to_baseline(slower_serve, report).ok);
  sim::BaselineTolerance gated;
  gated.gates = {{"serve", "frames_per_second",
                  sim::ColumnGate::Kind::kMaxDrop, 5.0}};
  EXPECT_FALSE(sim::compare_to_baseline(slower_serve, report, gated).ok);
  EXPECT_TRUE(sim::compare_to_baseline(report, slower_serve, gated).ok);
  gated.gates[0].kind = sim::ColumnGate::Kind::kMaxAbsDelta;
  EXPECT_FALSE(sim::compare_to_baseline(report, slower_serve, gated).ok);
  gated.gates[0].tolerance = 10.5;
  EXPECT_TRUE(sim::compare_to_baseline(report, slower_serve, gated).ok);
  gated.gates[0].column = "no_such_column";
  EXPECT_FALSE(sim::compare_to_baseline(report, report, gated).ok);

  // Tolerance absorbs small drift.
  sim::BaselineTolerance loose;
  loose.success_drop = 0.95;
  loose.park_time_slowdown = 10.0;
  verdict = sim::compare_to_baseline(report, doctored, loose);
  EXPECT_TRUE(verdict.ok);
}

}  // namespace
}  // namespace icoil
