// The bench drivers' shared skeleton (bench/driver.hpp): strict number
// parsing, the flag table's range checks and usage text, subcommand
// handling, split_csv and the exit codes of the one report/exit path.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../bench/driver.hpp"

namespace icoil::bench {
namespace {

ReportOptions report_to(std::string path, std::string baseline = "") {
  ReportOptions options;
  options.path = std::move(path);
  options.baseline = std::move(baseline);
  return options;
}

std::optional<int> parse(Cli& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.parse(static_cast<int>(args.size()), args.data());
}

TEST(BenchDriverTest, IntParseRejectsJunkAndOutOfRange) {
  int v = 7;
  EXPECT_TRUE(parse_number("-5", &v));
  EXPECT_EQ(v, -5);
  EXPECT_TRUE(parse_number("1000000000", &v));
  for (const char* bad : {"", "2x", "eight", "1.5", "1000000001",
                          "-1000000001", "99999999999999999999"})
    EXPECT_FALSE(parse_number(bad, &v)) << bad;
}

TEST(BenchDriverTest, DoubleParseRejectsJunkAndNonFinite) {
  double v = 0.0;
  EXPECT_TRUE(parse_number("1e-3", &v));
  EXPECT_DOUBLE_EQ(v, 1e-3);
  for (const char* bad : {"", "0.5x", "nan", "NaN", "inf", "-inf", "1e999"})
    EXPECT_FALSE(parse_number(bad, &v)) << bad;
}

TEST(BenchDriverTest, U64ParseRejectsSignsJunkAndOverflow) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_number("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  for (const char* bad : {"", "-1", "+1", " 1", "1x", "18446744073709551616"})
    EXPECT_FALSE(parse_number(bad, &v)) << bad;
}

TEST(BenchDriverTest, FlagsEnforceTheirRanges) {
  int count = 0;
  double tol = 0.0, budget = 0.0;
  std::uint64_t seed = 0;
  const Flag count_flag = flag("--n", "N", "", &count, 1);
  const Flag limit_flag = flag("--limit", "N", "", &count, -1);
  const Flag tol_flag = flag("--tol", "X", "", &tol, 0.0);
  const Flag budget_flag = flag("--budget", "S", "", &budget, kPositive);
  const Flag seed_flag = flag("--seed", "S", "", &seed, 0);
  EXPECT_FALSE(count_flag.set("0"));
  EXPECT_TRUE(count_flag.set("3"));
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(limit_flag.set("-1"));
  EXPECT_FALSE(limit_flag.set("-7"));
  EXPECT_TRUE(tol_flag.set("0"));
  EXPECT_FALSE(tol_flag.set("-0.5"));
  EXPECT_FALSE(budget_flag.set("0"));
  EXPECT_TRUE(budget_flag.set("1e-300"));
  EXPECT_FALSE(seed_flag.set("-1"));
  EXPECT_EQ(seed, 0u);
  EXPECT_TRUE(seed_flag.set("42"));
  EXPECT_EQ(seed, 42u);
}

TEST(BenchDriverTest, ParsesSubcommandFlagsAndSwitches) {
  int episodes = 0;
  std::string report;
  bool quick = false;
  Cli cli("prog", {"table2", "zoo"},
          {flag("--episodes", "N", "", &episodes, 1),
           flag("--report", "PATH", "", &report), flag("--quick", "", &quick)});
  EXPECT_FALSE(parse(cli, {"--episodes", "3", "zoo", "--quick", "--report",
                           "r.json", "--episodes", "5"}));
  EXPECT_EQ(cli.subcommand(), "zoo");
  EXPECT_EQ(episodes, 5);  // the last value wins
  EXPECT_EQ(report, "r.json");
  EXPECT_TRUE(quick);
  EXPECT_EQ(cli.given(), (std::vector<std::string>{"--episodes", "--quick",
                                                   "--report", "--episodes"}));
  EXPECT_TRUE(cli.given("--quick"));
}

TEST(BenchDriverTest, UsageErrorsExitTwo) {
  int episodes = 0;
  const auto make = [&] {
    return Cli("prog", {"table2", "zoo"},
               {flag("--episodes", "N", "", &episodes, 1)});
  };
  const std::vector<std::vector<const char*>> bad = {
      {"--episodes"},             // value missing
      {"--episodes", "0"},        // out of range
      {"--episodes", "2x"},       // trailing junk
      {"--bogus"},                // unknown flag
      {"nope"},                   // unknown subcommand
      {"table2", "zoo"},          // a second subcommand
      {"zoo", "zoo"}};            // a repeated subcommand
  for (const auto& args : bad) {
    Cli cli = make();
    EXPECT_EQ(parse(cli, args), 2) << args.front();
  }
}

TEST(BenchDriverTest, UsageNamesEveryFlagAndSubcommand) {
  int n = 0;
  bool on = false;
  std::string path;
  const Cli cli("prog", {"table2", "fig8"},
                {flag("--threads", "N", "worker threads", &n, 0),
                 flag("--csv", "PATH", "save as CSV", &path),
                 flag("--per-episode", "per-episode records", &on)});
  const std::string usage = cli.usage();
  for (const char* text :
       {"usage: prog [table2|fig8]", "--threads N", "worker threads",
        "--csv PATH", "save as CSV", "--per-episode", "per-episode records"})
    EXPECT_NE(usage.find(text), std::string::npos) << text;
}

TEST(BenchDriverTest, SplitCsvDropsEmptyItems) {
  EXPECT_TRUE(split_csv("").empty());
  EXPECT_EQ(split_csv(",a,,b,"), (std::vector<std::string>{"a", "b"}));
}

TEST(BenchDriverTest, FinishMapsTheRunsEndToExitCodes) {
  sim::RunReport report;
  stamp_meta(report, "unit", 1, sim::EvalConfig{});
  const std::string path = ::testing::TempDir() + "bench_driver_report.json";

  EXPECT_EQ(finish("unit", report, {}), 0);
  EXPECT_EQ(finish("unit", report, {}, /*gates_ok=*/false), 1);
  EXPECT_EQ(finish("unit", report, report_to("/nonexistent-dir/r.json")), 3);
  EXPECT_EQ(finish("unit", report, report_to("", path + ".missing")), 3);
  EXPECT_EQ(finish("unit", report, report_to(path, path)), 0);

  sim::RunReport aborted = report;
  aborted.meta.aborted = true;
  // Aborted runs write their partial report and skip the baseline gate.
  EXPECT_EQ(finish("unit", aborted, report_to(path, "missing")), 130);
  sim::RunReport reloaded;
  std::string error;
  ASSERT_TRUE(sim::RunReport::load(path, &reloaded, &error)) << error;
  EXPECT_TRUE(reloaded.meta.aborted);
}

}  // namespace
}  // namespace icoil::bench
