// Table II of the paper: parking time (average / max / min over successful
// episodes) and success ratio for iCOIL vs the conventional IL baseline on
// the easy / normal / hard task levels. We additionally report the pure-CO
// policy as a reference row (not in the paper's table).
//
// The default path is a thin wrapper over the shared suite runner — run
// `bench_suite table2` for the full option set (reports, baselines,
// budgets). Only the --curriculum-compare experiment lives here, because it
// evaluates two differently-trained policies side by side.
//
// Paper's reported values for comparison:
//   easy:   iCOIL 26.02/27.21/24.89 94%   | IL 23.65/25.16/22.52 72%
//   normal: iCOIL 25.40/26.29/24.01 91%   | IL 25.81/26.54/23.77 36%
//   hard:   iCOIL 25.72/26.70/24.58 92%   | IL 24.12/26.44/23.31 33%

#include <cstdio>
#include <cstring>
#include <iostream>
#include <vector>

#include "sim/curriculum.hpp"
#include "suite_runner.hpp"

namespace {

// --curriculum-compare: canonical-trained vs curriculum-trained iCOIL over
// the full generator suite — the cross-family generalization experiment the
// paper's canonical-only table cannot show. Each policy comes from the
// fingerprint-keyed store, so both caches coexist.
int run_curriculum_compare() {
  using namespace icoil;

  sim::PolicyStoreOptions canonical_opts = sim::default_policy_options();
  sim::PolicyStoreOptions curriculum_opts = sim::default_policy_options();
  curriculum_opts.expert.curriculum = sim::Curriculum::all_families();

  const auto canonical_policy = sim::get_or_train_policy(canonical_opts);
  const auto curriculum_policy = sim::get_or_train_policy(curriculum_opts);

  sim::EvalConfig eval_config;
  eval_config.episodes = bench::episodes_override(30);
  sim::Evaluator evaluator(eval_config);

  sim::ScenarioSuite suite = sim::ScenarioSuite::cross(
      world::GeneratorRegistry::instance().names(),
      {world::Difficulty::kEasy, world::Difficulty::kNormal},
      {world::StartClass::kRandom});
  suite.name = "table2_curriculum";

  // Same registry method, two differently-trained policies: the factory is
  // resolved through the controller registry, only the policy (and the row
  // label) differs per row.
  const auto& registry = core::ControllerRegistry::instance();
  auto icoil_with = [&](const il::IlPolicy& policy) {
    core::ControllerBuildArgs args;
    args.policy = &policy;
    return registry.factory("icoil", args);
  };
  struct Row {
    const char* name;
    core::ControllerFactory factory;
  };
  const Row rows[] = {
      {"iCOIL/canonical", icoil_with(*canonical_policy)},
      {"iCOIL/all", icoil_with(*curriculum_policy)},
  };

  std::vector<std::vector<sim::SuiteCellResult>> per_method;
  for (const Row& row : rows) {
    per_method.push_back(evaluator.evaluate_suite(
        row.factory, suite, row.name,
        [&](const sim::SuiteCell& cell, int completed, int total) {
          std::fprintf(stderr, "[table2] %s / %s done (%d/%d)\n",
                       cell.display_label().c_str(), row.name, completed,
                       total);
        }));
  }

  math::TextTable table({"cell", "method", "avg [s]", "success", "episodes"});
  for (std::size_t cell = 0; cell < suite.cells.size(); ++cell) {
    for (std::size_t m = 0; m < per_method.size(); ++m) {
      const sim::Aggregate& agg = per_method[m][cell].aggregate;
      table.add_row({suite.cells[cell].display_label(), rows[m].name,
                     math::format_double(agg.park_time.mean(), 2),
                     math::format_double(100.0 * agg.success_ratio(), 0) + "%",
                     std::to_string(agg.episodes)});
    }
  }

  std::printf("\nCanonical-trained vs curriculum-trained iCOIL over the "
              "generator suite (%d episodes/cell)\n\n",
              eval_config.episodes);
  table.print(std::cout);
  table.save_csv("table2_curriculum.csv");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace icoil;
  if (argc > 1) {
    if (std::strcmp(argv[1], "--curriculum-compare") == 0)
      return run_curriculum_compare();
    std::fprintf(stderr,
                 "table2_success: unknown argument \"%s\" "
                 "(usage: table2_success [--curriculum-compare]; see "
                 "bench_suite table2 for reports/baselines)\n",
                 argv[1]);
    return 2;
  }
  return bench::run_suite_command("table2", bench::RunSuiteOptions{});
}
