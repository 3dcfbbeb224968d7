#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/evaluator.hpp"

namespace icoil::sim {

/// Schema version written into every report. The loader reads this version
/// only: a report from an older build must be re-recorded.
inline constexpr int kRunReportSchemaVersion = 3;

/// Escapes `"` `\` and control characters for embedding in a JSON string
/// literal (the one escaping routine every JSON we emit goes through).
std::string json_escape(const std::string& s);

/// Fingerprint of the EvalConfig knobs that determine episode outcomes
/// (episodes, base seed, sim dt and goal tolerances — NOT thread counts,
/// which never change results). Two reports are outcome-comparable only if
/// their fingerprints match.
std::uint64_t config_fingerprint(const EvalConfig& config);

/// The git description of the build ("v1.2-3-gabcdef" / "abcdef-dirty"),
/// stamped at configure time; "unknown" outside a git checkout.
std::string build_git_describe();

/// Run-level metadata: enough to tell whether two reports are comparable
/// and where a regression came from.
struct RunReportMeta {
  int schema_version = kRunReportSchemaVersion;
  std::string suite;                 ///< suite name ("table2", "zoo", ...)
  std::string git_describe;          ///< build stamp (build_git_describe())
  int threads = 0;                   ///< resolved worker count of the run
  int episodes_per_cell = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t config_fingerprint = 0;  ///< sim::config_fingerprint
  /// True when the run was cut short (e.g. a SIGINT tripping the abort
  /// token): the document is a valid but PARTIAL record — cells evaluated
  /// after the abort carry kBudgetExceeded episodes, not real outcomes.
  bool aborted = false;
};

/// One recorded episode (optional detail; off by default to keep reports
/// small and diffable).
struct EpisodeRecord {
  std::string outcome;               ///< sim::to_string(Outcome)
  double park_time = 0.0;
  double min_clearance = 0.0;
  double il_fraction = 0.0;
  int mode_switches = 0;
  int deadline_hits = 0;             ///< frames degraded by a frame deadline
};

/// One (cell, method) aggregate row of a run.
struct CellRecord {
  std::string label;                 ///< cell display label
  std::string method;
  std::string generator;
  int episodes = 0;
  int successes = 0;
  int collisions = 0;
  int timeouts = 0;
  int budget_exceeded = 0;
  int deadline_hits = 0;             ///< total degraded frames in the cell
  double success_ratio = 0.0;
  double park_time_mean = 0.0;
  double park_time_min = 0.0;
  double park_time_max = 0.0;
  double park_time_stddev = 0.0;
  double il_fraction_mean = 0.0;
  double min_clearance_mean = 0.0;
  std::vector<EpisodeRecord> episode_records;  ///< empty unless requested
};

/// A named table of metric rows: string key columns identify a row, finite
/// numeric value columns carry its measurements. Every bench that records
/// more than suite cells (serve levels, planner modes, collision densities,
/// mission templates) fills one or more of these; the report writes, loads
/// and compares them all through the same code.
struct MetricsTable {
  struct Row {
    std::vector<std::string> keys;   ///< one per key column, header order
    std::vector<double> values;      ///< one per value column, header order
  };

  std::string name;
  std::vector<std::string> key_columns;
  std::vector<std::string> value_columns;
  std::vector<Row> rows;

  MetricsTable() = default;
  MetricsTable(std::string name, std::vector<std::string> key_columns,
               std::vector<std::string> value_columns);

  /// Appends a row. Throws std::invalid_argument on a width mismatch with
  /// the header, a non-finite value or keys already present in the table.
  void add_row(std::vector<std::string> keys, std::vector<double> values);
  const Row* find(const std::vector<std::string>& keys) const;
  /// Index of a value column, or -1 when the table has none by that name.
  int value_index(const std::string& column) const;
};

/// A versioned, machine-readable record of one bench/suite run: run
/// metadata, per-(cell, method) suite aggregates with optional per-episode
/// records, and the bench's metric tables. Writer AND loader live here so a
/// committed reference report can gate CI (see compare_to_baseline).
struct RunReport {
  RunReportMeta meta;
  std::vector<CellRecord> cells;
  std::vector<MetricsTable> tables;

  /// The table called `name`, or nullptr.
  const MetricsTable* table(const std::string& name) const;

  /// Appends one aggregate row per suite cell for `results`; call once per
  /// method when a run covers several.
  void add_cells(const std::vector<SuiteCellResult>& results);
  /// Same, with the per-episode records from `detailed` attached. `results`
  /// must be the aggregates of exactly those episodes (cell-for-cell) —
  /// passing them in keeps the fold in one place so table and artifact
  /// cannot disagree.
  void add_cells_detailed(const std::vector<SuiteCellResult>& results,
                          const std::vector<SuiteCellEpisodes>& detailed);

  std::string to_json() const;
  bool save(const std::string& path, std::string* error = nullptr) const;
  /// Accepts only schema kRunReportSchemaVersion documents; older ones must
  /// be re-recorded with the current build.
  static bool parse(const std::string& json, RunReport* out,
                    std::string* error = nullptr);
  static bool load(const std::string& path, RunReport* out,
                   std::string* error = nullptr);
};

/// How far one value column of one table may move against the baseline
/// before compare_to_baseline calls it a regression.
struct ColumnGate {
  enum class Kind {
    kMaxDrop,      ///< baseline - current must not exceed the tolerance
    kMaxAbsDelta,  ///< |current - baseline| must not exceed the tolerance
  };
  std::string table;
  std::string column;
  Kind kind = Kind::kMaxDrop;
  double tolerance = 0.0;
};

/// What compare_to_baseline tolerates before calling a change a regression.
struct BaselineTolerance {
  /// Allowed absolute drop in per-cell success ratio.
  double success_drop = 0.02;
  /// Allowed relative increase in mean park time over successful episodes.
  double park_time_slowdown = 0.10;
  /// Per-column gates over the metric tables, declared by the bench that
  /// fills them. Columns without a gate are recorded, not compared.
  std::vector<ColumnGate> gates;
};

/// Outcome of comparing a fresh report against a committed baseline.
struct BaselineVerdict {
  bool ok = true;
  std::vector<std::string> failures;  ///< per-cell/row regression reasons
  std::vector<std::string> notes;     ///< non-fatal observations

  std::string summary() const;
};

/// Compares `current` against `baseline`. Coverage is strict both ways: a
/// cell (matched on method + label), table or row (matched on its keys)
/// present on one side only is a failure, as is a table whose header
/// changed. Matched cells fail on a success-ratio drop or a park-time
/// slowdown beyond tolerance; matched rows fail on any gate in
/// `tolerance.gates`. Mismatched config fingerprints are flagged as a note
/// (the numbers may legitimately differ).
BaselineVerdict compare_to_baseline(const RunReport& current,
                                    const RunReport& baseline,
                                    const BaselineTolerance& tolerance = {});

}  // namespace icoil::sim
