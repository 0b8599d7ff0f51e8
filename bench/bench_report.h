#ifndef TREESIM_BENCH_BENCH_REPORT_H_
#define TREESIM_BENCH_BENCH_REPORT_H_

// Canonical machine-readable bench output. Every figure/ablation/micro
// binary accepts `--json=FILE` and writes one report in this schema:
//
//   {
//     "schema_version": 1,
//     "benchmark": "<binary name>",
//     "build": {"git_sha": "...", "git_dirty": false,
//               "build_type": "Release", "compiler": "GNU 13.2.0",
//               "metrics_enabled": true},
//     "config": { ...flag values the run used... },
//     "points": [ { "label": "...", "x": 2.0, ...measures... ,
//                   "stats": {...}, "metrics": {...} }, ... ]
//   }
//
// `tools/run_benchmarks.py` merges the per-binary reports into
// BENCH_treesim.json at the repo root; `tools/bench_compare.py` diffs two
// such files with per-metric noise thresholds (the regression gate).
//
// Every object here is a util/json.h JsonObject, the writer the query log
// and MetricsSnapshot::ToJson() use too. A point's `stats` block holds one
// QueryStatsJson() per engine: the summed QueryStats under their own names.

#include <string>
#include <vector>

#include "search/query_stats.h"
#include "util/json.h"
#include "util/status.h"

namespace treesim {
namespace bench {

/// Canonical JSON encoding of one query workload's QueryStats.
std::string QueryStatsJson(const QueryStats& stats);

/// One benchmark run: build provenance is captured automatically
/// (bench_report.cc compiles in the CMake-generated util/build_info.h).
class BenchReport {
 public:
  explicit BenchReport(std::string benchmark_name);

  /// The flag/config values the run used (rendered under "config").
  JsonObject& config() { return config_; }

  /// Appends a sweep point and returns it for the caller to fill.
  JsonObject& AddPoint();

  /// The whole report as one JSON document.
  std::string Render() const;

  /// Writes Render() to `path` (truncating).
  Status WriteFile(const std::string& path) const;

  /// Convenience for the `--json=FILE` contract: no-op when `path` is
  /// empty; on failure prints the status to stderr and returns false.
  bool WriteIfRequested(const std::string& path) const;

 private:
  std::string name_;
  JsonObject config_;
  std::vector<JsonObject> points_;
};

}  // namespace bench
}  // namespace treesim

#endif  // TREESIM_BENCH_BENCH_REPORT_H_
