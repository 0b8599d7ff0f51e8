#ifndef TREESIM_BENCH_BENCH_UTIL_H_
#define TREESIM_BENCH_BENCH_UTIL_H_

// Shared plumbing for the figure-reproduction binaries (Figures 7-15 of the
// paper): dataset construction, query sampling, the three engines
// (BiBranch filter, histogram filter, sequential scan) and paper-style
// table output. Each figure binary is a thin driver over RunWorkload().

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_report.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "filters/histogram_filter.h"
#include "search/similarity_search.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/structured_log.h"

namespace treesim {
namespace bench {

/// One figure data point: averages over the query workload.
struct WorkloadResult {
  double result_pct = 0;         // |answers| / |D| * 100
  double bibranch_pct = 0;       // accessed data %, binary branch filter
  double histo_pct = 0;          // accessed data %, histogram filter
  double bibranch_cpu = 0;       // filter-and-refine seconds (BiBranch), total
  double histo_cpu = 0;          // filter-and-refine seconds (Histo), total
  double sequential_cpu = 0;     // sequential scan seconds, total
  double bibranch_filter_cpu = 0;  // filter step only (Section 5.1 remark)
  double avg_distance = 0;       // sampled average pairwise edit distance
  int tau = 0;                   // range used (range workloads)
  int k = 0;                     // k used (k-NN workloads)
  /// Registry delta over this workload (util/metrics.h) — per-stage
  /// attribution beyond the per-query QueryStats totals. Empty under
  /// TREESIM_METRICS=OFF.
  MetricsSnapshot metrics;
  /// Per-engine totals over the workload (summed QueryStats), for the
  /// canonical JSON report.
  QueryStats sequential_stats;
  QueryStats bibranch_stats;
  QueryStats histo_stats;
};

enum class WorkloadKind { kRange, kKnn };

/// The flags every bench driver shares (satellite of the telemetry layer:
/// one parser, nine drivers). Per-binary defaults come in as arguments;
/// the telemetry flags (--json, --query-log, --slow-query-ms) are uniform.
struct CommonFlags {
  int trees = 0;
  int queries = 0;
  uint64_t seed = 0;
  /// `--json=FILE`: canonical BenchReport destination ("" = no report).
  std::string json_path;
  /// `--query-log=FILE`: JSON-lines query log ("" = disabled).
  std::string query_log;
  /// `--slow-query-ms=N`: only log queries at least this slow (0 = all).
  int64_t slow_query_ms = 0;
};

inline CommonFlags ParseCommonFlags(const FlagParser& flags,
                                    int default_trees = 2000,
                                    int default_queries = 10,
                                    uint64_t default_seed = 1) {
  CommonFlags out;
  out.trees = static_cast<int>(flags.GetInt("trees", default_trees));
  out.queries = static_cast<int>(flags.GetInt("queries", default_queries));
  out.seed = static_cast<uint64_t>(
      flags.GetInt("seed", static_cast<int64_t>(default_seed)));
  out.json_path = flags.GetString("json", "");
  out.query_log = flags.GetString("query-log", "");
  out.slow_query_ms = flags.GetInt("slow-query-ms", 0);
  return out;
}

/// Records the shared flags under the report's "config" object.
inline void ReportCommonConfig(const CommonFlags& f, BenchReport& report) {
  report.config()
      .Int("trees", f.trees)
      .Int("queries", f.queries)
      .Int("seed", static_cast<int64_t>(f.seed))
      .Int("slow_query_ms", f.slow_query_ms);
}

/// Opens the structured query log when requested. Returns false (with a
/// stderr diagnostic) when the file cannot be opened — or when logging was
/// requested in a TREESIM_METRICS=OFF build, where the sink is a stub.
inline bool ApplyQueryLogFlags(const CommonFlags& f) {
  if (f.query_log.empty()) return true;
  StructuredLog& qlog = StructuredLog::Global();
  const Status status = qlog.OpenFile(f.query_log);
  if (!status.ok()) {
    std::fprintf(stderr, "query log: %s\n", status.ToString().c_str());
    return false;
  }
  qlog.set_slow_query_micros(f.slow_query_ms * 1000);
  return true;
}

struct WorkloadConfig {
  WorkloadKind kind = WorkloadKind::kRange;
  /// Number of queries, sampled from the dataset itself (as in Section 5).
  int queries = 10;
  /// Range radius as a fraction of the sampled average distance (the paper
  /// uses 1/5); ignored when `fixed_tau` >= 0 or kind == kKnn.
  double tau_fraction = 0.2;
  int fixed_tau = -1;
  /// k as a fraction of the dataset (the paper retrieves 0.25%); ignored
  /// when `fixed_k` > 0 or kind == kRange.
  double k_fraction = 0.0025;
  int fixed_k = -1;
  /// Pairs sampled when estimating the average distance.
  int distance_sample_pairs = 300;
  uint64_t seed = 20050614;  // SIGMOD 2005 opening day
};

/// Builds a TreeDatabase from generated trees.
inline std::unique_ptr<TreeDatabase> MakeDatabase(
    const std::shared_ptr<LabelDictionary>& labels, std::vector<Tree> trees) {
  auto db = std::make_unique<TreeDatabase>(labels);
  db->AddAll(std::move(trees));
  return db;
}

/// The paper's equal-space normalization (Section 5): the histogram filter
/// may use as many dimensions per tree as the binary branch representation,
/// i.e. the average sparse vector size plus two average tree sizes (the
/// positional arrays). Three dimensions go to the scalar features; the rest
/// is split between the label and degree histograms. On label-rich data
/// (DBLP) this folds the label histogram hard — exactly the regime where the
/// paper observes the histogram filter blurring distances.
inline HistogramFilter::Options NormalizedHistogramOptions(
    const TreeDatabase& db) {
  InvertedFileIndex index(2);
  index.AddAll(db.trees());
  int64_t dims = 0;
  for (const BranchProfile& p : index.profiles()) {
    dims += static_cast<int64_t>(p.entries.size());
  }
  const double avg_dims =
      db.size() == 0 ? 0.0 : static_cast<double>(dims) / db.size();
  const int budget =
      static_cast<int>(avg_dims + 2.0 * db.AverageTreeSize());
  // One third per histogram family (height/degree/label), as in Kailing et
  // al.'s three-filter setup; our height third is the scalar features.
  HistogramFilter::Options options;
  options.degree_buckets = std::max(4, budget / 3);
  options.label_buckets = std::max(4, budget / 3);
  return options;
}

/// Runs the paper's measurement protocol on one dataset: every engine
/// answers the same queries; accessed-data percentages and CPU totals are
/// averaged/summed over the workload. Results of the filtered engines are
/// asserted equal to the sequential scan (exactness is part of the claim).
inline WorkloadResult RunWorkload(const TreeDatabase& db,
                                  const WorkloadConfig& config) {
  WorkloadResult out;
  const MetricsSnapshot metrics_before = MetricsRegistry::Global().Snapshot();
  Rng rng(config.seed);

  SimilaritySearch sequential(&db, nullptr);
  SimilaritySearch bibranch(&db, std::make_unique<BiBranchFilter>());
  SimilaritySearch histo(&db, std::make_unique<HistogramFilter>(
                                  NormalizedHistogramOptions(db)));

  out.avg_distance =
      db.EstimateAverageDistance(rng, config.distance_sample_pairs);
  out.tau = config.fixed_tau >= 0
                ? config.fixed_tau
                : static_cast<int>(out.avg_distance * config.tau_fraction);
  out.k = config.fixed_k > 0
              ? config.fixed_k
              : std::max(1, static_cast<int>(db.size() * config.k_fraction));

  QueryStats seq_total;
  QueryStats bb_total;
  QueryStats hi_total;
  for (int qi = 0; qi < config.queries; ++qi) {
    const Tree& query =
        db.tree(static_cast<int>(rng.UniformIndex(
            static_cast<size_t>(db.size()))));
    if (config.kind == WorkloadKind::kRange) {
      const RangeResult seq = sequential.Range(query, out.tau);
      const RangeResult bb = bibranch.Range(query, out.tau);
      const RangeResult hi = histo.Range(query, out.tau);
      if (bb.matches != seq.matches || hi.matches != seq.matches) {
        std::fprintf(stderr, "FATAL: filtered result mismatch (query %d)\n",
                     qi);
        std::abort();
      }
      seq_total += seq.stats;
      bb_total += bb.stats;
      hi_total += hi.stats;
    } else {
      const KnnResult seq = sequential.Knn(query, out.k);
      const KnnResult bb = bibranch.Knn(query, out.k);
      const KnnResult hi = histo.Knn(query, out.k);
      if (bb.neighbors != seq.neighbors || hi.neighbors != seq.neighbors) {
        std::fprintf(stderr, "FATAL: filtered k-NN mismatch (query %d)\n",
                     qi);
        std::abort();
      }
      seq_total += seq.stats;
      bb_total += bb.stats;
      hi_total += hi.stats;
    }
  }

  const double denom = static_cast<double>(seq_total.database_size);
  out.result_pct = 100.0 * static_cast<double>(seq_total.results) / denom;
  out.bibranch_pct =
      100.0 * static_cast<double>(bb_total.edit_distance_calls) / denom;
  out.histo_pct =
      100.0 * static_cast<double>(hi_total.edit_distance_calls) / denom;
  out.bibranch_cpu = bb_total.TotalSeconds();
  out.histo_cpu = hi_total.TotalSeconds();
  out.sequential_cpu = seq_total.TotalSeconds();
  out.bibranch_filter_cpu = bb_total.filter_seconds;
  out.sequential_stats = seq_total;
  out.bibranch_stats = bb_total;
  out.histo_stats = hi_total;
  out.metrics = MetricsRegistry::Global().Snapshot().DiffSince(metrics_before);
  return out;
}

/// One indented line attributing the sweep point's work to pipeline stages,
/// from the registry delta RunWorkload captured. Silent when the
/// observability layer is compiled out.
inline void PrintStageBreakdown(const MetricsSnapshot& d) {
  if (!kMetricsEnabled) return;
  const auto mean = [&d](const char* name) {
    const MetricsSnapshot::HistogramValue* h = d.histogram(name);
    return h == nullptr ? 0.0 : h->Mean();
  };
  std::printf(
      "    stages: ted_calls=%lld propt_calls=%lld propt_mean=%.1f "
      "knn(filter=%.0fus refine=%.0fus gap=%.1f) "
      "range(filter=%.0fus refine=%.0fus) saturations=%lld\n",
      static_cast<long long>(d.counter("ted.zhang_shasha_calls")),
      static_cast<long long>(d.counter("positional.searchlbound_calls")),
      mean("positional.propt"), mean("search.knn.filter_micros"),
      mean("search.knn.refine_micros"), mean("search.knn.bound_gap"),
      mean("search.range.filter_micros"), mean("search.range.refine_micros"),
      static_cast<long long>(d.counter("safe_math.saturations")));
  // Bounded-verifier telemetry: how much DP work the threshold pruned.
  // bounded_calls counts refine invocations; cells pruned/computed split
  // the forest-matrix work; mirrored counts the RTED-style orientation
  // flips.
  const long long bounded_calls = d.counter("ted.bounded_calls") +
                                  d.counter("ted.bounded_weighted_calls");
  if (bounded_calls > 0) {
    const double computed =
        static_cast<double>(d.counter("ted.bounded_cells_computed"));
    const double pruned =
        static_cast<double>(d.counter("ted.bounded_cells_band_pruned"));
    const double total = computed + pruned;
    std::printf(
        "    bounded: calls=%lld cells_pruned=%.1f%% mirrored=%lld\n",
        bounded_calls, total > 0.0 ? 100.0 * pruned / total : 0.0,
        static_cast<long long>(d.counter("ted.bounded_mirror_strategy")));
  }
}

/// Canonical JSON encoding of one RunWorkload() sweep point — the unit the
/// regression gate (tools/bench_compare.py) diffs. Keys here are the
/// schema; renaming one orphans every recorded baseline.
inline void ReportSweepPoint(const std::string& x_label, double x,
                             WorkloadKind kind, int queries,
                             const WorkloadResult& r, BenchReport& report) {
  const double q = static_cast<double>(queries);
  JsonObject stats;
  stats.Raw("sequential", QueryStatsJson(r.sequential_stats))
      .Raw("bibranch", QueryStatsJson(r.bibranch_stats))
      .Raw("histo", QueryStatsJson(r.histo_stats));
  report.AddPoint()
      .Str("label", x_label)
      .Double("x", x)
      .Str("kind", kind == WorkloadKind::kRange ? "range" : "knn")
      .Int("queries", queries)
      .Int("tau", r.tau)
      .Int("k", r.k)
      .Double("avg_distance", r.avg_distance)
      .Double("result_pct", r.result_pct)
      .Double("bibranch_pct", r.bibranch_pct)
      .Double("histo_pct", r.histo_pct)
      .Double("sequential_cpu_seconds", r.sequential_cpu)
      .Double("bibranch_cpu_seconds", r.bibranch_cpu)
      .Double("histo_cpu_seconds", r.histo_cpu)
      .Double("bibranch_filter_cpu_seconds", r.bibranch_filter_cpu)
      .Double("sequential_queries_per_second",
              r.sequential_cpu > 0 ? q / r.sequential_cpu : 0.0)
      .Double("bibranch_queries_per_second",
              r.bibranch_cpu > 0 ? q / r.bibranch_cpu : 0.0)
      .Double("histo_queries_per_second",
              r.histo_cpu > 0 ? q / r.histo_cpu : 0.0)
      .Raw("stats", stats.Render())
      .Raw("metrics", r.metrics.ToJson());
}

/// Prints the header every figure binary starts with.
inline void PrintFigureHeader(const std::string& figure,
                              const std::string& description,
                              const std::string& workload,
                              int queries) {
  std::printf("=== %s: %s ===\n", figure.c_str(), description.c_str());
  std::printf("workload: %s | queries per dataset: %d "
              "(paper used 100; pass --queries=100 for paper scale)\n",
              workload.c_str(), queries);
}

/// Prints one table row shared by Figures 7-12.
inline void PrintSweepRow(const std::string& x_label, double x,
                          WorkloadKind kind, const WorkloadResult& r) {
  const std::string query_param =
      kind == WorkloadKind::kRange ? "tau=" + std::to_string(r.tau)
                                   : "k=" + std::to_string(r.k);
  std::printf(
      "%s=%-6.4g avgDist=%-7.2f %-8s result%%=%-7.3f BiBranch%%=%-8.3f "
      "Histo%%=%-8.3f BiBranchCPU=%-8.3fs (filter %.3fs) SeqCPU=%-8.3fs\n",
      x_label.c_str(), x, r.avg_distance, query_param.c_str(), r.result_pct,
      r.bibranch_pct, r.histo_pct, r.bibranch_cpu, r.bibranch_filter_cpu,
      r.sequential_cpu);
  PrintStageBreakdown(r.metrics);
}

}  // namespace bench
}  // namespace treesim

#endif  // TREESIM_BENCH_BENCH_UTIL_H_
