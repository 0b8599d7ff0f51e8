// End-to-end checks that the instrumentation wired through the
// filter-and-refine pipeline tells a coherent story: registry deltas around
// real Range/Knn/BatchKnn workloads must agree with the per-query
// QueryStats the engine already returns, respect the pipeline's funnel
// invariants (results <= candidates <= database size), and render to JSON
// that matches the snapshot accessors. Everything runs sequentially
// (pool = nullptr) so the counters are exactly determined; the thread-pool
// metrics have documented cross-window skew and are deliberately not
// asserted tightly here.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "filters/bibranch_filter.h"
#include "gtest/gtest.h"
#include "json_validator.h"
#include "search/similarity_join.h"
#include "search/similarity_search.h"
#include "search/tree_database.h"
#include "test_util.h"
#include "ted/cost_model.h"
#include "ted/zhang_shasha.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/random.h"
#include "util/structured_log.h"
#include "util/trace.h"
#include "util/triage.h"

namespace treesim {
namespace {

using test::JsonValue;
using test::ParseJson;
using testing::MakeLabelPool;
using testing::RandomTree;

constexpr int kDbSize = 60;
constexpr int kQueries = 8;
constexpr uint64_t kSeed = 42;

/// Database + engine shared by the cases (built once; the interesting
/// deltas are all DiffSince() windows around the queries).
class ObservabilityE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
    labels_ = std::make_shared<LabelDictionary>();
    const std::vector<LabelId> pool = MakeLabelPool(labels_, 5);
    Rng rng(kSeed);
    db_ = std::make_unique<TreeDatabase>(labels_);
    std::vector<Tree> trees;
    for (int i = 0; i < kDbSize; ++i) {
      trees.push_back(
          RandomTree(3 + static_cast<int>(rng.UniformIndex(20)), pool,
                     labels_, rng));
    }
    db_->AddAll(std::move(trees));
    engine_ = std::make_unique<SimilaritySearch>(
        db_.get(), std::make_unique<BiBranchFilter>());
    for (int i = 0; i < kQueries; ++i) {
      queries_.push_back(db_->tree(static_cast<int>(
          rng.UniformIndex(static_cast<size_t>(db_->size())))));
    }
  }

  std::shared_ptr<LabelDictionary> labels_;
  std::unique_ptr<TreeDatabase> db_;
  std::unique_ptr<SimilaritySearch> engine_;
  std::vector<Tree> queries_;
};

TEST_F(ObservabilityE2eTest, DatabaseGaugeTracksSize) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  // Other tests in this binary may have built databases too; the gauge is
  // last-write-wins, and ours wrote last (SetUp ran just now).
  EXPECT_EQ(snap.gauge("db.size"), kDbSize);
  EXPECT_GE(snap.counter("db.trees_added"), kDbSize);
}

TEST_F(ObservabilityE2eTest, RangeCountersAgreeWithQueryStats) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  QueryStats total;
  int64_t results = 0;
  for (const Tree& q : queries_) {
    const RangeResult r = engine_->Range(q, /*tau=*/6);
    total += r.stats;
    results += static_cast<int64_t>(r.matches.size());
  }
  const MetricsSnapshot d =
      MetricsRegistry::Global().Snapshot().DiffSince(before);

  EXPECT_EQ(d.counter("search.range.queries"), kQueries);
  // The funnel: candidates are bounded by the database, results by the
  // candidates.
  EXPECT_EQ(d.counter("search.range.candidates"), total.candidates);
  EXPECT_EQ(d.counter("search.range.results"), total.results);
  EXPECT_EQ(d.counter("search.range.results"), results);
  EXPECT_LE(d.counter("search.range.results"),
            d.counter("search.range.candidates"));
  EXPECT_LE(d.counter("search.range.candidates"),
            int64_t{kDbSize} * kQueries);
  // Every candidate is one bounded-TED call (plus any the filter itself
  // issued; BiBranch issues none).
  EXPECT_GE(d.counter("ted.bounded_calls"),
            d.counter("search.range.candidates"));

  // Stage latency histograms: one sample per query, microseconds coherent
  // with the wall-clock QueryStats totals (histograms round down per
  // sample, so only the upper bound is safe to assert).
  const MetricsSnapshot::HistogramValue* filter_h =
      d.histogram("search.range.filter_micros");
  const MetricsSnapshot::HistogramValue* refine_h =
      d.histogram("search.range.refine_micros");
  ASSERT_NE(filter_h, nullptr);
  ASSERT_NE(refine_h, nullptr);
  EXPECT_EQ(filter_h->count, kQueries);
  EXPECT_EQ(refine_h->count, kQueries);
  // Generous absolute slack: micros and seconds are read a few statements
  // apart, so a preemption between the reads must not flake the test.
  EXPECT_LE(static_cast<double>(filter_h->sum),
            total.filter_seconds * 1e6 + 1e4 * kQueries);
  EXPECT_LE(static_cast<double>(refine_h->sum),
            total.refine_seconds * 1e6 + 1e4 * kQueries);

  const MetricsSnapshot::HistogramValue* per_query =
      d.histogram("search.range.candidates_per_query");
  ASSERT_NE(per_query, nullptr);
  EXPECT_EQ(per_query->count, kQueries);
  EXPECT_EQ(per_query->sum, total.candidates);
}

TEST_F(ObservabilityE2eTest, KnnCountersAgreeWithQueryStats) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  QueryStats total;
  for (const Tree& q : queries_) {
    const KnnResult r = engine_->Knn(q, /*k=*/3);
    total += r.stats;
    ASSERT_EQ(r.neighbors.size(), 3u);
  }
  const MetricsSnapshot d =
      MetricsRegistry::Global().Snapshot().DiffSince(before);

  EXPECT_EQ(d.counter("search.knn.queries"), kQueries);
  // Algorithm 2 computes a bound for every tree, then verifies a prefix:
  // candidates <= bounds_computed == |D| * queries.
  EXPECT_EQ(d.counter("search.knn.bounds_computed"),
            int64_t{kDbSize} * kQueries);
  EXPECT_EQ(d.counter("search.knn.candidates"), total.candidates);
  EXPECT_LE(d.counter("search.knn.candidates"),
            d.counter("search.knn.bounds_computed"));
  EXPECT_EQ(d.counter("search.knn.results"), total.results);
  EXPECT_GE(d.counter("ted.bounded_calls"),
            d.counter("search.knn.candidates"));

  const MetricsSnapshot::HistogramValue* candidates_per_query =
      d.histogram("search.knn.candidates_per_query");
  ASSERT_NE(candidates_per_query, nullptr);
  EXPECT_EQ(candidates_per_query->count, kQueries);
  EXPECT_EQ(candidates_per_query->sum, total.candidates);
  // The early break can never verify fewer than k candidates.
  EXPECT_GE(candidates_per_query->sum, int64_t{3} * kQueries);

  // bound_gap samples one gap (exact - bound >= 0 by soundness) per
  // candidate; its count matches the candidate counter.
  const MetricsSnapshot::HistogramValue* gap =
      d.histogram("search.knn.bound_gap");
  ASSERT_NE(gap, nullptr);
  EXPECT_EQ(gap->count, total.candidates);
  EXPECT_GE(gap->sum, 0);

  const MetricsSnapshot::HistogramValue* filter_h =
      d.histogram("search.knn.filter_micros");
  const MetricsSnapshot::HistogramValue* refine_h =
      d.histogram("search.knn.refine_micros");
  ASSERT_NE(filter_h, nullptr);
  ASSERT_NE(refine_h, nullptr);
  EXPECT_EQ(filter_h->count, kQueries);
  EXPECT_EQ(refine_h->count, kQueries);
}

TEST_F(ObservabilityE2eTest, BatchKnnMatchesPerQueryAccounting) {
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  const BatchKnnResult batch = engine_->BatchKnn(queries_, /*k=*/2);
  const MetricsSnapshot d =
      MetricsRegistry::Global().Snapshot().DiffSince(before);
  EXPECT_EQ(d.counter("search.batch_knn.queries"), kQueries);
  EXPECT_EQ(d.counter("search.knn.queries"), kQueries);
  EXPECT_EQ(d.counter("search.knn.candidates"), batch.combined.candidates);
}

/// Minimal extraction of `"key":<integer>` from the flat JSON the snapshot
/// renders — enough to cross-validate numbers without a JSON library.
int64_t ExtractJsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  EXPECT_NE(at, std::string::npos) << "missing key " << key;
  if (at == std::string::npos) return -1;
  size_t i = at + needle.size();
  bool negative = false;
  if (json[i] == '-') {
    negative = true;
    ++i;
  }
  int64_t value = 0;
  while (i < json.size() && json[i] >= '0' && json[i] <= '9') {
    value = value * 10 + (json[i] - '0');
    ++i;
  }
  return negative ? -value : value;
}

TEST_F(ObservabilityE2eTest, JsonDumpMatchesSnapshotAccessors) {
  // Exercise every metric family, then cross-check the CLI's --metrics=json
  // payload (the same ToJson()) against the typed accessors.
  for (const Tree& q : queries_) {
    static_cast<void>(engine_->Range(q, /*tau=*/4));
    static_cast<void>(engine_->Knn(q, /*k=*/2));
  }
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const std::string json = snap.ToJson();

  for (const char* name : {"search.range.queries", "search.knn.queries",
                           "ted.bounded_calls", "db.trees_added"}) {
    EXPECT_EQ(ExtractJsonInt(json, name), snap.counter(name)) << name;
  }
  EXPECT_EQ(ExtractJsonInt(json, "db.size"), snap.gauge("db.size"));

  // Histogram payloads carry count and sum under the metric's object.
  const MetricsSnapshot::HistogramValue* propt =
      snap.histogram("positional.propt");
  ASSERT_NE(propt, nullptr);
  const size_t at = json.find("\"positional.propt\":");
  ASSERT_NE(at, std::string::npos);
  const std::string tail = json.substr(at);
  EXPECT_EQ(ExtractJsonInt(tail, "count"), propt->count);
  EXPECT_EQ(ExtractJsonInt(tail, "sum"), propt->sum);
}

TEST_F(ObservabilityE2eTest, QueryStagesAppearInTrace) {
  Tracer::Global().Disable();
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  static_cast<void>(engine_->Range(queries_[0], /*tau=*/4));
  static_cast<void>(engine_->Knn(queries_[0], /*k=*/2));
  Tracer::Global().Disable();
  const std::vector<TraceEvent> events = Tracer::Global().Collect();

  auto count_spans = [&events](const std::string& name) {
    int n = 0;
    for (const TraceEvent& e : events) {
      if (name == e.name) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_spans("search.range"), 1);
  EXPECT_EQ(count_spans("search.range.filter"), 1);
  EXPECT_EQ(count_spans("search.range.refine"), 1);
  EXPECT_EQ(count_spans("search.knn"), 1);
  EXPECT_EQ(count_spans("search.knn.filter"), 1);
  EXPECT_EQ(count_spans("search.knn.refine"), 1);

  // Stage spans nest inside their query span: depth 1 under depth 0.
  for (const TraceEvent& e : events) {
    const std::string name = e.name;
    if (name == "search.range" || name == "search.knn") {
      EXPECT_EQ(e.depth, 0) << name;
    } else if (name.rfind("search.range.", 0) == 0 ||
               name.rfind("search.knn.", 0) == 0) {
      EXPECT_EQ(e.depth, 1) << name;
    }
  }
  Tracer::Global().Clear();
}

TEST_F(ObservabilityE2eTest, WeightedCountersAgreeWithQueryStats) {
  const CostModel& costs = UnitCostModel::Get();
  const MetricsSnapshot before = MetricsRegistry::Global().Snapshot();
  QueryStats range_total;
  QueryStats knn_total;
  for (const Tree& q : queries_) {
    range_total += engine_->RangeWeighted(q, /*tau=*/6.0, costs).stats;
    knn_total += engine_->KnnWeighted(q, /*k=*/3, costs).stats;
  }
  const MetricsSnapshot d =
      MetricsRegistry::Global().Snapshot().DiffSince(before);

  EXPECT_EQ(d.counter("search.range_weighted.queries"), kQueries);
  EXPECT_EQ(d.counter("search.range_weighted.candidates"),
            range_total.candidates);
  EXPECT_EQ(d.counter("search.range_weighted.results"), range_total.results);
  const MetricsSnapshot::HistogramValue* per_query =
      d.histogram("search.range_weighted.candidates_per_query");
  ASSERT_NE(per_query, nullptr);
  EXPECT_EQ(per_query->count, kQueries);
  EXPECT_EQ(per_query->sum, range_total.candidates);

  EXPECT_EQ(d.counter("search.knn_weighted.queries"), kQueries);
  EXPECT_EQ(d.counter("search.knn_weighted.bounds_computed"),
            int64_t{kDbSize} * kQueries);
  EXPECT_EQ(d.counter("search.knn_weighted.candidates"),
            knn_total.candidates);
  EXPECT_EQ(d.counter("search.knn_weighted.results"), knn_total.results);
  const MetricsSnapshot::HistogramValue* gap =
      d.histogram("search.knn_weighted.bound_gap");
  ASSERT_NE(gap, nullptr);
  EXPECT_EQ(gap->count, knn_total.candidates);
  EXPECT_GE(gap->sum, 0);  // clamped (+inf) distances must not overflow it
  for (const char* name :
       {"search.range_weighted.filter_micros",
        "search.range_weighted.refine_micros",
        "search.knn_weighted.filter_micros",
        "search.knn_weighted.refine_micros"}) {
    const MetricsSnapshot::HistogramValue* h = d.histogram(name);
    ASSERT_NE(h, nullptr) << name;
    EXPECT_EQ(h->count, kQueries) << name;
  }
}

TEST_F(ObservabilityE2eTest, WeightedQueryStagesAppearInTrace) {
  const CostModel& costs = UnitCostModel::Get();
  Tracer::Global().Disable();
  Tracer::Global().Clear();
  Tracer::Global().Enable();
  static_cast<void>(engine_->RangeWeighted(queries_[0], /*tau=*/4.0, costs));
  static_cast<void>(engine_->KnnWeighted(queries_[0], /*k=*/2, costs));
  Tracer::Global().Disable();
  const std::vector<TraceEvent> events = Tracer::Global().Collect();

  const std::vector<std::string> tops = {"search.range_weighted",
                                         "search.knn_weighted"};
  for (const std::string& top : tops) {
    for (const std::string& name : {top, top + ".filter", top + ".refine"}) {
      int n = 0;
      for (const TraceEvent& e : events) {
        if (name != e.name) continue;
        ++n;
        // Stage spans nest inside their query span: depth 1 under depth 0.
        EXPECT_EQ(e.depth, name == top ? 0 : 1) << name;
      }
      EXPECT_EQ(n, 1) << name;
    }
  }
  Tracer::Global().Clear();
}

/// The `key=value` pairs of a crash-dump record line.
std::map<std::string, std::string> DumpFields(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream words(line);
  std::string word;
  while (words >> word) {
    const size_t eq = word.find('=');
    if (eq != std::string::npos) out[word.substr(0, eq)] = word.substr(eq + 1);
  }
  return out;
}

TEST_F(ObservabilityE2eTest, EverySinkWritesOneRecordUnderOneName) {
  // The query log, the flight recorder and the crash dump are fed from one
  // FlightRecord: for a range query and a self join, each carries every
  // kFlightFields key with the same value, and all three name the op alike.
  const std::string dir = ::testing::TempDir();
  const std::string log_path = dir + "/observability_e2e_sinks.jsonl";
  StructuredLog& log = StructuredLog::Global();
  ASSERT_TRUE(log.OpenFile(log_path).ok());
  FlightRecorder::Global().ResetForTest();
  static_cast<void>(engine_->Range(queries_[0], /*tau=*/4));
  const SimilarityJoin join(db_.get(), std::make_unique<BiBranchFilter>());
  static_cast<void>(join.SelfJoin(/*tau=*/2));
  log.Close();
  SetTriageDir(dir.c_str());
  ASSERT_TRUE(WriteTriageDump("sinks"));

  std::map<int64_t, JsonValue> log_lines;
  std::ifstream log_in(log_path);
  for (std::string line; std::getline(log_in, line);) {
    JsonValue doc;
    ASSERT_TRUE(ParseJson(line, &doc)) << line;
    log_lines[static_cast<int64_t>(doc.Find("query_id")->number_value)] = doc;
  }
  std::map<int64_t, std::map<std::string, std::string>> dump_lines;
  std::ifstream dump_in(LastTriagePath());
  for (std::string line; std::getline(dump_in, line);) {
    if (line.rfind("record ", 0) != 0) continue;
    std::map<std::string, std::string> fields = DumpFields(line);
    dump_lines[std::stoll(fields["query_id"])] = fields;
  }

  const std::vector<FlightRecord> records = FlightRecorder::Global().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_STREQ(records[0].op, "range");
  EXPECT_STREQ(records[1].op, "self_join");
  for (const FlightRecord& rec : records) {
    ASSERT_EQ(log_lines.count(rec.query_id), 1u) << rec.op;
    ASSERT_EQ(dump_lines.count(rec.query_id), 1u) << rec.op;
    const JsonValue& logged = log_lines[rec.query_id];
    std::map<std::string, std::string>& dumped = dump_lines[rec.query_id];
    for (const FlightField& f : kFlightFields) {
      ASSERT_TRUE(logged.Has(f.key)) << rec.op << " log lacks " << f.key;
      EXPECT_EQ(logged.Find(f.key)->number_value,
                static_cast<double>(rec.*f.member))
          << rec.op << " " << f.key;
      EXPECT_EQ(dumped[f.key], std::to_string(rec.*f.member))
          << rec.op << " " << f.key;
    }
    EXPECT_EQ(logged.Find("event")->string_value, rec.op);
    EXPECT_EQ(dumped["op"], rec.op);
    EXPECT_EQ(logged.Find("slow")->bool_value, rec.slow) << rec.op;
    EXPECT_EQ(dumped["slow"], rec.slow ? "1" : "0") << rec.op;
  }
  FlightRecorder::Global().ResetForTest();
  std::remove(log_path.c_str());
  std::remove(LastTriagePath());
}

}  // namespace
}  // namespace treesim
