// Schema-validation tests for the structured query log
// (util/structured_log.h): every line the engines emit must be a
// self-contained JSON object carrying the documented keys with sane values.
// The emitters build JSON by string append, so the checks here go through
// the independent parser in tests/json_validator.h. Under
// -DTREESIM_METRICS=OFF the sink is compiled out; the file-driven tests
// then assert the stub behavior instead (OpenFile fails, nothing written).
#include "util/structured_log.h"

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "json_validator.h"
#include "search/similarity_join.h"
#include "search/similarity_search.h"
#include "ted/cost_model.h"
#include "util/json.h"
#include "util/metrics.h"

namespace treesim {
namespace {

using test::JsonValue;
using test::ParseJson;

std::unique_ptr<TreeDatabase> MakeSyntheticDatabase(int count, int size_mean,
                                                    uint64_t seed) {
  auto labels = std::make_shared<LabelDictionary>();
  SyntheticParams params;
  params.size_mean = size_mean;
  params.label_count = 6;
  SyntheticGenerator gen(params, labels, seed);
  auto db = std::make_unique<TreeDatabase>(labels);
  db->AddAll(gen.GenerateDataset(count));
  return db;
}

std::string TempLogPath(const char* tag) {
  return ::testing::TempDir() + "/structured_log_test_" + tag + ".jsonl";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return lines;
  std::string current;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  if (!current.empty()) lines.push_back(current);
  std::fclose(f);
  return lines;
}

TEST(StructuredLogTest, DisabledSinkWritesNothing) {
  StructuredLog& log = StructuredLog::Global();
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.ShouldLog(1'000'000));
  JsonObject rec;
  rec.Str("event", "ignored");
  log.Write(rec);  // must be a silent no-op
}

#if TREESIM_METRICS_ENABLED

// The required key set for every engine-emitted record (the contract
// DESIGN.md documents): the flight record's fields under their
// kFlightFields keys, then event, filter and slow; "tau"/"k" are
// event-specific and checked per event.
const char* const kRequiredKeys[] = {
    "ts_micros",     "event",         "query_id",     "filter",
    "param",         "database_size", "candidates",   "results",
    "filter_micros", "refine_micros", "total_micros", "ted_cells",
    "slow"};

void ValidateQueryRecord(const std::string& line) {
  JsonValue doc;
  ASSERT_TRUE(ParseJson(line, &doc)) << "unparseable log line: " << line;
  ASSERT_TRUE(doc.is_object());
  for (const char* key : kRequiredKeys) {
    EXPECT_TRUE(doc.Has(key)) << "missing key '" << key << "' in: " << line;
  }
  // Counters are non-negative and the candidate funnel only narrows.
  const double database_size = doc.Find("database_size")->number_value;
  const double candidates = doc.Find("candidates")->number_value;
  const double results = doc.Find("results")->number_value;
  EXPECT_GE(database_size, 0);
  EXPECT_GE(candidates, 0);
  EXPECT_GE(results, 0);
  EXPECT_LE(candidates, database_size);
  EXPECT_LE(results, database_size);
  EXPECT_GE(doc.Find("filter_micros")->number_value, 0);
  EXPECT_GE(doc.Find("refine_micros")->number_value, 0);
  EXPECT_GE(doc.Find("total_micros")->number_value, 0);
  EXPECT_GE(doc.Find("ted_cells")->number_value, 0);
  EXPECT_GE(doc.Find("query_id")->number_value, 0);
  EXPECT_TRUE(doc.Find("slow")->is_bool());
}

TEST(StructuredLogTest, QueryPathsEmitValidRecords) {
  const std::string path = TempLogPath("queries");
  StructuredLog& log = StructuredLog::Global();
  ASSERT_TRUE(log.OpenFile(path).ok());
  const int64_t before = log.records_written();

  auto db = MakeSyntheticDatabase(/*count=*/40, /*size_mean=*/10, /*seed=*/11);
  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  const Tree query = db->tree(0);
  (void)engine.Range(query, 3);
  (void)engine.Knn(query, 4);
  (void)engine.BatchKnn({query, db->tree(1)}, 2);
  SimilarityJoin join(db.get(), std::make_unique<BiBranchFilter>());
  (void)join.SelfJoin(1);
  log.Close();

  const std::vector<std::string> lines = ReadLines(path);
  // range + knn + (2 knn + 1 summary from BatchKnn) + self_join = 6.
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(log.records_written() - before, 6);
  for (const std::string& line : lines) ValidateQueryRecord(line);

  // Event-specific keys and monotonically increasing query ids.
  JsonValue range_doc, knn_doc, batch_doc, join_doc;
  ASSERT_TRUE(ParseJson(lines[0], &range_doc));
  ASSERT_TRUE(ParseJson(lines[1], &knn_doc));
  ASSERT_TRUE(ParseJson(lines[4], &batch_doc));
  ASSERT_TRUE(ParseJson(lines[5], &join_doc));
  EXPECT_EQ(range_doc.Find("event")->string_value, "range");
  EXPECT_TRUE(range_doc.Has("tau"));
  EXPECT_EQ(knn_doc.Find("event")->string_value, "knn");
  EXPECT_TRUE(knn_doc.Has("k"));
  EXPECT_TRUE(knn_doc.Has("bound_gap_mean"));
  EXPECT_EQ(batch_doc.Find("event")->string_value, "batch_knn");
  EXPECT_TRUE(batch_doc.Has("queries"));
  EXPECT_EQ(join_doc.Find("event")->string_value, "self_join");
  // Ids are allocated (on the calling thread) at query ENTRY, not at log
  // write: range, knn, then the batch context, then its two member knn
  // queries, then the self join. The batch summary is written after its
  // members but keeps the batch's earlier id — that is the join key the
  // trace spans and flight records for the batch carry too.
  const double base = range_doc.Find("query_id")->number_value;
  EXPECT_GT(base, 0);
  EXPECT_EQ(knn_doc.Find("query_id")->number_value, base + 1);
  EXPECT_EQ(batch_doc.Find("query_id")->number_value, base + 2);
  JsonValue member0_doc, member1_doc;
  ASSERT_TRUE(ParseJson(lines[2], &member0_doc));
  ASSERT_TRUE(ParseJson(lines[3], &member1_doc));
  EXPECT_EQ(member0_doc.Find("query_id")->number_value, base + 3);
  EXPECT_EQ(member1_doc.Find("query_id")->number_value, base + 4);
  EXPECT_EQ(join_doc.Find("query_id")->number_value, base + 5);
  std::remove(path.c_str());
}

TEST(StructuredLogTest, WeightedQueriesEmitValidRecords) {
  const std::string path = TempLogPath("weighted");
  StructuredLog& log = StructuredLog::Global();
  ASSERT_TRUE(log.OpenFile(path).ok());
  auto db = MakeSyntheticDatabase(/*count=*/30, /*size_mean=*/10, /*seed=*/17);
  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  (void)engine.RangeWeighted(db->tree(0), 2.5, UnitCostModel::Get());
  (void)engine.KnnWeighted(db->tree(1), 3, UnitCostModel::Get());
  log.Close();

  const std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 2u);
  for (const std::string& line : lines) ValidateQueryRecord(line);
  JsonValue range_doc, knn_doc;
  ASSERT_TRUE(ParseJson(lines[0], &range_doc));
  ASSERT_TRUE(ParseJson(lines[1], &knn_doc));
  EXPECT_EQ(range_doc.Find("event")->string_value, "range_weighted");
  ASSERT_TRUE(range_doc.Has("tau"));
  EXPECT_EQ(range_doc.Find("tau")->number_value, 2.5);
  EXPECT_EQ(knn_doc.Find("event")->string_value, "knn_weighted");
  ASSERT_TRUE(knn_doc.Has("k"));
  EXPECT_EQ(knn_doc.Find("k")->number_value, 3);
  EXPECT_EQ(knn_doc.Find("results")->number_value, 3);
  EXPECT_EQ(knn_doc.Find("query_id")->number_value,
            range_doc.Find("query_id")->number_value + 1);
  std::remove(path.c_str());
}

TEST(StructuredLogTest, SlowQueryThresholdFilters) {
  const std::string path = TempLogPath("slow");
  StructuredLog& log = StructuredLog::Global();
  // A threshold no real query here reaches: nothing may be written.
  log.set_slow_query_micros(60'000'000);
  ASSERT_TRUE(log.OpenFile(path).ok());
  auto db = MakeSyntheticDatabase(20, 8, 13);
  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  (void)engine.Range(db->tree(0), 2);
  log.Close();
  log.set_slow_query_micros(0);
  EXPECT_TRUE(ReadLines(path).empty());
  std::remove(path.c_str());
}

TEST(StructuredLogTest, IsSlowRespectsThreshold) {
  StructuredLog& log = StructuredLog::Global();
  log.set_slow_query_micros(0);
  EXPECT_FALSE(log.IsSlow(5'000'000)) << "zero threshold means never slow";
  log.set_slow_query_micros(1000);
  EXPECT_FALSE(log.IsSlow(999));
  EXPECT_TRUE(log.IsSlow(1000));
  log.set_slow_query_micros(0);
}

TEST(StructuredLogTest, OpenFileFailsOnBadPath) {
  StructuredLog& log = StructuredLog::Global();
  EXPECT_FALSE(log.OpenFile("/no/such/dir/query.jsonl").ok());
  EXPECT_FALSE(log.enabled());
}

#else  // !TREESIM_METRICS_ENABLED

TEST(StructuredLogTest, CompiledOutStubRefusesToOpen) {
  StructuredLog& log = StructuredLog::Global();
  const Status status = log.OpenFile(TempLogPath("off"));
  EXPECT_FALSE(status.ok());
  EXPECT_FALSE(log.enabled());
  EXPECT_FALSE(log.ShouldLog(0));
  EXPECT_FALSE(log.IsSlow(1'000'000'000));
  EXPECT_EQ(log.records_written(), 0);
}

TEST(StructuredLogTest, CompiledOutQueriesWriteNothing) {
  auto db = MakeSyntheticDatabase(20, 8, 13);
  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  (void)engine.Range(db->tree(0), 2);
  EXPECT_EQ(StructuredLog::Global().records_written(), 0);
}

#endif  // TREESIM_METRICS_ENABLED

}  // namespace
}  // namespace treesim
