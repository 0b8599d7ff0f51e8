// Schema-validation tests for the canonical bench report
// (bench/bench_report.h): the JSON every bench binary writes for --json=FILE
// must parse with the independent parser in tests/json_validator.h and
// carry the documented top-level keys, because tools/run_benchmarks.py and
// tools/bench_compare.py consume it structurally. The test executable
// compiles bench_report.cc directly (tests/CMakeLists.txt), so this is the
// same code the bench binaries link.
#include "bench_report.h"

#include <cstdio>
#include <string>

#include "gtest/gtest.h"
#include "json_validator.h"
#include "search/query_stats.h"

namespace treesim {
namespace bench {
namespace {

using test::JsonValue;
using test::ParseJson;

TEST(JsonObjectTest, RendersTypedFieldsInCallOrder) {
  JsonObject obj;
  obj.Str("name", "x").Int("n", 3).Double("d", 0.25).Bool("ok", true);
  EXPECT_EQ(obj.Render(), "{\"name\":\"x\",\"n\":3,\"d\":0.25,\"ok\":true}");
}

TEST(JsonObjectTest, RawEmbedsPrerenderedJson) {
  JsonObject obj;
  obj.Raw("nested", "{\"a\":1}").Raw("list", "[1,2]");
  JsonValue doc;
  ASSERT_TRUE(ParseJson(obj.Render(), &doc));
  ASSERT_TRUE(doc.Find("nested")->is_object());
  EXPECT_EQ(doc.Find("nested")->Find("a")->number_value, 1);
  ASSERT_TRUE(doc.Find("list")->is_array());
  EXPECT_EQ(doc.Find("list")->array.size(), 2u);
}

TEST(JsonObjectTest, EscapesStringsAndNonFiniteDoubles) {
  JsonObject obj;
  obj.Str("s", "quote \" backslash \\ newline \n").Double("bad", 1.0 / 0.0);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(obj.Render(), &doc));
  EXPECT_EQ(doc.Find("s")->string_value, "quote \" backslash \\ newline \n");
  EXPECT_EQ(doc.Find("bad")->kind, JsonValue::Kind::kNull);
}

TEST(QueryStatsJsonTest, AllCountersPresentAndNonNegative) {
  QueryStats stats;
  stats.database_size = 100;
  stats.candidates = 40;
  stats.edit_distance_calls = 38;
  stats.ted_cells = 1200;
  stats.results = 7;
  stats.filter_seconds = 0.25;
  stats.refine_seconds = 0.5;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(QueryStatsJson(stats), &doc));
  for (const char* key :
       {"database_size", "candidates", "edit_distance_calls", "ted_cells",
        "results", "filter_seconds", "refine_seconds", "accessed_fraction"}) {
    ASSERT_TRUE(doc.Has(key)) << key;
    EXPECT_GE(doc.Find(key)->number_value, 0) << key;
  }
  EXPECT_EQ(doc.Find("candidates")->number_value, 40);
  EXPECT_EQ(doc.Find("edit_distance_calls")->number_value, 38);
  EXPECT_EQ(doc.Find("ted_cells")->number_value, 1200);
}

TEST(BenchReportTest, CanonicalSchemaRoundTrips) {
  BenchReport report("schema_test");
  report.config().Int("trees", 100).Int("queries", 4).Str("mode", "range");
  report.AddPoint().Str("label", "fanout").Double("x", 2).Double(
      "sequential_cpu_seconds", 1.5);
  report.AddPoint().Str("label", "fanout").Double("x", 4).Double(
      "sequential_cpu_seconds", 0.75);

  JsonValue doc;
  ASSERT_TRUE(ParseJson(report.Render(), &doc));
  ASSERT_TRUE(doc.is_object());

  // The canonical top level: schema_version / benchmark / build / config /
  // points, in that order (consumers may stream).
  ASSERT_EQ(doc.object.size(), 5u);
  EXPECT_EQ(doc.object[0].first, "schema_version");
  EXPECT_EQ(doc.object[0].second.number_value, 1);
  EXPECT_EQ(doc.object[1].first, "benchmark");
  EXPECT_EQ(doc.object[1].second.string_value, "schema_test");
  EXPECT_EQ(doc.object[2].first, "build");
  EXPECT_EQ(doc.object[3].first, "config");
  EXPECT_EQ(doc.object[4].first, "points");

  // Build provenance carries the compile-time facts.
  const JsonValue* build = doc.Find("build");
  ASSERT_TRUE(build->is_object());
  for (const char* key :
       {"git_sha", "git_dirty", "build_type", "compiler", "metrics_enabled"}) {
    EXPECT_TRUE(build->Has(key)) << key;
  }
  EXPECT_TRUE(build->Find("git_sha")->is_string());
  EXPECT_TRUE(build->Find("metrics_enabled")->is_bool());

  const JsonValue* config = doc.Find("config");
  EXPECT_EQ(config->Find("trees")->number_value, 100);
  EXPECT_EQ(config->Find("mode")->string_value, "range");

  const JsonValue* points = doc.Find("points");
  ASSERT_TRUE(points->is_array());
  ASSERT_EQ(points->array.size(), 2u);
  EXPECT_EQ(points->array[0].Find("label")->string_value, "fanout");
  EXPECT_EQ(points->array[1].Find("x")->number_value, 4);
}

TEST(BenchReportTest, EmptyReportStillValid) {
  BenchReport report("empty");
  JsonValue doc;
  ASSERT_TRUE(ParseJson(report.Render(), &doc));
  EXPECT_TRUE(doc.Find("points")->is_array());
  EXPECT_TRUE(doc.Find("points")->array.empty());
  EXPECT_TRUE(doc.Find("config")->is_object());
}

TEST(BenchReportTest, WriteFileAndWriteIfRequested) {
  BenchReport report("file_test");
  report.AddPoint().Str("label", "p").Int("n", 1);

  // Empty path: nothing to do, success.
  EXPECT_TRUE(report.WriteIfRequested(""));

  const std::string path = ::testing::TempDir() + "/bench_report_test.json";
  ASSERT_TRUE(report.WriteFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string content;
  int c;
  while ((c = std::fgetc(f)) != EOF) content.push_back(static_cast<char>(c));
  std::fclose(f);
  std::remove(path.c_str());

  JsonValue doc;
  ASSERT_TRUE(ParseJson(content, &doc));
  EXPECT_EQ(doc.Find("benchmark")->string_value, "file_test");

  // Unwritable path: Status error / false, not a crash.
  EXPECT_FALSE(report.WriteFile("/no/such/dir/report.json").ok());
  EXPECT_FALSE(report.WriteIfRequested("/no/such/dir/report.json"));
}

}  // namespace
}  // namespace bench
}  // namespace treesim
