// Unit tests for the span tracer (util/trace.h): enable/disable gating,
// nesting depths and containment, ring-buffer wraparound accounting, and
// the chrome://tracing export. The tracer is process-global; every test
// starts from Clear() and leaves the tracer disabled.
#include "util/trace.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "json_validator.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace treesim {
namespace {

/// Fresh, enabled tracer (or fresh disabled one for the gating tests).
void ResetTracer(bool enable) {
  Tracer::Global().Disable();
  Tracer::Global().Clear();
  if (enable) Tracer::Global().Enable();
}

TEST(TraceTest, DisabledTracerRecordsNothing) {
  ResetTracer(/*enable=*/false);
  { TREESIM_TRACE_SPAN("test.trace.disabled"); }
  EXPECT_TRUE(Tracer::Global().Collect().empty());
  EXPECT_EQ(Tracer::Global().dropped_events(), 0);
}

TEST(TraceTest, EnableDisableToggles) {
  ResetTracer(/*enable=*/true);
  EXPECT_TRUE(Tracer::Global().enabled() || !kMetricsEnabled);
  Tracer::Global().Disable();
  EXPECT_FALSE(Tracer::Global().enabled());
}

TEST(TraceTest, NestedSpansRecordDepthsAndContainment) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  ResetTracer(/*enable=*/true);
  {
    TREESIM_TRACE_SPAN("test.trace.outer");
    {
      TREESIM_TRACE_SPAN("test.trace.middle");
      { TREESIM_TRACE_SPAN("test.trace.inner"); }
    }
  }
  Tracer::Global().Disable();
  const std::vector<TraceEvent> events = Tracer::Global().Collect();
  ASSERT_EQ(events.size(), 3u);
  // Collect() sorts by start time: outer opened first.
  EXPECT_STREQ(events[0].name, "test.trace.outer");
  EXPECT_STREQ(events[1].name, "test.trace.middle");
  EXPECT_STREQ(events[2].name, "test.trace.inner");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].depth, 2);
  for (const TraceEvent& e : events) {
    EXPECT_GE(e.start_ns, 0);
    EXPECT_GE(e.duration_ns, 0);
  }
  // Each child starts no earlier and ends no later than its parent.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
    EXPECT_LE(events[i].start_ns + events[i].duration_ns,
              events[i - 1].start_ns + events[i - 1].duration_ns);
  }
}

TEST(TraceTest, SequentialSpansAreOrderedByStart) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  ResetTracer(/*enable=*/true);
  for (int i = 0; i < 5; ++i) {
    TREESIM_TRACE_SPAN("test.trace.seq");
  }
  Tracer::Global().Disable();
  const std::vector<TraceEvent> events = Tracer::Global().Collect();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
    EXPECT_EQ(events[i].depth, 0);
  }
}

TEST(TraceTest, RingWraparoundKeepsNewestAndCountsDropped) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  ResetTracer(/*enable=*/true);
  constexpr int kExtra = 100;
  for (int i = 0; i < Tracer::kRingCapacity + kExtra; ++i) {
    TREESIM_TRACE_SPAN("test.trace.wrap");
  }
  Tracer::Global().Disable();
  const std::vector<TraceEvent> events = Tracer::Global().Collect();
  EXPECT_EQ(static_cast<int>(events.size()), Tracer::kRingCapacity);
  EXPECT_EQ(Tracer::Global().dropped_events(), kExtra);
  // The survivors are the newest spans: strictly within the recorded window
  // and still start-ordered.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, events[i - 1].start_ns);
  }
}

TEST(TraceTest, ThreadsGetDistinctIndices) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  ResetTracer(/*enable=*/true);
  {
    ThreadPool pool(2);
    pool.ParallelFor(8, [](int64_t) {
      TREESIM_TRACE_SPAN("test.trace.pooled");
    });
  }
  Tracer::Global().Disable();
  int max_thread_index = 0;
  int pooled = 0;
  for (const TraceEvent& e : Tracer::Global().Collect()) {
    max_thread_index = std::max(max_thread_index, e.thread_index);
    if (std::string(e.name) == "test.trace.pooled") ++pooled;
  }
  // Workers record threadpool.task spans too; only count ours. All eight
  // iterations ran, and at least one worker beyond thread 0 recorded.
  EXPECT_EQ(pooled, 8);
  EXPECT_GE(max_thread_index, 1);
}

TEST(TraceTest, ClearDropsEventsAndZeroesDropCounter) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  ResetTracer(/*enable=*/true);
  for (int i = 0; i < Tracer::kRingCapacity + 10; ++i) {
    TREESIM_TRACE_SPAN("test.trace.clear");
  }
  Tracer::Global().Disable();
  ASSERT_FALSE(Tracer::Global().Collect().empty());
  ASSERT_GT(Tracer::Global().dropped_events(), 0);
  Tracer::Global().Clear();
  EXPECT_TRUE(Tracer::Global().Collect().empty());
  EXPECT_EQ(Tracer::Global().dropped_events(), 0);
}

TEST(TraceTest, ExportChromeTracingIsWellFormed) {
  ResetTracer(/*enable=*/true);
  {
    TREESIM_TRACE_SPAN("test.trace.export_outer");
    { TREESIM_TRACE_SPAN("test.trace.export_inner"); }
  }
  Tracer::Global().Disable();
  const std::string json = Tracer::Global().ExportChromeTracing();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  int braces = 0;
  int brackets = 0;
  for (char ch : json) {
    braces += ch == '{' ? 1 : ch == '}' ? -1 : 0;
    brackets += ch == '[' ? 1 : ch == ']' ? -1 : 0;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  if (kMetricsEnabled) {
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("test.trace.export_outer"), std::string::npos);
    EXPECT_NE(json.find("test.trace.export_inner"), std::string::npos);
  } else {
    EXPECT_EQ(json.find("\"ph\""), std::string::npos);
  }
  Tracer::Global().Clear();
}

TEST(TraceTest, ExportWritesExactMicrosecondsAndEscapedNames) {
  // Every ts/dur is start_ns/duration_ns over 1000 exactly (three
  // zero-padded fraction digits: 207,026 ns is 207.026, not 207.26), and a
  // span name with a quote and a backslash still parses back to itself.
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  ResetTracer(/*enable=*/true);
  for (int i = 0; i < 60; ++i) {
    TREESIM_TRACE_SPAN("test.trace.exact");
    if (i % 10 == 0) {
      TREESIM_TRACE_SPAN("test.trace.\"quoted\"\\name");
    }
  }
  Tracer::Global().Disable();
  const std::vector<TraceEvent> events = Tracer::Global().Collect();
  ASSERT_GE(events.size(), 50u);
  test::JsonValue doc;
  ASSERT_TRUE(
      test::JsonParser(Tracer::Global().ExportChromeTracing()).Parse(&doc));
  const test::JsonValue* exported = doc.Find("traceEvents");
  ASSERT_NE(exported, nullptr);
  ASSERT_TRUE(exported->is_array());
  ASSERT_EQ(exported->array.size(), events.size());
  int odd_names = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    const test::JsonValue& e = exported->array[i];
    ASSERT_TRUE(e.Has("name") && e.Has("ts") && e.Has("dur")) << i;
    EXPECT_EQ(e.Find("name")->string_value, events[i].name) << i;
    EXPECT_EQ(e.Find("ts")->number_value,
              static_cast<double>(events[i].start_ns) / 1000.0)
        << "event " << i << " start_ns " << events[i].start_ns;
    EXPECT_EQ(e.Find("dur")->number_value,
              static_cast<double>(events[i].duration_ns) / 1000.0)
        << "event " << i << " duration_ns " << events[i].duration_ns;
    if (e.Find("name")->string_value == "test.trace.\"quoted\"\\name") {
      ++odd_names;
    }
  }
  EXPECT_EQ(odd_names, 6);
  Tracer::Global().Clear();
}

TEST(TraceTest, OffBuildTracerIsSilent) {
  if (kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=ON";
  Tracer::Global().Enable();
  { TREESIM_TRACE_SPAN("test.trace.off"); }
  Tracer::Global().Disable();
  EXPECT_TRUE(Tracer::Global().Collect().empty());
  EXPECT_EQ(Tracer::Global().dropped_events(), 0);
}

}  // namespace
}  // namespace treesim
