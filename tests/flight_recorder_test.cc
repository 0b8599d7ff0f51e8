// Unit tests for the flight recorder (util/flight_recorder.h): ordering,
// ring wraparound, the frozen-capacity contract, the signal-safe
// CrashSnapshot path, and a concurrent writer/snapshot stress that TSan
// uses to prove the seqlock protocol race-free. The recorder is
// process-global; every test starts from ResetForTest().
#include "util/flight_recorder.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "filters/bibranch_filter.h"
#include "gtest/gtest.h"
#include "search/similarity_join.h"
#include "search/similarity_search.h"
#include "test_util.h"
#include "ted/cost_model.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace treesim {
namespace {

FlightRecord MakeRecord(int64_t id) {
  // Derived fields: any record a reader ever observes must satisfy
  // param == 2*id and total_micros == 3*id, or the slot was torn.
  FlightRecord rec;
  rec.query_id = id;
  rec.op = "test";
  rec.param = 2 * id;
  rec.total_micros = 3 * id;
  rec.results = id;
  return rec;
}

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override { FlightRecorder::Global().ResetForTest(); }
  void TearDown() override { FlightRecorder::Global().ResetForTest(); }
};

TEST_F(FlightRecorderTest, EmptySnapshot) {
  EXPECT_TRUE(FlightRecorder::Global().Snapshot().empty());
  EXPECT_EQ(FlightRecorder::Global().total_recorded(), 0);
  FlightRecord scratch[4];
  EXPECT_EQ(FlightRecorder::Global().CrashSnapshot(scratch, 4), 0);
}

TEST_F(FlightRecorderTest, SnapshotIsOldestFirst) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  FlightRecorder& recorder = FlightRecorder::Global();
  for (int64_t i = 1; i <= 5; ++i) recorder.Record(MakeRecord(i));
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 5u);
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].query_id, i + 1);
    EXPECT_STREQ(records[static_cast<size_t>(i)].op, "test");
  }
  EXPECT_EQ(recorder.total_recorded(), 5);
}

TEST_F(FlightRecorderTest, WraparoundKeepsTheNewest) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Configure(4);
  for (int64_t i = 1; i <= 10; ++i) recorder.Record(MakeRecord(i));
  EXPECT_EQ(recorder.capacity(), 4);
  EXPECT_EQ(recorder.total_recorded(), 10);
  const std::vector<FlightRecord> records = recorder.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(records[static_cast<size_t>(i)].query_id, 7 + i);
  }
}

TEST_F(FlightRecorderTest, CapacityClampsAndFreezes) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Configure(0);
  EXPECT_EQ(recorder.capacity(), 1);
  recorder.Configure(1 << 20);
  EXPECT_EQ(recorder.capacity(), 4096);
  recorder.Configure(8);
  recorder.Record(MakeRecord(1));
  recorder.Configure(8);  // same value after freezing: fine
  EXPECT_DEATH(recorder.Configure(16), "frozen");
}

TEST_F(FlightRecorderTest, CrashSnapshotIsNewestFirstAndBounded) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  FlightRecorder& recorder = FlightRecorder::Global();
  for (int64_t i = 1; i <= 6; ++i) recorder.Record(MakeRecord(i));
  FlightRecord scratch[4];
  const int n = recorder.CrashSnapshot(scratch, 4);
  ASSERT_EQ(n, 4);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(scratch[i].query_id, 6 - i);
  }
}

TEST_F(FlightRecorderTest, ConcurrentWritersAndSnapshotsStaySane) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Configure(16);  // small ring: maximal writer/reader contention
  constexpr int kWriters = 4;
  constexpr int64_t kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::atomic<int64_t> torn{0};

  std::thread reader([&recorder, &stop, &torn] {
    FlightRecord scratch[16];
    while (!stop.load(std::memory_order_acquire)) {
      for (const FlightRecord& rec : recorder.Snapshot()) {
        if (rec.param != 2 * rec.query_id ||
            rec.total_micros != 3 * rec.query_id) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const int n = recorder.CrashSnapshot(scratch, 16);
      for (int i = 0; i < n; ++i) {
        if (scratch[i].param != 2 * scratch[i].query_id) {
          torn.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&recorder, w] {
      for (int64_t i = 0; i < kPerWriter; ++i) {
        recorder.Record(MakeRecord(w * kPerWriter + i + 1));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0) << "snapshot returned a torn record";
  EXPECT_EQ(recorder.total_recorded(), kWriters * kPerWriter);
  // After the writers quiesce, the ring holds exactly its capacity in
  // consistent records.
  EXPECT_EQ(recorder.Snapshot().size(), 16u);
}

TEST_F(FlightRecorderTest, ResetRestoresDefaults) {
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Configure(2);
  recorder.Record(MakeRecord(1));
  recorder.ResetForTest();
  EXPECT_EQ(recorder.capacity(), 128);
  EXPECT_EQ(recorder.total_recorded(), 0);
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST_F(FlightRecorderTest, EverySearchEntryRecordsOneFlight) {
  // Each of the seven search calls leaves exactly one record carrying its op
  // tag (a BatchKnn's members add "knn" records of their own), on an empty
  // database as much as on a populated one.
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = testing::MakeLabelPool(labels, 3);
  Rng rng(71);
  const Tree query = testing::RandomTree(5, pool, labels, rng);
  const CostModel& costs = UnitCostModel::Get();
  for (const int size : {0, 6}) {
    TreeDatabase db(labels);
    for (int i = 0; i < size; ++i) {
      db.Add(testing::RandomTree(5, pool, labels, rng));
    }
    SimilaritySearch search(&db, std::make_unique<BiBranchFilter>());
    SimilarityJoin join(&db, std::make_unique<BiBranchFilter>());
    const std::vector<std::pair<std::string, std::function<void()>>> calls = {
        {"range", [&] { static_cast<void>(search.Range(query, 2)); }},
        {"knn", [&] { static_cast<void>(search.Knn(query, 3)); }},
        {"batch_knn",
         [&] { static_cast<void>(search.BatchKnn({query, query}, 3)); }},
        {"range_weighted",
         [&] { static_cast<void>(search.RangeWeighted(query, 2.0, costs)); }},
        {"knn_weighted",
         [&] { static_cast<void>(search.KnnWeighted(query, 3, costs)); }},
        {"join", [&] { static_cast<void>(join.Join(db, 2)); }},
        {"self_join", [&] { static_cast<void>(join.SelfJoin(2)); }},
    };
    for (const auto& [op, call] : calls) {
      FlightRecorder::Global().ResetForTest();
      call();
      int tagged = 0;
      for (const FlightRecord& rec : FlightRecorder::Global().Snapshot()) {
        if (op == rec.op) ++tagged;
      }
      EXPECT_EQ(tagged, 1) << op << " on a database of " << size << " trees";
    }
  }
}

TEST_F(FlightRecorderTest, BatchMemberIdsFollowQueryOrderAtAnyPoolSize) {
  // Member ids are allocated on the calling thread in query order before
  // the members fan out, so with or without a pool the batch's id is
  // followed by one "knn" record per member, in query order, each carrying
  // that member's funnel.
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = testing::MakeLabelPool(labels, 4);
  Rng rng(73);
  TreeDatabase db(labels);
  for (int i = 0; i < 40; ++i) {
    db.Add(testing::RandomTree(rng.UniformInt(2, 12), pool, labels, rng));
  }
  std::vector<Tree> queries;
  for (int i = 0; i < 5; ++i) {
    queries.push_back(testing::RandomTree(3 + 2 * i, pool, labels, rng));
  }
  const SimilaritySearch search(&db, std::make_unique<BiBranchFilter>());
  ThreadPool workers(4);
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &workers}) {
    FlightRecorder::Global().ResetForTest();
    const BatchKnnResult batch = search.BatchKnn(queries, 3, threads);
    int64_t batch_id = 0;
    std::vector<FlightRecord> members(queries.size());
    const std::vector<FlightRecord> records =
        FlightRecorder::Global().Snapshot();
    for (const FlightRecord& rec : records) {
      if (std::string(rec.op) == "batch_knn") batch_id = rec.query_id;
    }
    ASSERT_EQ(records.size(), queries.size() + 1);
    for (const FlightRecord& rec : records) {
      if (std::string(rec.op) != "knn") continue;
      const int64_t member = rec.query_id - batch_id - 1;
      ASSERT_GE(member, 0);
      ASSERT_LT(member, static_cast<int64_t>(queries.size()));
      members[static_cast<size_t>(member)] = rec;
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(members[i].candidates, batch.per_query[i].stats.candidates)
          << "member " << i << (threads == nullptr ? " inline" : " pooled");
    }
  }
}

TEST_F(FlightRecorderTest, BatchMembersCountExactlyTheirOwnBandedCells) {
  // Each member of a batch runs on one thread and counts the cells of its
  // own banded verifier calls, so at any pool size the member records sum
  // exactly to the process-wide ted.bounded_cells_computed delta, and every
  // member reads what it reads inline. Unfiltered k=1 over 40-node trees
  // drawn from the database: once a query meets its own tree, every later
  // tree is verified banded at tau=0.
  if (!kMetricsEnabled) GTEST_SKIP() << "TREESIM_METRICS=OFF";
  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> pool = testing::MakeLabelPool(labels, 4);
  Rng rng(79);
  TreeDatabase db(labels);
  for (int i = 0; i < 300; ++i) {
    db.Add(testing::RandomTree(40, pool, labels, rng));
  }
  std::vector<Tree> queries;
  for (int i = 0; i < 16; ++i) queries.push_back(db.tree(i * 17));
  const SimilaritySearch search(&db, nullptr);
  const auto global_cells = [] {
    return MetricsRegistry::Global().Snapshot().counter(
        "ted.bounded_cells_computed");
  };
  ThreadPool workers(4);
  std::vector<int64_t> inline_cells;
  for (ThreadPool* threads : {static_cast<ThreadPool*>(nullptr), &workers}) {
    const char* where = threads == nullptr ? "inline" : "pooled";
    FlightRecorder::Global().ResetForTest();
    const int64_t before = global_cells();
    const BatchKnnResult batch = search.BatchKnn(queries, 1, threads);
    const int64_t delta = global_cells() - before;
    const std::vector<FlightRecord> records =
        FlightRecorder::Global().Snapshot();
    ASSERT_EQ(records.size(), queries.size() + 1) << where;
    int64_t batch_id = 0;
    int64_t batch_cells = -1;
    for (const FlightRecord& rec : records) {
      if (std::string(rec.op) != "batch_knn") continue;
      batch_id = rec.query_id;
      batch_cells = rec.ted_cells;
    }
    std::vector<int64_t> member_cells(queries.size(), -1);
    int64_t member_sum = 0;
    for (const FlightRecord& rec : records) {
      if (std::string(rec.op) != "knn") continue;
      const int64_t member = rec.query_id - batch_id - 1;
      ASSERT_GE(member, 0) << where;
      ASSERT_LT(member, static_cast<int64_t>(queries.size())) << where;
      member_cells[static_cast<size_t>(member)] = rec.ted_cells;
      member_sum += rec.ted_cells;
    }
    EXPECT_GT(delta, 0) << where;
    EXPECT_EQ(member_sum, delta) << where;
    EXPECT_EQ(batch_cells, delta) << where;
    EXPECT_EQ(batch.combined.ted_cells, delta) << where;
    if (threads == nullptr) {
      inline_cells = member_cells;
    } else {
      EXPECT_EQ(member_cells, inline_cells);
    }
  }
}

}  // namespace
}  // namespace treesim
