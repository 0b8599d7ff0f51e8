// Pins the determinism contract of every pool-aware layer: with any worker
// count, results and stats counts are identical to the sequential path —
// parallelism may only change wall-clock time. A pool runs whole units
// (queries, left trees, matrix rows), so range and k-NN are checked as
// queries running concurrently on one engine. Also pins that queries only
// read the engine: they leave the index as built.
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "core/inverted_file.h"
#include "filters/bibranch_filter.h"
#include "search/pairwise.h"
#include "search/similarity_join.h"
#include "search/similarity_search.h"
#include "test_util.h"
#include "util/thread_pool.h"

namespace treesim {
namespace {

using testing::MakeLabelPool;
using testing::RandomTree;

constexpr int kWorkers = 8;

/// Every count of `stats`, that is all but the timings.
std::vector<int64_t> Counts(const QueryStats& stats) {
  return {stats.database_size, stats.candidates, stats.results,
          stats.ted_cells};
}

/// `ask(i)` for i in [0, n), concurrently over `pool`'s workers, each
/// answer in its own slot.
template <typename Ask>
auto ConcurrentAnswers(ThreadPool& pool, int n, const Ask& ask) {
  std::vector<decltype(ask(0))> out(static_cast<size_t>(n));
  pool.ParallelFor(n, [&](int64_t i) {
    out[static_cast<size_t>(i)] = ask(static_cast<int>(i));
  });
  return out;
}

std::unique_ptr<TreeDatabase> SeededDb(int count, uint64_t seed,
                                       int max_size = 16) {
  auto dict = std::make_shared<LabelDictionary>();
  auto db = std::make_unique<TreeDatabase>(dict);
  const std::vector<LabelId> pool = MakeLabelPool(dict, 5);
  Rng rng(seed);
  for (int i = 0; i < count; ++i) {
    db->Add(RandomTree(rng.UniformInt(1, max_size), pool, dict, rng));
  }
  return db;
}

TEST(ParallelDeterminismTest, PairwiseMatrixIdentical) {
  auto db = SeededDb(40, 2025);
  const PairwiseDistances serial = ComputePairwiseDistances(*db, nullptr);
  ThreadPool pool(kWorkers);
  const PairwiseDistances parallel = ComputePairwiseDistances(*db, &pool);
  ASSERT_EQ(parallel.size(), serial.size());
  for (int i = 0; i < serial.size(); ++i) {
    for (int j = 0; j < serial.size(); ++j) {
      ASSERT_EQ(parallel.At(i, j), serial.At(i, j));
    }
  }
}

TEST(ParallelDeterminismTest, FilterBuildWithPoolIdentical) {
  // Build() is sequential and ignores build_pool: setting it must leave
  // the index exactly as a build without it.
  auto db = SeededDb(50, 2029);
  BiBranchFilter serial;
  serial.Build(db->trees());

  ThreadPool pool(kWorkers);
  BiBranchFilter::Options options;
  options.build_pool = &pool;
  BiBranchFilter parallel(options);
  parallel.Build(db->trees());

  ASSERT_EQ(parallel.profiles().size(), serial.profiles().size());
  for (size_t i = 0; i < serial.profiles().size(); ++i) {
    const BranchProfile& sp = serial.profiles()[i];
    const BranchProfile& pp = parallel.profiles()[i];
    EXPECT_EQ(pp.tree_size, sp.tree_size);
    ASSERT_EQ(pp.entries.size(), sp.entries.size()) << "tree " << i;
    for (size_t e = 0; e < sp.entries.size(); ++e) {
      EXPECT_EQ(pp.entries[e].branch, sp.entries[e].branch) << "tree " << i;
      EXPECT_EQ(pp.entries[e].occurrences, sp.entries[e].occurrences);
    }
  }
}

TEST(ParallelDeterminismTest, RangeQueryIdentical) {
  auto db = SeededDb(80, 2031);
  ThreadPool pool(kWorkers);
  for (const bool filtered : {false, true}) {
    const SimilaritySearch engine(
        db.get(), filtered ? std::make_unique<BiBranchFilter>() : nullptr);
    for (const int tau : {0, 2, 5}) {
      const std::vector<RangeResult> got =
          ConcurrentAnswers(pool, 5, [&](int qi) {
            return engine.Range(db->tree(qi * 7), tau);
          });
      for (int qi = 0; qi < 5; ++qi) {
        const RangeResult s = engine.Range(db->tree(qi * 7), tau);
        const RangeResult& p = got[static_cast<size_t>(qi)];
        EXPECT_EQ(p.matches, s.matches) << "tau=" << tau;
        // Each query counts its own work, so even the counters must agree.
        EXPECT_EQ(Counts(p.stats), Counts(s.stats)) << "tau=" << tau;
      }
    }
  }
}

TEST(ParallelDeterminismTest, KnnIdenticalNeighbors) {
  auto db = SeededDb(80, 2033);
  ThreadPool pool(kWorkers);
  std::vector<Tree> queries;
  for (int qi = 0; qi < 5; ++qi) queries.push_back(db->tree(qi * 11));
  for (const bool filtered : {false, true}) {
    const SimilaritySearch engine(
        db.get(), filtered ? std::make_unique<BiBranchFilter>() : nullptr);
    for (const int k : {1, 3, 10, 200 /* > |D| */}) {
      const BatchKnnResult batch = engine.BatchKnn(queries, k, &pool);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const KnnResult s = engine.Knn(queries[qi], k);
        const KnnResult& p = batch.per_query[qi];
        EXPECT_EQ(p.neighbors, s.neighbors)
            << "k=" << k << " filtered=" << filtered;
        EXPECT_EQ(Counts(p.stats), Counts(s.stats))
            << "k=" << k << " filtered=" << filtered;
      }
    }
  }
}

TEST(ParallelDeterminismTest, BatchKnnMatchesSequentialKnn) {
  auto db = SeededDb(60, 2035);
  ThreadPool pool(kWorkers);
  std::vector<Tree> queries;
  for (int qi = 0; qi < 8; ++qi) queries.push_back(db->tree(qi * 5));

  SimilaritySearch seq(db.get(), std::make_unique<BiBranchFilter>());
  SimilaritySearch par(db.get(), std::make_unique<BiBranchFilter>());
  const int k = 4;
  const BatchKnnResult batch = par.BatchKnn(queries, k, &pool);
  ASSERT_EQ(batch.per_query.size(), queries.size());
  int64_t results = 0;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const KnnResult s = seq.Knn(queries[qi], k);
    EXPECT_EQ(batch.per_query[qi].neighbors, s.neighbors) << "query " << qi;
    EXPECT_EQ(Counts(batch.per_query[qi].stats), Counts(s.stats))
        << "query " << qi;
    results += batch.per_query[qi].stats.results;
  }
  // The merged stats are the sum of the per-query stats.
  EXPECT_EQ(batch.combined.results, results);
  EXPECT_EQ(batch.combined.database_size,
            static_cast<int64_t>(queries.size()) * db->size());
}

TEST(ParallelDeterminismTest, JoinAndSelfJoinIdentical) {
  auto right = SeededDb(40, 2037);
  auto left = std::make_unique<TreeDatabase>(right->label_dict());
  {
    const std::vector<LabelId> pool_ids =
        MakeLabelPool(right->label_dict(), 5);
    Rng rng(2039);
    for (int i = 0; i < 25; ++i) {
      left->Add(RandomTree(rng.UniformInt(1, 16), pool_ids,
                           right->label_dict(), rng));
    }
  }
  ThreadPool pool(kWorkers);
  for (const bool filtered : {false, true}) {
    for (const int tau : {1, 3}) {
      SimilarityJoin seq(
          right.get(),
          filtered ? std::make_unique<BiBranchFilter>() : nullptr);
      SimilarityJoin par(
          right.get(),
          filtered ? std::make_unique<BiBranchFilter>() : nullptr);
      const JoinResult s = seq.Join(*left, tau, nullptr);
      const JoinResult p = par.Join(*left, tau, &pool);
      EXPECT_EQ(p.pairs, s.pairs) << "tau=" << tau;
      EXPECT_EQ(Counts(p.stats), Counts(s.stats)) << "tau=" << tau;

      const JoinResult ss = seq.SelfJoin(tau, nullptr);
      const JoinResult ps = par.SelfJoin(tau, &pool);
      EXPECT_EQ(ps.pairs, ss.pairs) << "self tau=" << tau;
      EXPECT_EQ(Counts(ps.stats), Counts(ss.stats)) << "self tau=" << tau;
    }
  }
}

TEST(ParallelDeterminismTest, BoundedKnnDeterministicUnderTies) {
  // The bounded refine path verifies at the kth-best distance, and
  // candidates clamped at tau_b + 1 must lose every heap-insert tie-break
  // exactly like their true distance would. A tiny label pool over small
  // trees makes most distances collide at the kth value, so any tie
  // mishandling flips a neighbor id. Repeats vary which worker runs which
  // query of the pooled batch.
  auto dict = std::make_shared<LabelDictionary>();
  auto db = std::make_unique<TreeDatabase>(dict);
  const std::vector<LabelId> pool_ids = MakeLabelPool(dict, 2);
  Rng rng(2045);
  for (int i = 0; i < 120; ++i) {
    db->Add(RandomTree(rng.UniformInt(2, 6), pool_ids, dict, rng));
  }
  ThreadPool pool(kWorkers);
  std::vector<Tree> queries;
  for (int qi = 0; qi < 4; ++qi) queries.push_back(db->tree(qi * 17));
  for (const bool filtered : {false, true}) {
    const SimilaritySearch engine(
        db.get(), filtered ? std::make_unique<BiBranchFilter>() : nullptr);
    for (const int k : {1, 5, 40, 120 /* == |D| */}) {
      std::vector<KnnResult> expected;
      for (const Tree& query : queries) expected.push_back(engine.Knn(query, k));
      for (int repeat = 0; repeat < 3; ++repeat) {
        const BatchKnnResult batch = engine.BatchKnn(queries, k, &pool);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          ASSERT_EQ(batch.per_query[qi].neighbors, expected[qi].neighbors)
              << "k=" << k << " filtered=" << filtered
              << " repeat=" << repeat;
          ASSERT_EQ(Counts(batch.per_query[qi].stats),
                    Counts(expected[qi].stats))
              << "k=" << k << " filtered=" << filtered
              << " repeat=" << repeat;
        }
      }
    }
  }
}

TEST(ParallelDeterminismTest, BoundedRangeAndJoinDeterministicUnderTies) {
  // Same tie-heavy corpus through the bounded Range and Join paths: every
  // emitted distance is exact (never the tau + 1 clamp), so results and
  // counters must match the sequential engine byte for byte.
  auto dict = std::make_shared<LabelDictionary>();
  auto db = std::make_unique<TreeDatabase>(dict);
  const std::vector<LabelId> pool_ids = MakeLabelPool(dict, 2);
  Rng rng(2047);
  for (int i = 0; i < 60; ++i) {
    db->Add(RandomTree(rng.UniformInt(2, 6), pool_ids, dict, rng));
  }
  ThreadPool pool(kWorkers);
  const SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  for (const int tau : {0, 1, 3}) {
    const std::vector<RangeResult> got =
        ConcurrentAnswers(pool, 4, [&](int qi) {
          return engine.Range(db->tree(qi * 13), tau);
        });
    for (int qi = 0; qi < 4; ++qi) {
      const RangeResult s = engine.Range(db->tree(qi * 13), tau);
      const RangeResult& p = got[static_cast<size_t>(qi)];
      EXPECT_EQ(p.matches, s.matches) << "tau=" << tau;
      EXPECT_EQ(Counts(p.stats), Counts(s.stats)) << "tau=" << tau;
      for (const auto& [id, d] : p.matches) EXPECT_LE(d, tau);
    }
    SimilarityJoin jseq(db.get(), std::make_unique<BiBranchFilter>());
    SimilarityJoin jpar(db.get(), std::make_unique<BiBranchFilter>());
    const JoinResult s = jseq.SelfJoin(tau, nullptr);
    const JoinResult p = jpar.SelfJoin(tau, &pool);
    EXPECT_EQ(p.pairs, s.pairs) << "tau=" << tau;
    EXPECT_EQ(Counts(p.stats), Counts(s.stats)) << "tau=" << tau;
  }
}

/// `count` random trees over the database's labels "l0".."l4" plus three
/// labels it never saw, so nearly every query has branches its index never
/// interned.
std::vector<Tree> QueriesWithFreshLabels(const TreeDatabase& db, int count,
                                         uint64_t seed) {
  const std::shared_ptr<LabelDictionary>& dict = db.label_dict();
  std::vector<LabelId> labels = MakeLabelPool(dict, 5);
  for (int i = 0; i < 3; ++i) {
    labels.push_back(dict->Intern("fresh" + std::to_string(i)));
  }
  Rng rng(seed);
  std::vector<Tree> queries;
  for (int i = 0; i < count; ++i) {
    queries.push_back(RandomTree(rng.UniformInt(2, 16), labels, dict, rng));
  }
  return queries;
}

TEST(ParallelDeterminismTest, QueriesLeaveTheBranchDictionaryUnchanged) {
  auto db = SeededDb(50, 2049);
  const std::vector<Tree> queries = QueriesWithFreshLabels(*db, 6, 2051);
  auto left = std::make_unique<TreeDatabase>(db->label_dict());
  for (const Tree& query : queries) left->Add(query);
  auto search_filter = std::make_unique<BiBranchFilter>();
  auto join_filter = std::make_unique<BiBranchFilter>();
  const BranchDictionary& search_dict =
      search_filter->inverted_file().branch_dict();
  const BranchDictionary& join_dict =
      join_filter->inverted_file().branch_dict();
  SimilaritySearch search(db.get(), std::move(search_filter));
  SimilarityJoin join(db.get(), std::move(join_filter));
  SimilaritySearch plain_search(db.get(), nullptr);
  SimilarityJoin plain_join(db.get(), nullptr);
  const size_t search_size = search_dict.size();
  const size_t join_size = join_dict.size();
  ThreadPool pool(2);

  for (const Tree& query : queries) {
    EXPECT_EQ(search.Range(query, 3).matches,
              plain_search.Range(query, 3).matches);
    EXPECT_EQ(search.Knn(query, 4).neighbors,
              plain_search.Knn(query, 4).neighbors);
  }
  const BatchKnnResult batch = search.BatchKnn(queries, 4, &pool);
  const BatchKnnResult plain_batch = plain_search.BatchKnn(queries, 4);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(batch.per_query[qi].neighbors,
              plain_batch.per_query[qi].neighbors)
        << "query " << qi;
  }
  EXPECT_EQ(join.Join(*left, 3, &pool).pairs, plain_join.Join(*left, 3).pairs);
  EXPECT_EQ(join.SelfJoin(2, &pool).pairs, plain_join.SelfJoin(2).pairs);
  EXPECT_EQ(search_dict.size(), search_size);
  EXPECT_EQ(join_dict.size(), join_size);
}

TEST(ParallelDeterminismTest, ConcurrentQueriesOnOneEngineMatchSequential) {
  // Eight client threads query one SimilaritySearch and one SimilarityJoin,
  // BatchKnn and Join on one shared 2-worker pool, with query trees whose
  // branches the index never interned: a query that wrote the index would
  // race with the others here. The concurrent round runs first, so no
  // sequential query can have written such a branch before it.
  auto db = SeededDb(60, 2053);
  const std::vector<Tree> queries = QueriesWithFreshLabels(*db, 6, 2055);
  auto left = std::make_unique<TreeDatabase>(db->label_dict());
  for (const Tree& query : queries) left->Add(query);
  auto search_filter = std::make_unique<BiBranchFilter>();
  const BranchDictionary& dict = search_filter->inverted_file().branch_dict();
  SimilaritySearch search(db.get(), std::move(search_filter));
  SimilarityJoin join(db.get(), std::make_unique<BiBranchFilter>());
  const size_t built_size = dict.size();

  struct Answers {
    std::vector<std::vector<std::pair<int, int>>> lists;
    std::vector<std::tuple<int, int, int>> join;
    std::vector<std::vector<int64_t>> counts;  ///< per answer, join last
  };
  // One client's mix; clients start at different queries.
  const auto ask = [&](int client, ThreadPool* pool) {
    Answers out;
    const auto keep = [&out](const auto& ids, const QueryStats& stats) {
      out.lists.push_back(ids);
      out.counts.push_back(Counts(stats));
    };
    for (size_t i = 0; i < queries.size(); ++i) {
      const Tree& query =
          queries[(i + static_cast<size_t>(client)) % queries.size()];
      const RangeResult range = search.Range(query, 3);
      keep(range.matches, range.stats);
      const KnnResult knn = search.Knn(query, 3);
      keep(knn.neighbors, knn.stats);
    }
    for (const KnnResult& r : search.BatchKnn(queries, 4, pool).per_query) {
      keep(r.neighbors, r.stats);
    }
    const JoinResult joined = join.Join(*left, 2, pool);
    out.join = joined.pairs;
    out.counts.push_back(Counts(joined.stats));
    return out;
  };
  std::vector<Answers> got(kWorkers);
  ThreadPool shared(2);
  ThreadPool clients(kWorkers);
  clients.ParallelFor(kWorkers, [&](int64_t client) {
    got[static_cast<size_t>(client)] = ask(static_cast<int>(client), &shared);
  });
  for (int client = 0; client < kWorkers; ++client) {
    const Answers expected = ask(client, nullptr);
    EXPECT_EQ(got[static_cast<size_t>(client)].lists, expected.lists)
        << client;
    EXPECT_EQ(got[static_cast<size_t>(client)].join, expected.join) << client;
    EXPECT_EQ(got[static_cast<size_t>(client)].counts, expected.counts)
        << client;
  }
  EXPECT_EQ(dict.size(), built_size);
}

TEST(ParallelDeterminismTest, TinyInputsTakeTheSequentialPath) {
  // ClampThreads collapses tiny workloads to one worker; the engines must
  // also behave with a pool larger than the input.
  auto db = SeededDb(2, 2041);
  ThreadPool pool(kWorkers);
  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  const KnnResult s = engine.Knn(db->tree(0), 1);
  const BatchKnnResult p = engine.BatchKnn({db->tree(0)}, 1, &pool);
  ASSERT_EQ(p.per_query.size(), 1u);
  EXPECT_EQ(p.per_query[0].neighbors, s.neighbors);
  EXPECT_EQ(Counts(p.combined), Counts(s.stats));

  const PairwiseDistances one =
      ComputePairwiseDistances(*SeededDb(1, 2043), kWorkers);
  EXPECT_EQ(one.size(), 1);

  InvertedFileIndex empty(2);
  empty.AddAll({});
  EXPECT_EQ(empty.tree_count(), 0);
}

}  // namespace
}  // namespace treesim
