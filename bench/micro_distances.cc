// Microbenchmark behind the paper's motivation (Sections 1 and 5): the
// exact tree edit distance costs O(|T1||T2| * kr^2) while the binary branch
// lower bound costs O(|T1| + |T2|) — the gap that makes filter-and-refine
// worthwhile grows quadratically with tree size. The bounded refine kernel
// is timed on the two kinds of pair a verifier meets: a filter survivor a
// few edits away, and an unrelated tree it must reject.
#include <algorithm>
#include <memory>
#include <vector>

#include "benchmark/benchmark.h"
#include "micro_report.h"
#include "core/branch_profile.h"
#include "core/positional.h"
#include "datagen/edit_noise.h"
#include "datagen/synthetic_generator.h"
#include "filters/histogram_filter.h"
#include "ted/bounded_ted.h"
#include "ted/naive_ted.h"
#include "ted/zhang_shasha.h"
#include "util/random.h"

namespace treesim {
namespace {

SyntheticParams ParamsForSize(int size) {
  SyntheticParams p;
  p.size_mean = size;
  p.size_stddev = size / 25.0 + 1;
  p.label_count = 8;
  return p;
}

class TreePairFixture : public benchmark::Fixture {
 public:
  void SetUp(const ::benchmark::State& state) override {
    const int size = static_cast<int>(state.range(0));
    labels_ = std::make_shared<LabelDictionary>();
    SyntheticGenerator gen(ParamsForSize(size), labels_, 17);
    a_ = std::make_unique<Tree>(gen.GenerateSeedTree());
    b_ = std::make_unique<Tree>(gen.GenerateSeedTree());
    va_ = std::make_unique<TedTree>(TedTree::FromTree(*a_));
    vb_ = std::make_unique<TedTree>(TedTree::FromTree(*b_));
  }
  void TearDown(const ::benchmark::State&) override {
    va_.reset();
    vb_.reset();
    a_.reset();
    b_.reset();
    labels_.reset();
  }

 protected:
  std::shared_ptr<LabelDictionary> labels_;
  std::unique_ptr<Tree> a_, b_;
  std::unique_ptr<TedTree> va_, vb_;
};

BENCHMARK_DEFINE_F(TreePairFixture, ZhangShasha)(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TreeEditDistance(*va_, *vb_));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, ZhangShasha)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Arg(125)
    ->Arg(250);

BENCHMARK_DEFINE_F(TreePairFixture, ZhangShashaWeighted)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        TreeEditDistanceWeighted(*va_, *vb_, UnitCostModel::Get()));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, ZhangShashaWeighted)->Arg(50);

BENCHMARK_DEFINE_F(TreePairFixture, NaiveMemoizedTed)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveTreeEditDistance(*a_, *b_));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, NaiveMemoizedTed)->Arg(10)->Arg(25);

BENCHMARK_DEFINE_F(TreePairFixture, BranchLowerBoundEndToEnd)
(benchmark::State& state) {
  // Includes profile extraction — the cost a one-shot comparison pays.
  for (auto _ : state) {
    BranchDictionary dict(2);
    const BranchProfile pa = BranchProfile::FromTree(*a_, dict);
    const BranchProfile pb = BranchProfile::FromTree(*b_, dict);
    benchmark::DoNotOptimize(OptimisticBound(pa, pb));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, BranchLowerBoundEndToEnd)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Arg(125)
    ->Arg(250);

BENCHMARK_DEFINE_F(TreePairFixture, HistogramBoundEndToEnd)
(benchmark::State& state) {
  HistogramFilter filter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.Bound(filter.ExtractFeatures(*a_),
                                          filter.ExtractFeatures(*b_)));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, HistogramBoundEndToEnd)
    ->Arg(50)
    ->Arg(250);

BENCHMARK_DEFINE_F(TreePairFixture, TedViewConstruction)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(TedTree::FromTree(*a_));
  }
}
BENCHMARK_REGISTER_F(TreePairFixture, TedViewConstruction)->Arg(50)->Arg(250);

/// First tree `draw` returns with exactly `size` nodes. The bounded pairs
/// are drawn at equal size so the kernel's size-difference check never
/// answers for it and every case times the banded DP.
template <typename Draw>
Tree DrawOfSize(int size, Draw draw) {
  for (;;) {
    Tree t = draw();
    if (t.size() == size) return t;
  }
}

/// Args: (tree size, tau). `close_` is a seed tree and a 3-edit mutation
/// of it; `far_` is the same seed tree and one grown from another
/// generator seed.
class BoundedPairFixture : public benchmark::Fixture {
 public:
  void SetUp(const ::benchmark::State& state) override {
    const int size = static_cast<int>(state.range(0));
    labels_ = std::make_shared<LabelDictionary>();
    SyntheticGenerator gen(ParamsForSize(size), labels_, 17);
    const Tree a = gen.GenerateSeedTree();
    std::vector<LabelId> pool;
    for (NodeId n = 0; n < a.size(); ++n) pool.push_back(a.label(n));
    std::sort(pool.begin(), pool.end());
    pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
    Rng rng(19);
    const Tree near = DrawOfSize(a.size(), [&] {
      return ApplyRandomEdits(a, 3, pool, rng).tree;
    });
    SyntheticGenerator other(ParamsForSize(size), labels_, 18);
    const Tree far =
        DrawOfSize(a.size(), [&] { return other.GenerateSeedTree(); });
    a_ = std::make_unique<TedTree>(TedTree::FromTree(a));
    close_ = std::make_unique<TedTree>(TedTree::FromTree(near));
    far_ = std::make_unique<TedTree>(TedTree::FromTree(far));
  }
  void TearDown(const ::benchmark::State&) override {
    a_.reset();
    close_.reset();
    far_.reset();
    labels_.reset();
  }

 protected:
  std::shared_ptr<LabelDictionary> labels_;
  std::unique_ptr<TedTree> a_, close_, far_;
};

BENCHMARK_DEFINE_F(BoundedPairFixture, BoundedZhangShashaClose)
(benchmark::State& state) {
  const int tau = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedTreeEditDistance(*a_, *close_, tau));
  }
}
BENCHMARK_REGISTER_F(BoundedPairFixture, BoundedZhangShashaClose)
    ->Args({50, 2})
    ->Args({50, 8})
    ->Args({125, 2})
    ->Args({125, 8});

BENCHMARK_DEFINE_F(BoundedPairFixture, BoundedZhangShashaFar)
(benchmark::State& state) {
  const int tau = static_cast<int>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(BoundedTreeEditDistance(*a_, *far_, tau));
  }
}
BENCHMARK_REGISTER_F(BoundedPairFixture, BoundedZhangShashaFar)
    ->Args({50, 2})
    ->Args({50, 8})
    ->Args({125, 2})
    ->Args({125, 8});

}  // namespace
}  // namespace treesim

int main(int argc, char** argv) {
  return treesim::bench::MicroBenchMain(argc, argv, "micro_distances");
}
