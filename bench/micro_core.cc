// Microbenchmarks for the core embedding machinery, checking the complexity
// claims of Section 4.4: vector construction is linear in the total number
// of nodes, the binary branch distance is linear in the profile sizes, and
// the optimistic bound search adds only a log factor.
#include <memory>
#include <vector>

#include "benchmark/benchmark.h"
#include "micro_report.h"
#include "core/branch_profile.h"
#include "core/inverted_file.h"
#include "core/positional.h"
#include "datagen/synthetic_generator.h"

namespace treesim {
namespace {

SyntheticParams ParamsForSize(int size) {
  SyntheticParams p;
  p.size_mean = size;
  p.size_stddev = size / 25.0 + 1;
  p.label_count = 8;
  return p;
}

void BM_ProfileConstruction(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  auto labels = std::make_shared<LabelDictionary>();
  SyntheticGenerator gen(ParamsForSize(size), labels, 7);
  const Tree t = gen.GenerateSeedTree();
  BranchDictionary dict(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BranchProfile::FromTree(t, dict));
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_ProfileConstruction)->Arg(25)->Arg(50)->Arg(125)->Arg(500);

void BM_ProfileConstructionQ(benchmark::State& state) {
  const int q = static_cast<int>(state.range(0));
  auto labels = std::make_shared<LabelDictionary>();
  SyntheticGenerator gen(ParamsForSize(50), labels, 7);
  const Tree t = gen.GenerateSeedTree();
  BranchDictionary dict(q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BranchProfile::FromTree(t, dict));
  }
}
BENCHMARK(BM_ProfileConstructionQ)->Arg(2)->Arg(3)->Arg(4);

void BM_InvertedFileBuild(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  auto labels = std::make_shared<LabelDictionary>();
  SyntheticGenerator gen(ParamsForSize(50), labels, 7);
  const std::vector<Tree> trees = gen.GenerateDataset(count);
  for (auto _ : state) {
    InvertedFileIndex index(2);
    index.AddAll(trees);
    benchmark::DoNotOptimize(index.profiles().data());
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_InvertedFileBuild)->Arg(100)->Arg(500)->Arg(2000);

class ProfilePairFixture : public benchmark::Fixture {
 public:
  void SetUp(const ::benchmark::State& state) override {
    const int size = static_cast<int>(state.range(0));
    auto labels = std::make_shared<LabelDictionary>();
    SyntheticGenerator gen(ParamsForSize(size), labels, 11);
    dict_ = std::make_unique<BranchDictionary>(2);
    a_ = std::make_unique<BranchProfile>(
        BranchProfile::FromTree(gen.GenerateSeedTree(), *dict_));
    b_ = std::make_unique<BranchProfile>(
        BranchProfile::FromTree(gen.GenerateSeedTree(), *dict_));
  }
  void TearDown(const ::benchmark::State&) override {
    a_.reset();
    b_.reset();
    dict_.reset();
  }

 protected:
  std::unique_ptr<BranchDictionary> dict_;
  std::unique_ptr<BranchProfile> a_, b_;
};

BENCHMARK_DEFINE_F(ProfilePairFixture, BranchDistance)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(BranchDistance(*a_, *b_));
  }
}
BENCHMARK_REGISTER_F(ProfilePairFixture, BranchDistance)
    ->Arg(25)
    ->Arg(50)
    ->Arg(125)
    ->Arg(500);

BENCHMARK_DEFINE_F(ProfilePairFixture, PositionalDistance)
(benchmark::State& state) {
  const int pr = static_cast<int>(state.range(0)) / 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PositionalBranchDistance(*a_, *b_, pr));
  }
}
BENCHMARK_REGISTER_F(ProfilePairFixture, PositionalDistance)
    ->Arg(25)
    ->Arg(50)
    ->Arg(125)
    ->Arg(500);

BENCHMARK_DEFINE_F(ProfilePairFixture, OptimisticBound)
(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(OptimisticBound(*a_, *b_));
  }
}
BENCHMARK_REGISTER_F(ProfilePairFixture, OptimisticBound)
    ->Arg(25)
    ->Arg(50)
    ->Arg(125)
    ->Arg(500);

}  // namespace
}  // namespace treesim

int main(int argc, char** argv) {
  return treesim::bench::MicroBenchMain(argc, argv, "micro_core");
}
