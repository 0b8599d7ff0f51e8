// RNA secondary structure classification — the paper's computational
// biology motivation ("efficient prediction of the functions of RNA
// molecules"). RNA secondary structures are rooted ordered trees over
// structural elements (P = paired stem, H = hairpin loop, B = bulge,
// I = internal loop, M = multibranch loop). We synthesize three structural
// families (tRNA-like cloverleaf, miRNA-like long hairpin, rRNA-fragment-
// like multibranch), derive noisy members, and classify held-out structures
// by 1-NN tree edit distance — with the binary branch filter skipping most
// exact distance computations.
//
//   ./rna_classification [--train=60] [--test=30] [--noise=3] [--seed=5]
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "treesim.h"

namespace {

using namespace treesim;  // example code; the library never does this

struct Family {
  std::string name;
  std::string prototype;  // bracket notation
};

const Family kFamilies[] = {
    // Cloverleaf: multibranch loop with four stems, each ending in a
    // hairpin, like tRNA.
    {"tRNA-like",
     "M{P{P{P{H}}} P{P{H}} P{P{B{P{H}}}} P{P{P{H}}}}"},
    // One long interrupted stem ending in a hairpin, like a miRNA precursor.
    {"miRNA-like",
     "P{P{B{P{P{I{P{P{B{P{H}}}}}}}}}}"},
    // Nested multibranch of multibranches, like an rRNA domain fragment.
    {"rRNA-like",
     "M{P{M{P{H} P{B{P{H}}}}} P{I{P{M{P{H} P{H} P{H}}}}}}"},
};

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int train_per_family = static_cast<int>(flags.GetInt("train", 60));
  const int test_per_family = static_cast<int>(flags.GetInt("test", 30));
  const int noise = static_cast<int>(flags.GetInt("noise", 3));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 5));

  auto labels = std::make_shared<LabelDictionary>();
  const std::vector<LabelId> element_pool = {
      labels->Intern("P"), labels->Intern("H"), labels->Intern("B"),
      labels->Intern("I"), labels->Intern("M")};

  Rng rng(seed);
  auto db = std::make_unique<TreeDatabase>(labels);
  std::vector<int> family_of_tree;  // tree id -> family index
  std::vector<Tree> prototypes;
  for (const Family& family : kFamilies) {
    prototypes.push_back(*ParseBracket(family.prototype, labels));
  }

  for (size_t f = 0; f < std::size(kFamilies); ++f) {
    for (int i = 0; i < train_per_family; ++i) {
      const NoisyTree member = ApplyRandomEdits(
          prototypes[f], rng.UniformInt(0, noise), element_pool, rng);
      db->Add(member.tree);
      family_of_tree.push_back(static_cast<int>(f));
    }
  }
  std::printf("reference database: %d structures, 3 families "
              "(avg %.1f elements)\n",
              db->size(), db->AverageTreeSize());

  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());

  int correct = 0;
  int total = 0;
  QueryStats stats;
  std::map<std::string, int> confusion;
  for (size_t f = 0; f < std::size(kFamilies); ++f) {
    for (int i = 0; i < test_per_family; ++i) {
      const NoisyTree query = ApplyRandomEdits(
          prototypes[f], rng.UniformInt(1, noise + 1), element_pool, rng);
      const KnnResult knn = engine.Knn(query.tree, 1);
      stats += knn.stats;
      const int predicted =
          family_of_tree[static_cast<size_t>(knn.neighbors[0].first)];
      ++total;
      if (predicted == static_cast<int>(f)) {
        ++correct;
      } else {
        ++confusion[kFamilies[f].name + " -> " +
                    kFamilies[static_cast<size_t>(predicted)].name];
      }
    }
  }

  std::printf("1-NN classification accuracy: %d/%d (%.1f%%)\n", correct,
              total, 100.0 * correct / total);
  for (const auto& [pair, count] : confusion) {
    std::printf("  confused %s x%d\n", pair.c_str(), count);
  }
  std::printf("exact edit distances computed per query: %.1f of %d "
              "(filter pruned %.1f%%)\n",
              static_cast<double>(stats.candidates) / total,
              db->size(),
              100.0 * (1.0 - stats.AccessedFraction()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
