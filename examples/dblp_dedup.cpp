// Near-duplicate detection in bibliographic data (the paper's data
// cleansing / data integration motivation): generate a DBLP-like corpus,
// inject corrupted duplicates of some records (typo'd values, dropped or
// added fields), then recover them with k-NN queries — comparing how much
// of the corpus each filter has to verify with the exact edit distance.
//
//   ./dblp_dedup [--records=1000] [--duplicates=25] [--seed=7]
#include <cstdio>
#include <memory>
#include <set>
#include <vector>

#include "treesim.h"

namespace {

using namespace treesim;  // example code; the library never does this

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 1000));
  const int duplicates = static_cast<int>(flags.GetInt("duplicates", 25));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  auto labels = std::make_shared<LabelDictionary>();
  DblpGenerator gen(DblpParams{}, labels, seed);
  std::vector<Tree> corpus = gen.Generate(records);

  // Corrupt `duplicates` random records with 1-2 random edits each and
  // append the corrupted copies (id >= records).
  Rng rng(seed + 1);
  std::vector<LabelId> pool;
  for (LabelId l = 1; l < labels->id_bound(); ++l) pool.push_back(l);
  std::vector<int> original_of;  // duplicate index -> original id
  for (int d = 0; d < duplicates; ++d) {
    const int victim = static_cast<int>(rng.UniformIndex(corpus.size()));
    const NoisyTree noisy =
        ApplyRandomEdits(corpus[static_cast<size_t>(victim)],
                         rng.UniformInt(1, 2), pool, rng);
    corpus.push_back(noisy.tree);
    original_of.push_back(victim);
  }

  auto db = std::make_unique<TreeDatabase>(labels);
  db->AddAll(std::move(corpus));
  std::printf("corpus: %d records + %d corrupted duplicates\n\n", records,
              duplicates);

  SimilaritySearch bibranch(db.get(), std::make_unique<BiBranchFilter>());
  SimilaritySearch histo(db.get(), std::make_unique<HistogramFilter>());

  // For every corrupted duplicate, ask for its nearest non-self neighbor;
  // dedup succeeds when that neighbor is the original record.
  int recovered = 0;
  QueryStats bb_stats;
  QueryStats hi_stats;
  for (int d = 0; d < duplicates; ++d) {
    const int dup_id = records + d;
    const KnnResult bb = bibranch.Knn(db->tree(dup_id), 2);
    bb_stats += bb.stats;
    hi_stats += histo.Knn(db->tree(dup_id), 2).stats;
    for (const auto& [id, dist] : bb.neighbors) {
      if (id == dup_id) continue;  // itself at distance 0
      if (id == original_of[static_cast<size_t>(d)]) ++recovered;
      std::printf("duplicate %2d -> nearest record %4d (distance %d)%s\n", d,
                  id, dist,
                  id == original_of[static_cast<size_t>(d)] ? "" : "  [MISS]");
      break;
    }
  }
  std::printf("\nrecovered %d/%d originals\n", recovered, duplicates);
  std::printf("exact-distance verifications per query: BiBranch %.1f, "
              "Histo %.1f (of %d records)\n",
              static_cast<double>(bb_stats.candidates) / duplicates,
              static_cast<double>(hi_stats.candidates) / duplicates,
              db->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
