// End-to-end corpus pipeline, shaped like the paper's DBLP experiment:
// a DBLP-style XML dump is written to disk, imported into a record forest
// (one tree per bibliographic entry), indexed, and queried — exactly the
// steps a user with the real dblp.xml would follow.
//
//   ./xml_corpus_pipeline [--records=300] [--k=5] [--seed=3]
#include <cstdio>
#include <memory>
#include <string>

#include "treesim.h"
#include "xml/xml_corpus.h"

namespace {

using namespace treesim;  // example code; the library never does this

/// Renders DBLP-like records (from the generator) as one corpus XML
/// document — the inverse of the import step, standing in for dblp.xml.
std::string MakeCorpusXml(const std::vector<Tree>& records) {
  std::string xml = "<?xml version=\"1.0\"?>\n<dblp>\n";
  for (const Tree& r : records) xml += ToXml(r);
  xml += "</dblp>\n";
  return xml;
}

int Run(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int records = static_cast<int>(flags.GetInt("records", 300));
  const int k = static_cast<int>(flags.GetInt("k", 5));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 3));
  const std::string corpus_path = "/tmp/treesim_example_corpus.xml";

  // 1. Produce a corpus file (a stand-in for the real dblp.xml).
  {
    auto gen_labels = std::make_shared<LabelDictionary>();
    DblpGenerator gen(DblpParams{}, gen_labels, seed);
    const Status saved =
        WriteStringToFile(MakeCorpusXml(gen.Generate(records)), corpus_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "write failed: %s\n", saved.ToString().c_str());
      return 1;
    }
  }
  std::printf("wrote %d records to %s\n", records, corpus_path.c_str());

  // 2. Import: parse the document, split one tree per record element.
  auto labels = std::make_shared<LabelDictionary>();
  StatusOr<std::vector<Tree>> imported = LoadXmlCorpus(corpus_path, labels);
  if (!imported.ok()) {
    std::fprintf(stderr, "import failed: %s\n",
                 imported.status().ToString().c_str());
    return 1;
  }
  auto db = std::make_unique<TreeDatabase>(labels);
  db->AddAll(std::move(imported).value());
  std::printf("imported %d records (avg %.1f nodes, %zu distinct labels)\n",
              db->size(), db->AverageTreeSize(), labels->size());

  // 3. Query: pick a record, corrupt it, and look for its neighborhood.
  Rng rng(seed + 1);
  std::vector<LabelId> pool;
  for (LabelId l = 1; l < labels->id_bound(); ++l) pool.push_back(l);
  const int victim = static_cast<int>(
      rng.UniformIndex(static_cast<size_t>(db->size())));
  const NoisyTree query = ApplyRandomEdits(db->tree(victim), 2, pool, rng);
  std::printf("\nquery = record #%d with 2 random edits:\n  %s\n", victim,
              ToBracket(query.tree).c_str());

  SimilaritySearch engine(db.get(), std::make_unique<BiBranchFilter>());
  const KnnResult knn = engine.Knn(query.tree, k);
  std::printf("%d-NN (refined %lld of %d records):\n", k,
              static_cast<long long>(knn.stats.candidates),
              db->size());
  for (const auto& [id, dist] : knn.neighbors) {
    std::printf("  #%-4d d=%d%s %s\n", id, dist,
                id == victim ? " <- original" : "          ",
                ToBracket(db->tree(id)).c_str());
  }
  std::remove(corpus_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
