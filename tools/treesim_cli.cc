// treesim — command-line front end for the tree similarity library.
//
// Subcommands:
//   generate   synthesize a dataset and write it as a bracket forest file
//   import     split an XML corpus document into a record forest file
//   stats      print shape statistics of a forest file
//   distance   exact and lower-bound distances between two bracket trees
//   mapping    optimal edit mapping + diff between two bracket trees
//   patch      minimal operation sequence transforming one tree into another
//   range      range query against a forest file
//   knn        k-NN query against a forest file
//   join       self similarity join of a forest file
//   cluster    k-medoids clustering of a forest file
//
// Run `treesim_cli` with no arguments for usage. A flag the command does
// not read is an error (exit 1), not a silent default.
#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/branch_profile.h"
#include "core/positional.h"
#include "datagen/dblp_generator.h"
#include "datagen/synthetic_generator.h"
#include "filters/bibranch_filter.h"
#include "filters/histogram_filter.h"
#include "filters/sequence_filter.h"
#include "search/clustering.h"
#include "search/similarity_join.h"
#include "search/similarity_search.h"
#include "ted/edit_mapping.h"
#include "ted/edit_script_synthesis.h"
#include "ted/tree_diff.h"
#include "tree/bracket.h"
#include "tree/forest_io.h"
#include "tree/traversal.h"
#include "util/build_info.h"
#include "util/flags.h"
#include "util/flight_recorder.h"
#include "util/metrics.h"
#include "util/query_context.h"
#include "util/structured_log.h"
#include "util/thread_pool.h"
#include "util/trace.h"
#include "util/triage.h"
#include "xml/xml_corpus.h"

namespace treesim {
namespace cli {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: treesim_cli <command> [--flags]\n"
               "\n"
               "commands:\n"
               "  generate --kind=synthetic|dblp --count=N --out=FILE\n"
               "           [--size=50] [--fanout=4] [--labels=8] "
               "[--decay=0.05] [--seed=1]\n"
               "  import   --xml=FILE --out=FILE [--structure-only]\n"
               "           (splits a corpus document, e.g. a DBLP dump, "
               "into one tree per record)\n"
               "  stats    --data=FILE\n"
               "  distance --a=TREE --b=TREE [--q=2]\n"
               "  mapping  --a=TREE --b=TREE\n"
               "  patch    --a=TREE --b=TREE   (minimal operation sequence "
               "a -> b)\n"
               "  range    --data=FILE --query=TREE --tau=N "
               "[--filter=bibranch|histo|seq|none]\n"
               "  knn      --data=FILE --query=TREE --k=N "
               "[--filter=bibranch|histo|seq|none]\n"
               "  join     --data=FILE --tau=N [--filter=...] [--threads=1]\n"
               "  cluster  --data=FILE --k=N [--seed=1]\n"
               "\n"
               "TREE arguments use bracket notation, e.g. 'a{b{c d} e}'.\n"
               "range and knn run one query on one thread. join's\n"
               "--threads=N probes left trees on N workers (0 = every\n"
               "hardware thread); results are identical for any count.\n"
               "\n"
               "observability (any command):\n"
               "  --metrics=text|json|prometheus\n"
               "                        dump every pipeline counter, gauge\n"
               "                        and histogram on exit (prometheus =\n"
               "                        text exposition format 0.0.4)\n"
               "  --metrics-out=FILE    write the --metrics dump to FILE\n"
               "                        instead of stdout\n"
               "  --query-log=FILE      append one JSON line per query\n"
               "                        (range/knn/join) to FILE\n"
               "  --slow-query-ms=N     with --query-log, only log queries\n"
               "                        taking >= N ms\n"
               "  --trace=FILE          record per-stage spans and write\n"
               "                        chrome://tracing JSON to FILE\n"
               "  --flight-recorder=N   keep the last N completed query\n"
               "                        records in memory and print them\n"
               "                        after the command\n"
               "  --triage-dir=DIR      directory for crash-time triage\n"
               "                        dumps (default: current directory;\n"
               "                        render with tools/triage_report.py)\n"
               "(query log, trace and flight recorder are no-ops when built\n"
               "with -DTREESIM_METRICS=OFF)\n"
               "\n"
               "treesim_cli --version prints build provenance.\n");
  return 2;
}

int PrintVersion() {
  std::printf("treesim_cli\n");
  std::printf("git_sha %s%s\n", build_info::kGitSha,
              build_info::kGitDirty ? " (dirty)" : "");
  std::printf("build_type %s\n", build_info::kBuildType);
  std::printf("compiler %s\n", build_info::kCompiler);
  std::printf("metrics %s\n", kMetricsEnabled ? "on" : "off");
  return 0;
}

/// The filter `--filter` names (bibranch by default); none is no filter.
/// Main checks the name (CheckArguments) before any command runs, so the
/// commands take the value directly.
StatusOr<std::unique_ptr<FilterIndex>> MakeFilter(const FlagParser& flags) {
  const std::string name = flags.GetString("filter", "bibranch");
  if (name == "bibranch") return {std::make_unique<BiBranchFilter>()};
  if (name == "histo") return {std::make_unique<HistogramFilter>()};
  if (name == "seq") return {std::make_unique<SequenceFilter>()};
  if (name == "none") return {std::unique_ptr<FilterIndex>()};
  return Status::InvalidArgument("unknown --filter '" + name +
                                 "' (want bibranch|histo|seq|none)");
}

StatusOr<std::unique_ptr<TreeDatabase>> LoadDatabase(
    const std::string& path, std::shared_ptr<LabelDictionary> labels) {
  TREESIM_ASSIGN_OR_RETURN(std::vector<Tree> forest,
                           LoadForest(path, labels));
  if (forest.empty()) {
    return Status::InvalidArgument(path + " contains no trees");
  }
  auto db = std::make_unique<TreeDatabase>(labels);
  db->AddAll(std::move(forest));
  return db;
}

StatusOr<Tree> ParseTreeFlag(const FlagParser& flags, const std::string& key,
                             std::shared_ptr<LabelDictionary> labels) {
  const std::string text = flags.GetString(key, "");
  if (text.empty()) {
    return Status::InvalidArgument("missing required flag --" + key);
  }
  return ParseBracket(text, std::move(labels));
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr int64_t kInt64Max = std::numeric_limits<int64_t>::max();

/// `--key=N` as an integer in [lo, hi], or `def` when the flag is absent.
/// Every integer flag is read through here: a value that is not an integer
/// or lies outside the flag's domain is an InvalidArgument, so it never
/// reaches a library precondition or wraps in a narrowing conversion.
template <typename T>
StatusOr<T> IntFlag(const FlagParser& flags, const std::string& key, T def,
                    T lo, T hi) {
  if (!flags.Has(key)) return def;
  const std::string text = flags.GetString(key, "");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || value < lo ||
      value > hi) {
    return Status::InvalidArgument(
        "--" + key + "=" + text + " is not an integer in [" +
        std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return static_cast<T>(value);
}

/// `--key=X` as a real number in [lo, hi], or `def` when the flag is
/// absent. Every real-valued flag is read through here, for the reason
/// IntFlag exists: text that is not a number, NaN, an infinity or a value
/// outside the flag's domain is an InvalidArgument, so it never reaches a
/// library precondition or an undefined float-to-int conversion.
StatusOr<double> RealFlag(const FlagParser& flags, const std::string& key,
                          double def, double lo, double hi) {
  if (!flags.Has(key)) return def;
  const std::string text = flags.GetString(key, "");
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // The range test is false for NaN and, with finite bounds, for +-inf.
  if (text.empty() || *end != '\0' || !(value >= lo && value <= hi)) {
    char domain[64];
    std::snprintf(domain, sizeof(domain), "[%.17g, %.17g]", lo, hi);
    return Status::InvalidArgument("--" + key + "=" + text +
                                   " is not a number in " + domain);
  }
  return value;
}

/// Pool for join's `--threads=N` (0 = every hardware thread). Holds
/// nullptr — the join's inline path — when one worker would be enough for
/// `items` units of work.
StatusOr<std::unique_ptr<ThreadPool>> MakePool(const FlagParser& flags,
                                               int64_t items) {
  const StatusOr<int> threads = IntFlag(flags, "threads", 1, 0, kIntMax);
  if (!threads.ok()) return threads.status();
  const int effective = ClampThreads(*threads, items);
  if (effective <= 1) return std::unique_ptr<ThreadPool>();
  return std::make_unique<ThreadPool>(effective);
}

int CmdGenerate(const FlagParser& flags) {
  const std::string kind = flags.GetString("kind", "synthetic");
  const StatusOr<int> count = IntFlag(flags, "count", 1000, 1, kIntMax);
  if (!count.ok()) return Fail(count.status());
  const std::string out = flags.GetString("out", "");
  const StatusOr<int64_t> seed =
      IntFlag<int64_t>(flags, "seed", 1, 0, kInt64Max);
  if (!seed.ok()) return Fail(seed.status());
  if (out.empty()) return Fail(Status::InvalidArgument("missing --out"));

  auto labels = std::make_shared<LabelDictionary>();
  std::vector<Tree> forest;
  if (kind == "synthetic") {
    const StatusOr<int> label_count = IntFlag(flags, "labels", 8, 1, kIntMax);
    if (!label_count.ok()) return Fail(label_count.status());
    // The generator draws sizes and fanouts as ints clamped to these
    // ranges (Rng::NormalInt), and decay is a probability.
    constexpr double kMaxDraw = 1 << 20;
    const StatusOr<double> size = RealFlag(flags, "size", 50, 1, kMaxDraw);
    if (!size.ok()) return Fail(size.status());
    const StatusOr<double> fanout = RealFlag(flags, "fanout", 4, 0, kMaxDraw);
    if (!fanout.ok()) return Fail(fanout.status());
    const StatusOr<double> decay = RealFlag(flags, "decay", 0.05, 0, 1);
    if (!decay.ok()) return Fail(decay.status());
    SyntheticParams params;
    params.size_mean = *size;
    params.fanout_mean = *fanout;
    params.label_count = *label_count;
    params.decay = *decay;
    SyntheticGenerator gen(params, labels, static_cast<uint64_t>(*seed));
    forest = gen.GenerateDataset(*count);
    std::printf("generated %d trees (%s)\n", *count,
                params.ToString().c_str());
  } else if (kind == "dblp") {
    DblpGenerator gen(DblpParams{}, labels, static_cast<uint64_t>(*seed));
    forest = gen.Generate(*count);
    std::printf("generated %d DBLP-like records\n", *count);
  } else {
    return Fail(Status::InvalidArgument("unknown --kind '" + kind + "'"));
  }
  const Status saved = SaveForest(forest, out);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int CmdImport(const FlagParser& flags) {
  const std::string xml_path = flags.GetString("xml", "");
  const std::string out = flags.GetString("out", "");
  if (xml_path.empty() || out.empty()) {
    return Fail(Status::InvalidArgument("need --xml and --out"));
  }
  // Checked as IntFlag checks numbers: a misspelt value is an error.
  const std::string structure_only = flags.GetString("structure-only", "0");
  bool ignore_text = false;
  if (!ParseBoolFlag(structure_only, &ignore_text)) {
    return Fail(Status::InvalidArgument(
        "--structure-only=" + structure_only +
        " is not one of true|false|yes|no|1|0"));
  }
  auto labels = std::make_shared<LabelDictionary>();
  XmlParseOptions options;
  if (ignore_text) options.text_mode = XmlParseOptions::TextMode::kIgnore;
  auto records = LoadXmlCorpus(xml_path, labels, options);
  if (!records.ok()) return Fail(records.status());
  const Status saved = SaveForest(*records, out);
  if (!saved.ok()) return Fail(saved);
  std::printf("imported %zu records from %s into %s\n", records->size(),
              xml_path.c_str(), out.c_str());
  return 0;
}

int CmdStats(const FlagParser& flags) {
  auto labels = std::make_shared<LabelDictionary>();
  auto db_or = LoadDatabase(flags.GetString("data", ""), labels);
  if (!db_or.ok()) return Fail(db_or.status());
  const TreeDatabase& db = **db_or;

  int64_t nodes = 0;
  int64_t leaves = 0;
  int64_t height_total = 0;
  int min_size = db.tree(0).size();
  int max_size = 0;
  for (int i = 0; i < db.size(); ++i) {
    const Tree& t = db.tree(i);
    nodes += t.size();
    leaves += LeafCount(t);
    height_total += TreeHeight(t);
    min_size = std::min(min_size, t.size());
    max_size = std::max(max_size, t.size());
  }
  std::printf("trees:           %d\n", db.size());
  std::printf("total nodes:     %lld\n", static_cast<long long>(nodes));
  std::printf("avg size:        %.2f (min %d, max %d)\n",
              static_cast<double>(nodes) / db.size(), min_size, max_size);
  std::printf("avg height:      %.2f\n",
              static_cast<double>(height_total) / db.size());
  std::printf("avg leaves:      %.2f\n",
              static_cast<double>(leaves) / db.size());
  std::printf("distinct labels: %zu\n", labels->size());
  if (db.size() >= 2) {
    Rng rng(7);
    std::printf("avg distance:    %.2f (sampled)\n",
                db.EstimateAverageDistance(
                    rng, std::min(500, db.size() * (db.size() - 1) / 2)));
  }
  return 0;
}

int CmdDistance(const FlagParser& flags) {
  auto labels = std::make_shared<LabelDictionary>();
  auto a_or = ParseTreeFlag(flags, "a", labels);
  if (!a_or.ok()) return Fail(a_or.status());
  auto b_or = ParseTreeFlag(flags, "b", labels);
  if (!b_or.ok()) return Fail(b_or.status());
  const Tree& a = *a_or;
  const Tree& b = *b_or;
  // BranchDictionary's own domain: q = 1 records no structure (Section 3.4).
  const StatusOr<int> q_or = IntFlag(flags, "q", 2, 2, 20);
  if (!q_or.ok()) return Fail(q_or.status());
  const int q = *q_or;

  BranchDictionary branches(q);
  const BranchProfile pa = BranchProfile::FromTree(a, branches);
  const BranchProfile pb = BranchProfile::FromTree(b, branches);
  std::printf("|T1| = %d, |T2| = %d\n", a.size(), b.size());
  std::printf("exact edit distance:        %d\n", TreeEditDistance(a, b));
  std::printf("binary branch distance (q=%d): %lld\n", q,
              static_cast<long long>(BranchDistance(pa, pb)));
  std::printf("plain lower bound:          %d\n",
              BranchDistanceLowerBound(pa, pb));
  std::printf("positional lower bound:     %d\n", OptimisticBound(pa, pb));
  return 0;
}

int CmdMapping(const FlagParser& flags) {
  auto labels = std::make_shared<LabelDictionary>();
  auto a_or = ParseTreeFlag(flags, "a", labels);
  if (!a_or.ok()) return Fail(a_or.status());
  auto b_or = ParseTreeFlag(flags, "b", labels);
  if (!b_or.ok()) return Fail(b_or.status());
  const Tree& a = *a_or;
  const Tree& b = *b_or;
  const EditMapping m = ComputeEditMapping(a, b);
  std::printf("cost %d = %d relabel + %d delete + %d insert\n", m.cost,
              m.relabels, m.deletions, m.insertions);
  std::printf("%s", RenderTreeDiff(a, b, m).c_str());
  const TraversalPositions pa = ComputePositions(a);
  const TraversalPositions pb = ComputePositions(b);
  for (const auto& [u, v] : m.pairs) {
    std::printf("  %s (pre %d) -> %s (pre %d)%s\n",
                std::string(a.LabelName(u)).c_str(),
                pa.pre[static_cast<size_t>(u)],
                std::string(b.LabelName(v)).c_str(),
                pb.pre[static_cast<size_t>(v)],
                a.label(u) != b.label(v) ? "  [relabel]" : "");
  }
  return 0;
}

int CmdPatch(const FlagParser& flags) {
  auto labels = std::make_shared<LabelDictionary>();
  auto a_or = ParseTreeFlag(flags, "a", labels);
  if (!a_or.ok()) return Fail(a_or.status());
  auto b_or = ParseTreeFlag(flags, "b", labels);
  if (!b_or.ok()) return Fail(b_or.status());
  auto script = ComputeEditScript(*a_or, *b_or);
  if (!script.ok()) return Fail(script.status());
  std::printf("%zu operations transform a into b:\n", script->size());
  Tree current = *a_or;
  for (const EditOperation& op : *script) {
    std::printf("  %s\n", ToString(op, *labels).c_str());
    auto next = ApplyEditOperation(current, op);
    if (!next.ok()) return Fail(next.status());
    current = std::move(next).value();
    std::printf("    -> %s\n", ToBracket(current).c_str());
  }
  return 0;
}

int CmdRange(const FlagParser& flags) {
  auto labels = std::make_shared<LabelDictionary>();
  auto db_or = LoadDatabase(flags.GetString("data", ""), labels);
  if (!db_or.ok()) return Fail(db_or.status());
  auto query_or = ParseTreeFlag(flags, "query", labels);
  if (!query_or.ok()) return Fail(query_or.status());
  const StatusOr<int> tau_or = IntFlag(flags, "tau", 2, 0, kIntMax);
  if (!tau_or.ok()) return Fail(tau_or.status());
  const int tau = *tau_or;

  SimilaritySearch engine(db_or->get(), MakeFilter(flags).value());
  const RangeResult r = engine.Range(*query_or, tau);
  std::printf("%zu matches within distance %d (%s refined %lld/%lld, "
              "%.1f ms filter + %.1f ms refine)\n",
              r.matches.size(), tau, engine.filter_name().c_str(),
              static_cast<long long>(r.stats.candidates),
              static_cast<long long>(r.stats.database_size),
              1e3 * r.stats.filter_seconds, 1e3 * r.stats.refine_seconds);
  for (const auto& [id, dist] : r.matches) {
    std::printf("  #%d d=%d %s\n", id, dist,
                ToBracket((*db_or)->tree(id)).c_str());
  }
  return 0;
}

int CmdKnn(const FlagParser& flags) {
  auto labels = std::make_shared<LabelDictionary>();
  auto db_or = LoadDatabase(flags.GetString("data", ""), labels);
  if (!db_or.ok()) return Fail(db_or.status());
  auto query_or = ParseTreeFlag(flags, "query", labels);
  if (!query_or.ok()) return Fail(query_or.status());
  const StatusOr<int> k = IntFlag(flags, "k", 5, 1, kIntMax);
  if (!k.ok()) return Fail(k.status());

  SimilaritySearch engine(db_or->get(), MakeFilter(flags).value());
  const KnnResult r = engine.Knn(*query_or, *k);
  std::printf("%d nearest neighbors (%s refined %lld/%lld)\n",
              static_cast<int>(r.neighbors.size()),
              engine.filter_name().c_str(),
              static_cast<long long>(r.stats.candidates),
              static_cast<long long>(r.stats.database_size));
  for (const auto& [id, dist] : r.neighbors) {
    std::printf("  #%d d=%d %s\n", id, dist,
                ToBracket((*db_or)->tree(id)).c_str());
  }
  return 0;
}

int CmdJoin(const FlagParser& flags) {
  auto labels = std::make_shared<LabelDictionary>();
  auto db_or = LoadDatabase(flags.GetString("data", ""), labels);
  if (!db_or.ok()) return Fail(db_or.status());
  const StatusOr<int> tau_or = IntFlag(flags, "tau", 2, 0, kIntMax);
  if (!tau_or.ok()) return Fail(tau_or.status());
  const int tau = *tau_or;
  const auto pool = MakePool(flags, (*db_or)->size());
  if (!pool.ok()) return Fail(pool.status());
  SimilarityJoin join(db_or->get(), MakeFilter(flags).value());
  const JoinResult r = join.SelfJoin(tau, pool->get());
  std::printf("%zu pairs within distance %d (refined %lld of %lld pairs)\n",
              r.pairs.size(), tau,
              static_cast<long long>(r.stats.candidates),
              static_cast<long long>(r.stats.database_size));
  const int show = std::min<int>(20, static_cast<int>(r.pairs.size()));
  for (int i = 0; i < show; ++i) {
    const auto& [l, rr, d] = r.pairs[static_cast<size_t>(i)];
    std::printf("  #%d ~ #%d d=%d\n", l, rr, d);
  }
  if (show < static_cast<int>(r.pairs.size())) {
    std::printf("  ... %zu more\n", r.pairs.size() - show);
  }
  return 0;
}

int CmdCluster(const FlagParser& flags) {
  auto labels = std::make_shared<LabelDictionary>();
  auto db_or = LoadDatabase(flags.GetString("data", ""), labels);
  if (!db_or.ok()) return Fail(db_or.status());
  // k medoids are drawn from the database, so k is at most its size.
  const StatusOr<int> k = IntFlag(flags, "k", 3, 1, (*db_or)->size());
  if (!k.ok()) return Fail(k.status());
  const StatusOr<int64_t> seed =
      IntFlag<int64_t>(flags, "seed", 1, 0, kInt64Max);
  if (!seed.ok()) return Fail(seed.status());
  KMedoidsOptions options;
  options.k = *k;
  Rng rng(static_cast<uint64_t>(*seed));
  const ClusteringResult r = KMedoids(**db_or, options, rng);
  std::printf("k=%d cost=%lld iterations=%d (exact distances: %lld, "
              "pruned by filter: %lld)\n",
              options.k, static_cast<long long>(r.total_cost), r.iterations,
              static_cast<long long>(r.edit_distance_calls),
              static_cast<long long>(r.pruned_by_filter));
  for (size_t c = 0; c < r.medoids.size(); ++c) {
    int members = 0;
    for (const int a : r.assignment) {
      if (a == static_cast<int>(c)) ++members;
    }
    std::printf("  cluster %zu: medoid #%d, %d members: %s\n", c,
                r.medoids[c], members,
                ToBracket((*db_or)->tree(r.medoids[c])).c_str());
  }
  return 0;
}

/// Hidden command exercised by the crash-diagnostics selftest: seeds the
/// flight recorder with synthetic records, then dies the requested way so
/// the triage handler's output can be asserted on from a parent process.
/// `--mode=dump` writes a dump without crashing (exit 0).
int CmdCrashSelftest(const FlagParser& flags) {
  const std::string mode = flags.GetString("mode", "check");
  for (int i = 0; i < 3; ++i) {
    const ScopedQueryContext qctx("crash_selftest");
    FlightRecord rec;
    rec.query_id = qctx.query_id();
    rec.ts_micros = UnixMicros();
    rec.op = "crash_selftest";
    rec.param = i;
    rec.results = i + 1;
    rec.total_micros = 10 * (i + 1);
    FlightRecorder::Global().Record(rec);
    TREESIM_COUNTER_INC("selftest.queries");
  }
  if (mode == "dump") {
    if (!WriteTriageDump("selftest")) {
      std::fprintf(stderr, "cannot write triage dump\n");
      return 1;
    }
    std::printf("wrote %s\n", LastTriagePath());
    return 0;
  }
  if (mode == "check") {
    TREESIM_CHECK(1 < 0) << "crash-selftest requested CHECK failure";
  }
  if (mode == "abort") std::abort();
  if (mode == "segv") raise(SIGSEGV);
  return Fail(Status::InvalidArgument("unknown --mode '" + mode +
                                      "' (want check|abort|segv|dump)"));
}

/// One command and the flags it reads. Main rejects every other flag but
/// the observability ones before the command runs.
struct Command {
  const char* name;
  int (*run)(const FlagParser&);
  std::vector<std::string> flags;
};

const Command* FindCommand(const std::string& name) {
  static const std::vector<Command>* const commands = new std::vector<Command>{
      {"crash-selftest", CmdCrashSelftest, {"mode"}},
      {"generate", CmdGenerate,
       {"kind", "count", "out", "seed", "labels", "size", "fanout", "decay"}},
      {"import", CmdImport, {"xml", "out", "structure-only"}},
      {"stats", CmdStats, {"data"}},
      {"distance", CmdDistance, {"a", "b", "q"}},
      {"mapping", CmdMapping, {"a", "b"}},
      {"patch", CmdPatch, {"a", "b"}},
      {"range", CmdRange, {"data", "query", "tau", "filter"}},
      {"knn", CmdKnn, {"data", "query", "k", "filter"}},
      {"join", CmdJoin, {"data", "tau", "filter", "threads"}},
      {"cluster", CmdCluster, {"data", "k", "seed"}},
  };
  for (const Command& command : *commands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

/// Refuses what no command may be given, before any command runs: a bare
/// token (a flag typed without its dashes would otherwise be ignored), an
/// unknown --filter, and an observability flag that would do nothing or
/// notice its fault only after the run: a --metrics mode other than
/// text|json|prometheus (a bare --metrics included), an empty file or
/// directory name, --metrics-out without --metrics and --slow-query-ms
/// without --query-log.
Status CheckArguments(const std::string& command, const FlagParser& flags) {
  if (!flags.positional().empty()) {
    return Status::InvalidArgument(command + " takes no bare argument '" +
                                   flags.positional().front() + "'");
  }
  const std::string metrics = flags.GetString("metrics", "");
  if (flags.Has("metrics") && metrics != "text" && metrics != "json" &&
      metrics != "prometheus") {
    return Status::InvalidArgument("unknown --metrics mode '" + metrics +
                                   "' (want text|json|prometheus)");
  }
  for (const char* key : {"metrics-out", "query-log", "trace", "triage-dir"}) {
    if (flags.Has(key) && flags.GetString(key, "").empty()) {
      return Status::InvalidArgument(std::string("--") + key +
                                     " needs a name (--" + key + "=PATH)");
    }
  }
  if (flags.Has("metrics-out") && !flags.Has("metrics")) {
    return Status::InvalidArgument(
        "--metrics-out requires --metrics=text|json|prometheus");
  }
  if (flags.Has("slow-query-ms") && !flags.Has("query-log")) {
    return Status::InvalidArgument("--slow-query-ms requires --query-log=FILE");
  }
  if (flags.Has("filter")) return MakeFilter(flags).status();
  return Status::Ok();
}

/// Dumps the registry after the command so the numbers cover everything the
/// run did (index build included). All three modes render to one string and
/// share one sink: stdout by default, or `--metrics-out=FILE`. JSON goes out
/// as one line, parseable by scripts; text gets a separator so it reads
/// apart from command output; prometheus (the remaining mode
/// CheckArguments admits) is text exposition format 0.0.4, ready for a
/// node_exporter textfile collector.
int DumpMetrics(const std::string& mode, const std::string& out_path) {
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  std::string rendered;
  if (mode == "json") {
    rendered = snap.ToJson() + "\n";
  } else if (mode == "text") {
    rendered = "== metrics ==\n" + snap.ToText();
  } else {
    rendered = snap.ToPrometheus();
  }
  if (out_path.empty()) {
    std::fwrite(rendered.data(), 1, rendered.size(), stdout);
    return 0;
  }
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write metrics file %s\n", out_path.c_str());
    return 1;
  }
  const size_t written = std::fwrite(rendered.data(), 1, rendered.size(), f);
  const bool ok = written == rendered.size() && std::fclose(f) == 0;
  if (!ok) {
    std::fprintf(stderr, "short write to metrics file %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}

/// `--query-log=FILE` opens the process-wide structured query log before the
/// command runs; `--slow-query-ms=N` (refused without it, by CheckArguments)
/// additionally restricts it to queries at or above the threshold. Built
/// with -DTREESIM_METRICS=OFF the sink is compiled out, so asking for a log
/// file is an error rather than silence.
int OpenQueryLog(const FlagParser& flags) {
  const std::string path = flags.GetString("query-log", "");
  if (path.empty()) return 0;
  // -1 (absent) logs every query; the bound keeps the microseconds in range.
  const StatusOr<int64_t> slow_ms =
      IntFlag<int64_t>(flags, "slow-query-ms", -1, 0, kInt64Max / 1000);
  if (!slow_ms.ok()) return Fail(slow_ms.status());
  StructuredLog& qlog = StructuredLog::Global();
  if (*slow_ms >= 0) qlog.set_slow_query_micros(*slow_ms * 1000);
  const Status status = qlog.OpenFile(path);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot open query log: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  return 0;
}

int WriteTrace(const std::string& path) {
  Tracer::Global().Disable();
  const std::string json = Tracer::Global().ExportChromeTracing();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write trace file %s\n", path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  const int64_t dropped = Tracer::Global().dropped_events();
  std::string dropped_note;
  if (dropped > 0) {
    dropped_note = ", " + std::to_string(dropped) +
                   " spans dropped to ring wraparound";
  }
  std::fprintf(stderr, "wrote %s (%zu bytes%s)\n", path.c_str(), json.size(),
               dropped_note.c_str());
  return 0;
}

/// `--flight-recorder=N` sizes the always-on ring and asks Main to print
/// its contents after the command. Like --query-log, requesting it in a
/// -DTREESIM_METRICS=OFF build is an error rather than silence.
int ConfigureFlightRecorder(const FlagParser& flags, bool* dump_after) {
  const StatusOr<int> n = IntFlag(flags, "flight-recorder", 0, 0, kIntMax);
  if (!n.ok()) return Fail(n.status());
  if (*n == 0) return 0;
  if (!kMetricsEnabled) {
    std::fprintf(stderr,
                 "--flight-recorder requires a build with metrics enabled "
                 "(-DTREESIM_METRICS=ON)\n");
    return 2;
  }
  FlightRecorder::Global().Configure(*n);
  *dump_after = true;
  return 0;
}

/// One line per record: every kFlightFields key, then op and slow, as the
/// crash dump's record lines.
void DumpFlightRecorder() {
  const std::vector<FlightRecord> records = FlightRecorder::Global().Snapshot();
  std::printf("== flight recorder (%zu of last %d queries) ==\n",
              records.size(), FlightRecorder::Global().capacity());
  for (const FlightRecord& r : records) {
    for (const FlightField& f : kFlightFields) {
      std::printf("%s=%lld ", f.key, static_cast<long long>(r.*f.member));
    }
    std::printf("op=%s slow=%d\n", r.op, r.slow ? 1 : 0);
  }
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "--version" || command == "version") return PrintVersion();
  const Command* const cmd = FindCommand(command);
  if (cmd == nullptr) return Usage();
  const FlagParser flags(argc - 1, argv + 1);
  std::vector<std::string> known = cmd->flags;
  known.insert(known.end(), {"metrics", "metrics-out", "query-log",
                             "slow-query-ms", "trace", "flight-recorder",
                             "triage-dir"});
  const std::vector<std::string> unknown = flags.UnknownKeys(known);
  if (!unknown.empty()) {
    return Fail(Status::InvalidArgument(command + " does not take --" +
                                        unknown.front()));
  }
  const Status arguments = CheckArguments(command, flags);
  if (!arguments.ok()) return Fail(arguments);
  // Crash triage is always armed: it costs nothing until a fatal signal or
  // TREESIM_CHECK failure, and then preserves the telemetry of the run.
  InstallCrashHandler();
  const std::string triage_dir = flags.GetString("triage-dir", "");
  if (!triage_dir.empty()) SetTriageDir(triage_dir.c_str());
  const std::string metrics_mode = flags.GetString("metrics", "");
  const std::string metrics_out = flags.GetString("metrics-out", "");
  const std::string trace_path = flags.GetString("trace", "");
  const int log_code = OpenQueryLog(flags);
  if (log_code != 0) return log_code;
  bool dump_flight = false;
  const int flight_code = ConfigureFlightRecorder(flags, &dump_flight);
  if (flight_code != 0) return flight_code;
  if (!trace_path.empty()) Tracer::Global().Enable();
  const int code = cmd->run(flags);
  StructuredLog::Global().Close();
  if (dump_flight) DumpFlightRecorder();
  if (!trace_path.empty()) {
    const int trace_code = WriteTrace(trace_path);
    if (code == 0 && trace_code != 0) return trace_code;
  }
  if (!metrics_mode.empty()) {
    const int metrics_code = DumpMetrics(metrics_mode, metrics_out);
    if (code == 0 && metrics_code != 0) return metrics_code;
  }
  return code;
}

}  // namespace
}  // namespace cli
}  // namespace treesim

int main(int argc, char** argv) { return treesim::cli::Main(argc, argv); }
