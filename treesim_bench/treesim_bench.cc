// treesim_bench: the end-to-end benchmark of the filter-and-refine engine.
//
//   treesim_bench --workload=NAME --seed=S [--seconds=N] [--json=FILE]
//                 [--trace=FILE] [--scale=smoke]
//
// One process runs one workload, so peak_rss_mb belongs to it. Every
// workload mixes one range-type op (Range, RangeWeighted or Join) with one
// k-NN-type op (Knn or BatchKnn), so range_p50_ms and knn_p50_ms are each
// one op's own median. The run builds the workload's inputs from the seed
// (untimed), sets the engine up several times (setup_s is the median),
// warms every op up on the first 5% of the request stream, then measures a
// closed loop with one submitting thread: a fixed number of whole passes
// over the rest of the stream, each set-up and each pass of a one-thread
// workload on the next CPU in turn. A request's latency is its fastest
// pass. The pass count follows from --seconds alone,
// never from how fast the code runs, so every build is measured with the
// same estimator. The answer digest covers the whole stream, so it is the
// same on every run of a seed.
//
// Correctness: every answer is checked for structure, a repeated request
// must repeat its answer, and a seeded sample is re-answered by the
// unfiltered engine. Every failed check counts in `failed`.
//
// With --trace=FILE the timed loop becomes one pass over the stream in
// which every request is also replayed layer by layer (layer_replay.h); the
// per-layer metrics are printed and the spans written to FILE.
//
// Output: one `<name> <value> <unit>` line per metric, plus --json=FILE in
// the bench_report.h schema. Workload sizes are fixed here and documented
// in README.md next to this file.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "datagen/dblp_generator.h"
#include "datagen/edit_noise.h"
#include "datagen/synthetic_generator.h"
#include "layer_replay.h"
#include "search/similarity_join.h"
#include "ted/edit_operation.h"
#include "util/stopwatch.h"

namespace treesim {
namespace bench {
namespace {

enum class Op { kRange, kKnn, kWeightedRange, kBatchKnn, kJoin };
constexpr int kOpCount = 5;
constexpr const char* kOpNames[kOpCount] = {"range", "knn", "weighted_range",
                                            "batch_knn", "join"};
constexpr const char* kEngineSpans[kOpCount] = {
    "search.range", "search.knn", "search.range_weighted", "search.batch_knn",
    "search.join"};

int OpIndex(Op op) { return static_cast<int>(op); }

/// range_p50_ms covers the range-type op of a workload, knn_p50_ms the
/// k-NN-type one (a Join request is a batch of range probes).
bool IsRangeType(Op op) {
  return op == Op::kRange || op == Op::kWeightedRange || op == Op::kJoin;
}

struct Request {
  Op op = Op::kRange;
  double param = 0;  // tau, or k for the k-NN ops
  int input = 0;     // Round::query_sets index (join_left for kJoin)
};

/// The weighted traffic's cost model: insert and delete cost 1.5, relabel
/// 1, so MinOperationCost stays 1 and the filter scales trivially while the
/// refine kernel runs the general-cost program.
class IndelHeavyCosts final : public CostModel {
 public:
  double Insert(LabelId /*label*/) const override { return 1.5; }
  double Delete(LabelId /*label*/) const override { return 1.5; }
};

/// The query inputs of one pass. Every round of a workload has the same
/// answers; only dblp_parallel has more than one round (see DblpParallel).
struct Round {
  std::vector<std::vector<Tree>> query_sets;
  std::vector<std::unique_ptr<TreeDatabase>> join_left;
};

struct Workload {
  std::shared_ptr<LabelDictionary> labels =
      std::make_shared<LabelDictionary>();
  std::vector<Tree> records;
  std::vector<Round> rounds = std::vector<Round>(1);
  std::vector<Request> stream;
  int threads = 1;
  int setups = 1;
  int passes = 1;

  /// Inputs of timed pass `pass`; pass -1 is the warm-up. A workload with
  /// one round uses it on every pass.
  const Round& Inputs(int pass) const {
    return rounds[std::min(static_cast<size_t>(pass + 1), rounds.size() - 1)];
  }
};

/// Moves the calling thread round robin over the CPUs the process may run
/// on. On a shared host one CPU can run well below the others for many
/// seconds (a busy neighbour on its core or cache), and the scheduler
/// keeps a one-thread process on the CPU it started on, so a whole run
/// could land on a slow one. Rotating each pass and each set-up to the
/// next CPU makes every run sample all of them. Does nothing when disabled
/// (pool workloads spread over the CPUs anyway) or when the affinity cannot
/// be read or set; restores it on destruction.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled) {
    CPU_ZERO(&original_);
    if (!enabled || sched_getaffinity(0, sizeof(original_), &original_) != 0) {
      return;
    }
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to the next CPU in turn.
  void Next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t turn_ = 0;
};

constexpr uint64_t kQuerySalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kCheckSalt = 0xc2b2ae3d27d4eb4fULL;

/// Every workload's stream is sized so that one pass over it takes about
/// this long on the reference machine (README.md).
constexpr double kPassSeconds = 2.0;

/// Timed passes: a function of --seconds alone.
int Passes(double seconds, bool smoke) {
  if (smoke) return 1;
  return std::max(1, static_cast<int>(std::lround(seconds / kPassSeconds)));
}

std::vector<LabelId> LabelPool(const std::vector<Tree>& trees) {
  std::vector<LabelId> pool;
  for (const Tree& t : trees) {
    for (NodeId n = 0; n < t.size(); ++n) pool.push_back(t.label(n));
  }
  std::sort(pool.begin(), pool.end());
  pool.erase(std::unique(pool.begin(), pool.end()), pool.end());
  return pool;
}

/// Query `q` of `count`: a random record from the q-th of `count` equal
/// slices of the database, with `edits` random edits drawn from the label
/// pool. Stratified records and fixed edit counts keep the cost of a
/// stream alike from seed to seed.
Tree StratifiedQuery(const Workload& w, const std::vector<LabelId>& pool,
                     size_t q, size_t count, int edits, Rng& rng) {
  const size_t n = w.records.size();
  const size_t lo = n * q / count;
  const size_t width = std::max<size_t>(1, n * (q + 1) / count - lo);
  const Tree& base = w.records[lo + rng.UniformIndex(width)];
  return ApplyRandomEdits(base, edits, pool, rng).tree;
}

/// Appends `requests` single-query requests cycling through `mix`; each
/// op's successive queries make 0, 1, 2, 0, ... edits.
void AddSingleQueries(Workload& w, const std::vector<Request>& mix,
                      int requests, uint64_t seed) {
  const std::vector<LabelId> pool = LabelPool(w.records);
  Rng rng(seed ^ kQuerySalt);
  Round& round = w.rounds.front();
  const size_t count = static_cast<size_t>(requests);
  for (size_t i = 0; i < count; ++i) {
    Request r = mix[i % mix.size()];
    r.input = static_cast<int>(round.query_sets.size());
    const int edits = static_cast<int>(i / mix.size() % 3);
    round.query_sets.push_back(
        {StratifiedQuery(w, pool, i, count, edits, rng)});
    w.stream.push_back(r);
  }
}

// dblp_small_tau: the paper's 2,000-record DBLP scale, in cache, with the
// shortest queries. Range(tau=1) and Knn(k=10) both spend most of their
// time in the filter.
Workload DblpSmallTau(uint64_t seed, bool smoke, int /*passes*/) {
  Workload w;
  w.records = DblpGenerator(DblpParams{}, w.labels, seed)
                  .Generate(smoke ? 200 : 2000);
  w.setups = 201;
  AddSingleQueries(w, {{Op::kRange, 1, 0}, {Op::kKnn, 10, 0}},
                   smoke ? 20 : 1150, seed);
  return w;
}

// synth_large_trees' database: 120-node trees (N{4,0.5}N{120,2}L8) in
// 30 families of 20. Each family grows from one seed tree, member j
// mutating member (j - 1) / 2, so each query meets a range of distances
// inside its family: one to seven mutations apart. Fixed family sizes and
// shape keep the families alike from seed to seed.
std::vector<Tree> SynthFamilies(const std::shared_ptr<LabelDictionary>& labels,
                                uint64_t seed, bool smoke) {
  SyntheticParams params;
  params.fanout_mean = 4;
  params.fanout_stddev = 0.5;
  params.size_mean = smoke ? 40 : 120;
  params.size_stddev = 2;
  params.label_count = 8;
  SyntheticGenerator gen(params, labels, seed);
  const int families = smoke ? 4 : 30;
  const int family_size = smoke ? 10 : 20;
  std::vector<Tree> records;
  for (int f = 0; f < families; ++f) {
    const size_t first = records.size();
    records.push_back(gen.GenerateSeedTree());
    for (int j = 1; j < family_size; ++j) {
      const size_t parent = first + static_cast<size_t>(j - 1) / 2;
      records.push_back(gen.Mutate(records[parent]));
    }
  }
  return records;
}

// synth_large_trees: refine (tree edit distance on 120-node trees)
// dominates. RangeWeighted(tau=24) under IndelHeavyCosts is the only
// weighted traffic and runs the general-cost kernel on about the query's
// family of 20; Knn(k=5) runs the unit kernel, its first k calls unbounded.
Workload SynthLargeTrees(uint64_t seed, bool smoke, int /*passes*/) {
  Workload w;
  w.records = SynthFamilies(w.labels, seed, smoke);
  w.setups = 41;
  AddSingleQueries(
      w, {{Op::kWeightedRange, smoke ? 8.0 : 24.0, 0}, {Op::kKnn, 5, 0}},
      smoke ? 8 : 58, seed);
  return w;
}

// dblp_parallel: the only pool workload, on two workers so that the
// submitting thread and the pool leave CPUs free on a small shared host.
// Requests alternate BatchKnn of a query set and Join of a small left side
// against the records. Half of the
// query trees carry 1-2 labels interned fresh, so query preparation writes
// new branches into the shared dictionaries between reads. Labels seen
// once stay in the dictionary, so every round (the warm-up and each timed
// pass) gets its own fresh labels at the same nodes: the writes happen on
// every pass, and the answers stay the same, since a fresh label matches no
// record.
Workload DblpParallel(uint64_t seed, bool smoke, int passes) {
  Workload w;
  w.records = DblpGenerator(DblpParams{}, w.labels, seed)
                  .Generate(smoke ? 400 : 8000);
  w.threads = std::min(2, ThreadPool::HardwareThreads());
  w.setups = 15;
  const std::vector<LabelId> pool = LabelPool(w.records);
  Rng rng(seed ^ kQuerySalt);
  struct FreshNode {
    size_t set;
    size_t member;
    NodeId node;
  };
  std::vector<std::vector<Tree>> sets;
  std::vector<FreshNode> fresh;
  const int set_size = 4;
  const int requests = smoke ? 6 : 62;
  const size_t count = static_cast<size_t>(requests * set_size);
  for (int i = 0; i < requests; ++i) {
    std::vector<Tree> set;
    for (int j = 0; j < set_size; ++j) {
      const size_t q = static_cast<size_t>(i * set_size + j);
      set.push_back(StratifiedQuery(w, pool, q, count,
                                    static_cast<int>(q / 2 % 3), rng));
      if (j % 2 == 0) continue;
      for (int c = rng.UniformInt(1, 2); c > 0; --c) {
        fresh.push_back({sets.size(), set.size() - 1,
                         static_cast<NodeId>(rng.UniformIndex(
                             static_cast<size_t>(set.back().size())))});
      }
    }
    sets.push_back(std::move(set));
    w.stream.push_back({i % 2 == 0 ? Op::kBatchKnn : Op::kJoin,
                        i % 2 == 0 ? 10.0 : 2.0, i / 2});
  }
  w.rounds.resize(static_cast<size_t>(passes) + 1);
  int next = 0;
  for (Round& round : w.rounds) {
    std::vector<std::vector<Tree>> trees = sets;
    for (const FreshNode& f : fresh) {
      const LabelId label =
          w.labels->Intern("fresh." + std::to_string(next++));
      Tree& t = trees[f.set][f.member];
      StatusOr<Tree> edited =
          ApplyEditOperation(t, EditOperation::MakeRelabel(f.node, label));
      TREESIM_CHECK(edited.ok()) << edited.status();
      t = std::move(edited).value();
    }
    for (size_t i = 0; i < trees.size(); ++i) {
      if (i % 2 == 0) {
        round.query_sets.push_back(std::move(trees[i]));
      } else {
        round.join_left.push_back(MakeDatabase(w.labels, std::move(trees[i])));
      }
    }
  }
  return w;
}

bool MakeWorkload(const std::string& name, uint64_t seed, bool smoke,
                  int passes, Workload* out) {
  using Factory = Workload (*)(uint64_t, bool, int);
  static const std::pair<const char*, Factory> kWorkloads[] = {
      {"dblp_small_tau", DblpSmallTau},
      {"synth_large_trees", SynthLargeTrees},
      {"dblp_parallel", DblpParallel}};
  for (const auto& [workload, factory] : kWorkloads) {
    if (name == workload) {
      *out = factory(seed, smoke, passes);
      out->passes = passes;
      return true;
    }
  }
  return false;
}

struct Engine {
  std::unique_ptr<TreeDatabase> db;
  BiBranchFilter* filter = nullptr;  // owned by `search`
  std::unique_ptr<SimilaritySearch> search;
  BiBranchFilter* join_filter = nullptr;  // owned by `join`
  std::unique_ptr<SimilarityJoin> join;

  int64_t BranchDictSize() const {
    int64_t size = static_cast<int64_t>(
        filter->inverted_file().branch_dict().size());
    if (join_filter != nullptr) {
      size += static_cast<int64_t>(
          join_filter->inverted_file().branch_dict().size());
    }
    return size;
  }
};

/// One set-up: TreeDatabase::AddAll, then the BiBranch index build(s).
Engine SetUp(const Workload& w, ThreadPool* pool, double* db_s,
             double* index_s) {
  std::vector<Tree> records = w.records;  // the input copy is not set-up
  Engine e;
  Stopwatch timer;
  e.db = MakeDatabase(w.labels, std::move(records));
  *db_s = timer.ElapsedSeconds();
  timer.Reset();
  BiBranchFilter::Options options;
  options.build_pool = pool;
  auto filter = std::make_unique<BiBranchFilter>(options);
  e.filter = filter.get();
  e.search = std::make_unique<SimilaritySearch>(e.db.get(), std::move(filter));
  if (!w.Inputs(-1).join_left.empty()) {
    auto join_filter = std::make_unique<BiBranchFilter>(options);
    e.join_filter = join_filter.get();
    e.join = std::make_unique<SimilarityJoin>(e.db.get(),
                                              std::move(join_filter));
  }
  *index_s = timer.ElapsedSeconds();
  return e;
}

template <typename D>
Answer ToAnswer(const std::vector<std::pair<int, D>>& pairs) {
  Answer out;
  out.reserve(pairs.size());
  for (const auto& [id, d] : pairs) out.emplace_back(id, d);
  return out;
}

/// Answers one request; `seconds` receives the engine call alone.
std::vector<Answer> Execute(Engine& e, const Round& in, const Request& r,
                            ThreadPool* pool, const CostModel& costs,
                            double* seconds) {
  std::vector<Answer> out;
  const int k = static_cast<int>(r.param);
  Stopwatch timer;
  switch (r.op) {
    case Op::kRange: {
      const RangeResult res =
          e.search->Range(in.query_sets[r.input][0], static_cast<int>(r.param));
      *seconds = timer.ElapsedSeconds();
      out.push_back(ToAnswer(res.matches));
      break;
    }
    case Op::kKnn: {
      const KnnResult res = e.search->Knn(in.query_sets[r.input][0], k);
      *seconds = timer.ElapsedSeconds();
      out.push_back(ToAnswer(res.neighbors));
      break;
    }
    case Op::kWeightedRange: {
      const WeightedRangeResult res =
          e.search->RangeWeighted(in.query_sets[r.input][0], r.param, costs);
      *seconds = timer.ElapsedSeconds();
      out.push_back(res.matches);
      break;
    }
    case Op::kBatchKnn: {
      const BatchKnnResult res =
          e.search->BatchKnn(in.query_sets[r.input], k, pool);
      *seconds = timer.ElapsedSeconds();
      for (const KnnResult& q : res.per_query) {
        out.push_back(ToAnswer(q.neighbors));
      }
      break;
    }
    case Op::kJoin: {
      const TreeDatabase& left = *in.join_left[r.input];
      const JoinResult res =
          e.join->Join(left, static_cast<int>(r.param), pool);
      *seconds = timer.ElapsedSeconds();
      out.resize(static_cast<size_t>(left.size()));
      for (const auto& [l, right, d] : res.pairs) {
        out[static_cast<size_t>(l)].emplace_back(right, d);
      }
      break;
    }
  }
  return out;
}

/// Query trees a request answers.
int Members(const Round& in, const Request& r) {
  if (r.op == Op::kJoin) return in.join_left[r.input]->size();
  return static_cast<int>(in.query_sets[r.input].size());
}

bool IdsInRange(const Answer& a, int n) {
  return std::all_of(a.begin(), a.end(), [n](const std::pair<int, double>& p) {
    return p.first >= 0 && p.first < n;
  });
}

bool DistancesWithin(const Answer& a, double tau) {
  return std::all_of(a.begin(), a.end(),
                     [tau](const std::pair<int, double>& p) {
                       return p.second >= 0 && p.second <= tau;
                     });
}

/// Strictly ascending by (distance, id).
bool DistanceOrdered(const Answer& a) {
  for (size_t i = 1; i < a.size(); ++i) {
    if (!(std::make_pair(a[i - 1].second, a[i - 1].first) <
          std::make_pair(a[i].second, a[i].first))) {
      return false;
    }
  }
  return true;
}

bool DistinctIds(const Answer& a) {
  std::vector<int> ids;
  for (const auto& p : a) ids.push_back(p.first);
  std::sort(ids.begin(), ids.end());
  return std::adjacent_find(ids.begin(), ids.end()) == ids.end();
}

/// Structure every answer must have, whatever the data.
bool WellFormed(const Round& in, const Request& r,
                const std::vector<Answer>& out, int n) {
  if (static_cast<int>(out.size()) != Members(in, r)) return false;
  for (const Answer& a : out) {
    if (!IdsInRange(a, n)) return false;
    switch (r.op) {
      case Op::kRange:
      case Op::kWeightedRange:
        if (!DistanceOrdered(a) || !DistancesWithin(a, r.param)) return false;
        break;
      case Op::kKnn:
      case Op::kBatchKnn: {
        const int expected = std::min(static_cast<int>(r.param), n);
        if (static_cast<int>(a.size()) != expected || !DistanceOrdered(a) ||
            !DistinctIds(a)) {
          return false;
        }
        break;
      }
      case Op::kJoin:
        if (!DistancesWithin(a, r.param)) return false;
        for (size_t i = 1; i < a.size(); ++i) {
          if (a[i - 1].first >= a[i].first) return false;
        }
        break;
    }
  }
  return true;
}

/// 64-bit FNV-1a.
class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 1099511628211ULL;
    }
  }
  void Add(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

uint64_t HashAnswers(const std::vector<Answer>& out) {
  Fnv1a h;
  h.Add(static_cast<uint64_t>(out.size()));
  for (const Answer& a : out) {
    h.Add(static_cast<uint64_t>(a.size()));
    for (const auto& [id, d] : a) {
      h.Add(static_cast<uint64_t>(id));
      h.Add(d);
    }
  }
  return h.value();
}

/// The request re-answered by the unfiltered engine; joins are re-derived
/// as one sequential Range per left tree.
std::vector<Answer> OracleAnswer(SimilaritySearch& scan, const Round& in,
                                 const Request& r, const CostModel& costs) {
  std::vector<Answer> out;
  const int k = static_cast<int>(r.param);
  const int tau = static_cast<int>(r.param);
  if (r.op == Op::kJoin) {
    const TreeDatabase& left = *in.join_left[r.input];
    for (int l = 0; l < left.size(); ++l) {
      Answer a = ToAnswer(scan.Range(left.tree(l), tau).matches);
      std::sort(a.begin(), a.end());
      out.push_back(std::move(a));
    }
    return out;
  }
  for (const Tree& q : in.query_sets[r.input]) {
    switch (r.op) {
      case Op::kRange:
        out.push_back(ToAnswer(scan.Range(q, tau).matches));
        break;
      case Op::kKnn:
      case Op::kBatchKnn:
        out.push_back(ToAnswer(scan.Knn(q, k).neighbors));
        break;
      case Op::kWeightedRange:
        out.push_back(scan.RangeWeighted(q, r.param, costs).matches);
        break;
      case Op::kJoin:
        break;
    }
  }
  return out;
}

/// Re-answers a seeded sample of the stream with the unfiltered engine and
/// compares with the recorded answer hashes: at least five requests per
/// op, more while the check stays within `budget_s`. The warm-up round's
/// inputs are used, so on dblp_parallel this also checks that every round
/// answers alike. Returns the number of mismatches.
int64_t CheckSample(const TreeDatabase& db, const Workload& w,
                    const std::vector<uint64_t>& hashes, uint64_t seed,
                    double budget_s, const CostModel& costs) {
  SimilaritySearch scan(&db, nullptr);
  Rng rng(seed ^ kCheckSalt);
  std::vector<size_t> order(w.stream.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(order);
  int checked[kOpCount] = {};
  int64_t mismatches = 0;
  const Stopwatch clock;
  for (const size_t i : order) {
    const Request& r = w.stream[i];
    if (checked[OpIndex(r.op)] >= 5 && clock.ElapsedSeconds() >= budget_s) {
      continue;
    }
    ++checked[OpIndex(r.op)];
    if (HashAnswers(OracleAnswer(scan, w.Inputs(-1), r, costs)) !=
        hashes[i]) {
      ++mismatches;
      std::fprintf(stderr,
                   "FAIL: request %zu (%s) differs from the unfiltered "
                   "engine\n",
                   i, kOpNames[OpIndex(r.op)]);
    }
  }
  return mismatches;
}

/// Replays a request's member queries; the answers must equal the
/// engine's.
std::vector<Answer> Replay(LayerReplay& replay, LayerReplay& join_replay,
                           const Round& in, const Request& r,
                           const CostModel& costs, int64_t query_id,
                           int64_t parent) {
  std::vector<Answer> out;
  const int k = static_cast<int>(r.param);
  const int tau = static_cast<int>(r.param);
  if (r.op == Op::kJoin) {
    const TreeDatabase& left = *in.join_left[r.input];
    for (int l = 0; l < left.size(); ++l) {
      out.push_back(join_replay.JoinProbe(left, l, tau, query_id, parent));
    }
    return out;
  }
  for (const Tree& q : in.query_sets[r.input]) {
    switch (r.op) {
      case Op::kRange:
        out.push_back(replay.Range(q, tau, query_id, parent));
        break;
      case Op::kKnn:
      case Op::kBatchKnn:
        out.push_back(replay.Knn(q, k, query_id, parent));
        break;
      case Op::kWeightedRange:
        out.push_back(
            replay.RangeWeighted(q, r.param, costs, query_id, parent));
        break;
      case Op::kJoin:
        break;
    }
  }
  return out;
}

/// Nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(v.size()));
  const size_t i = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return v[std::min(i, v.size() - 1)];
}

/// The highest percentile, in tenths, that leaves at least ten of `n`
/// samples beyond it.
double TailPct(size_t n) {
  return std::max(
      0.0, std::floor(1000.0 * (1.0 - 10.0 / static_cast<double>(n))) / 10.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void Print(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    JsonObject v;
    v.Double("value", m.value).Str("unit", m.unit);
    o.Raw(m.name, v.Render());
  }
  return o.Render();
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  const std::vector<std::string> unknown = flags.UnknownKeys(
      {"workload", "seed", "seconds", "json", "trace", "scale"});
  const std::string name = flags.GetString("workload", "");
  const std::string scale = flags.GetString("scale", "");
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10);
  const std::string json_path = flags.GetString("json", "");
  const std::string trace_path = flags.GetString("trace", "");
  const bool traced = !trace_path.empty();
  const bool smoke = scale == "smoke";
  Workload w;
  if (!unknown.empty() || (!scale.empty() && !smoke) || !(seconds > 0) ||
      !MakeWorkload(name, seed, smoke, Passes(seconds, smoke), &w)) {
    std::fprintf(stderr,
                 "usage: treesim_bench --workload=dblp_small_tau|"
                 "synth_large_trees|dblp_parallel --seed=S "
                 "[--seconds=N] [--json=FILE] [--trace=FILE] "
                 "[--scale=smoke]\n");
    return 2;
  }
  const int n = static_cast<int>(w.records.size());
  std::unique_ptr<ThreadPool> pool;
  if (w.threads > 1) pool = std::make_unique<ThreadPool>(w.threads);
  const IndelHeavyCosts costs;
  CpuRotation rotation(w.threads == 1);

  // Set-up, several times, each on the next CPU: half before the
  // measurement and half after the checks, so the median samples the
  // machine at two moments about a run apart. Each engine is dropped
  // before the next is built so peak memory holds one.
  std::vector<double> setup_s;
  std::vector<double> db_s;
  std::vector<double> index_s;
  Engine engine;
  const auto set_up = [&](int times) {
    for (int s = 0; s < times; ++s) {
      rotation.Next();
      engine = Engine();
      double db = 0;
      double index = 0;
      engine = SetUp(w, pool.get(), &db, &index);
      db_s.push_back(db);
      index_s.push_back(index);
      setup_s.push_back(db + index);
    }
  };
  set_up((w.setups + 1) / 2);
  const int64_t dict_before = engine.BranchDictSize();

  const size_t stream = w.stream.size();
  const size_t warm = std::max<size_t>(1, stream / 20);
  std::vector<uint64_t> hashes(stream, 0);
  std::vector<bool> answered(stream, false);
  int64_t attempted = 0;
  int64_t failed = 0;
  const auto check = [&](size_t i, const Round& in,
                         const std::vector<Answer>& out) {
    ++attempted;
    const Request& r = w.stream[i];
    if (!WellFormed(in, r, out, n)) {
      ++failed;
      std::fprintf(stderr, "FAIL: request %zu (%s) answer is malformed\n", i,
                   kOpNames[OpIndex(r.op)]);
    }
    const uint64_t h = HashAnswers(out);
    if (answered[i] && hashes[i] != h) {
      ++failed;
      std::fprintf(stderr, "FAIL: request %zu (%s) changed its answer\n", i,
                   kOpNames[OpIndex(r.op)]);
    }
    hashes[i] = h;
    answered[i] = true;
  };
  const auto run = [&](int pass, size_t i, double* secs) {
    const Round& in = w.Inputs(pass);
    check(i, in, Execute(engine, in, w.stream[i], pool.get(), costs, secs));
  };

  double unused = 0;
  for (size_t i = 0; i < warm; ++i) run(-1, i, &unused);

  std::vector<double> best(stream, std::numeric_limits<double>::infinity());
  std::vector<double> range_lat;
  std::vector<double> knn_lat;
  std::vector<double> all;
  int64_t queries = 0;
  double elapsed = 0;
  SpanLog log;
  LayerTotals totals;
  int64_t engine_ns = 0;
  if (!traced) {
    // Closed loop in whole passes over the timed requests: the next request
    // is sent when the previous returns. Each pass runs on the next CPU. A
    // request's latency is its fastest pass, which filters out interference
    // from other processes unless it spans every pass and every CPU.
    const Stopwatch clock;
    for (int pass = 0; pass < w.passes; ++pass) {
      rotation.Next();
      for (size_t i = warm; i < stream; ++i) {
        double secs = 0;
        run(pass, i, &secs);
        best[i] = std::min(best[i], secs * 1e3);
        if (pass == 0) queries += Members(w.Inputs(0), w.stream[i]);
      }
    }
    elapsed = clock.ElapsedSeconds();
    for (size_t i = warm; i < stream; ++i) {
      (IsRangeType(w.stream[i].op) ? range_lat : knn_lat).push_back(best[i]);
      all.push_back(best[i]);
    }
  } else {
    LayerReplay replay(engine.filter, engine.db.get(), &log, &totals);
    LayerReplay join_replay(engine.join_filter, engine.db.get(), &log,
                            &totals);
    const Round& in = w.Inputs(0);
    for (size_t i = warm; i < stream; ++i) {
      const Request& r = w.stream[i];
      const int64_t qid = static_cast<int64_t>(i);
      const int64_t span = log.Open(kEngineSpans[OpIndex(r.op)], 0, qid,
                                    SpanLog::kEngineLane);
      double secs = 0;
      const std::vector<Answer> out =
          Execute(engine, in, r, pool.get(), costs, &secs);
      log.Close(span, Members(in, r));
      engine_ns += static_cast<int64_t>(secs * 1e9);
      all.push_back(secs * 1e3);
      check(i, in, out);
      if (Replay(replay, join_replay, in, r, costs, qid, span) != out) {
        ++failed;
        std::fprintf(stderr, "FAIL: request %zu (%s) replay disagrees\n", i,
                     kOpNames[OpIndex(r.op)]);
      }
    }
    if (!log.WriteChromeTrace(trace_path)) {
      std::fprintf(stderr, "cannot write trace file %s\n", trace_path.c_str());
      return 1;
    }
  }
  const int64_t dict_growth = engine.BranchDictSize() - dict_before;

  const Stopwatch check_clock;
  failed += CheckSample(*engine.db, w, hashes, seed, 0.1 * seconds, costs);
  const double check_s = check_clock.ElapsedSeconds();
  set_up(w.setups / 2);

  Fnv1a digest;
  for (const uint64_t h : hashes) digest.Add(h);
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof(digest_hex), "%016" PRIx64,
                digest.value());

  std::vector<Metric> metrics;
  std::vector<Metric> details;
  if (!traced) {
    double best_sum_s = 0;
    for (const double ms : all) best_sum_s += ms / 1e3;
    metrics = {
        {"setup_s", Percentile(setup_s, 50), "s"},
        {"qps", static_cast<double>(queries) / best_sum_s, "1/s"},
        {"range_p50_ms", Percentile(range_lat, 50), "ms"},
        {"knn_p50_ms", Percentile(knn_lat, 50), "ms"},
        {"tail_ms", Percentile(all, TailPct(all.size())), "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    const auto add_class = [&details](const std::string& cls,
                                      const std::vector<double>& lat) {
      details.push_back(
          {cls + "_tail_ms", Percentile(lat, TailPct(lat.size())), "ms"});
      details.push_back({cls + "_tail_pct", TailPct(lat.size()), "pct"});
      details.push_back({cls + "_n", static_cast<double>(lat.size()), "count"});
    };
    add_class("range", range_lat);
    add_class("knn", knn_lat);
    details.push_back({"p50_ms", Percentile(all, 50), "ms"});
    details.push_back({"measured_s", elapsed, "s"});
    details.push_back({"passes", static_cast<double>(w.passes), "count"});
    details.push_back({"loop_qps",
                       static_cast<double>(queries) * w.passes / elapsed,
                       "1/s"});
  } else {
    LayerContext ctx;
    ctx.db_build_s = Percentile(db_s, 50);
    ctx.index_build_s = Percentile(index_s, 50);
    ctx.engine_ns = engine_ns;
    ctx.engine_p50_ms = Percentile(all, 50);
    ctx.branch_growth = dict_growth;
    for (const Request& r : w.stream) {
      ctx.distinct_queries += Members(w.Inputs(-1), r);
    }
    ctx.workers = w.threads;
    for (const LayerMetric& m : ComputeLayerMetrics(totals, ctx)) {
      metrics.push_back({m.name, m.value, m.unit});
    }
  }
  details.push_back({"tail_pct", TailPct(all.size()), "pct"});
  details.push_back({"tail_n", static_cast<double>(all.size()), "count"});
  details.push_back({"branch_dict_growth", static_cast<double>(dict_growth),
                     "count"});
  details.push_back({"check_s", check_s, "s"});
  details.push_back(
      {"fail_frac",
       static_cast<double>(failed) / static_cast<double>(attempted),
       "fraction"});

  std::printf("workload %s seed %" PRIu64 " records %d requests %zu "
              "threads %d%s\n",
              name.c_str(), seed, n, stream, w.threads,
              smoke ? " scale smoke" : "");
  Print(metrics);
  Print(details);
  std::printf("answer_digest %s\nattempted %" PRId64 "\nfailed %" PRId64
              "\n",
              digest_hex, attempted, failed);

  BenchReport report("treesim_bench");
  report.config()
      .Str("workload", name)
      .Int("seed", static_cast<int64_t>(seed))
      .Double("seconds", seconds)
      .Str("scale", smoke ? "smoke" : "full")
      .Bool("trace", traced)
      .Int("records", n)
      .Int("requests", static_cast<int64_t>(stream))
      .Int("threads", w.threads)
      .Int("setups", w.setups)
      .Int("passes", w.passes);
  report.AddPoint()
      .Str("label", name)
      .Bool("correct", failed == 0)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Str("answer_digest", digest_hex)
      .Raw("metrics", MetricsJson(metrics))
      .Raw("details", MetricsJson(details));
  return report.WriteIfRequested(json_path) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) { return treesim::bench::Main(argc, argv); }
