#include "search/similarity_join.h"

#include <memory>
#include <utility>

#include "filters/filter_index.h"
#include "search/pipeline_internal.h"
#include "util/logging.h"
#include "util/safe_math.h"
#include "util/structured_log.h"
#include "util/thread_pool.h"

namespace treesim {

SimilarityJoin::SimilarityJoin(const TreeDatabase* right,
                               std::unique_ptr<FilterIndex> filter)
    : right_(right), filter_(std::move(filter)) {
  TREESIM_CHECK(right_ != nullptr);
  if (filter_ != nullptr) filter_->Build(right_->trees());
  indexed_size_ = right_->size();
}

JoinResult SimilarityJoin::Join(const TreeDatabase& left, int tau,
                                ThreadPool* pool) const {
  return JoinImpl(left, tau, /*self=*/false, pool);
}

JoinResult SimilarityJoin::SelfJoin(int tau, ThreadPool* pool) const {
  return JoinImpl(*right_, tau, /*self=*/true, pool);
}

JoinResult SimilarityJoin::JoinImpl(const TreeDatabase& left, int tau,
                                    bool self, ThreadPool* pool) const {
  TREESIM_CHECK(left.label_dict() == right_->label_dict())
      << "join sides must share one label dictionary";
  static const pipeline::Op join_op(pipeline::OpKind::kJoin, "join",
                                    "search.join", "search.join.filter",
                                    "search.join.refine");
  static const pipeline::Op self_join_op(
      pipeline::OpKind::kJoin, "join", "search.join", "search.join.filter",
      "search.join.refine", /*event=*/"self_join");
  const pipeline::Op& op = self ? self_join_op : join_op;
  const pipeline::QueryScope scope(op);
  const pipeline::Engine engine(*right_, filter_.get(), indexed_size_);
  JoinResult result;

  // Each left tree probes into its own slot, over the pool's workers or
  // inline without one; a self join probes each unordered pair once, from
  // its smaller id.
  struct Slot {
    std::vector<std::pair<int, int>> matches;  // (right id, distance)
    QueryStats stats;
  };
  std::vector<Slot> slots(static_cast<size_t>(left.size()));
  ParallelFor(pool, left.size(), [&](int64_t li) {
    const int l = static_cast<int>(li);
    Slot& slot = slots[static_cast<size_t>(l)];
    slot.matches = engine.Probe(op, pipeline::UnitCosts{}, left.tree(l),
                                left.ted_view(l), tau, self ? l + 1 : 0,
                                slot.stats);
  });

  // Merge in left order. Each slot ascends by right id, so the
  // concatenation ascends by (l, r) for any pool size.
  size_t total_pairs = 0;
  for (const Slot& slot : slots) {
    total_pairs = CheckedAdd(total_pairs, slot.matches.size());
  }
  result.pairs.reserve(total_pairs);
  for (int l = 0; l < left.size(); ++l) {
    const Slot& slot = slots[static_cast<size_t>(l)];
    result.stats += slot.stats;
    for (const auto& [r, d] : slot.matches) result.pairs.emplace_back(l, r, d);
  }
  result.stats.results = static_cast<int64_t>(result.pairs.size());
  scope.Finish(tau, result.stats, filter_.get(), [&](LogRecord& line) {
    line.Int("left_size", left.size());
  });
  return result;
}

}  // namespace treesim
