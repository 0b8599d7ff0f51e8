#include "search/similarity_join.h"

#include <memory>
#include <utility>

#include "filters/filter_index.h"
#include "search/pipeline_internal.h"
#include "util/logging.h"
#include "util/safe_math.h"
#include "util/stopwatch.h"
#include "util/structured_log.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace treesim {

SimilarityJoin::SimilarityJoin(const TreeDatabase* right,
                               std::unique_ptr<FilterIndex> filter)
    : right_(right), filter_(std::move(filter)) {
  TREESIM_CHECK(right_ != nullptr);
  if (filter_ != nullptr) filter_->Build(right_->trees());
}

JoinResult SimilarityJoin::Join(const TreeDatabase& left, int tau,
                                ThreadPool* pool) {
  return JoinImpl(left, tau, /*self=*/false, pool);
}

JoinResult SimilarityJoin::SelfJoin(int tau, ThreadPool* pool) {
  return JoinImpl(*right_, tau, /*self=*/true, pool);
}

JoinResult SimilarityJoin::JoinImpl(const TreeDatabase& left, int tau,
                                    bool self, ThreadPool* pool) {
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
  const pipeline::Engine engine{*right_, filter_.get()};
  JoinResult result;

  // Phase 1, sequential: every left tree's filter context, prepared in left
  // order (PrepareQuery may extend the filter's shared dictionaries, so it
  // must not interleave, and id order keeps any interning deterministic).
  Stopwatch filter_timer;
  std::vector<std::unique_ptr<FilterQueryContext>> contexts(
      static_cast<size_t>(left.size()));
  {
    const TraceSpan span(op.filter_span);
    for (int l = 0; l < left.size(); ++l) {
      contexts[static_cast<size_t>(l)] = engine.Prepare(left.tree(l));
    }
  }
  result.stats.filter_seconds = filter_timer.ElapsedSeconds();

  // Phase 2, parallel (inline without a pool): each left tree probes and
  // refines into its own slot, a self join each unordered pair once from its
  // smaller id. The probe is timed as refinement at every thread count.
  struct Slot {
    std::vector<std::pair<int, int>> matches;  // (right id, distance)
    int64_t candidates = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(left.size()));
  Stopwatch refine_timer;
  {
    const TraceSpan span(op.refine_span);
    ParallelFor(pool, left.size(), [&](int64_t li) {
      const int l = static_cast<int>(li);
      const FilterQueryContext* ctx = contexts[static_cast<size_t>(l)].get();
      const std::vector<int> candidates =
          engine.Candidates(ctx, tau, self ? l + 1 : 0);
      Slot& slot = slots[static_cast<size_t>(l)];
      slot.candidates = static_cast<int64_t>(candidates.size());
      slot.matches = engine.Refine(pipeline::UnitCosts{}, ctx,
                                   left.ted_view(l), candidates, tau,
                                   /*pool=*/nullptr);
    });
  }
  result.stats.refine_seconds = refine_timer.ElapsedSeconds();

  // Phase 3, sequential: merge in left order. Each slot ascends by right id,
  // so the concatenation ascends by (l, r) for any pool size.
  size_t total_pairs = 0;
  for (const Slot& slot : slots) {
    total_pairs = CheckedAdd(total_pairs, slot.matches.size());
  }
  result.pairs.reserve(total_pairs);
  for (int l = 0; l < left.size(); ++l) {
    const Slot& slot = slots[static_cast<size_t>(l)];
    result.stats.database_size = CheckedAdd<int64_t>(
        result.stats.database_size, right_->size() - (self ? l + 1 : 0));
    result.stats.candidates =
        CheckedAdd(result.stats.candidates, slot.candidates);
    for (const auto& [r, d] : slot.matches) result.pairs.emplace_back(l, r, d);
  }
  result.stats.edit_distance_calls = result.stats.candidates;
  result.stats.results = static_cast<int64_t>(result.pairs.size());
  scope.Finish(tau, result.stats, filter_.get(), [&](LogRecord& line) {
    line.Int("left_size", left.size());
  });
  return result;
}

}  // namespace treesim
