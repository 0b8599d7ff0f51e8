#ifndef TREESIM_FILTERS_FILTER_INDEX_H_
#define TREESIM_FILTERS_FILTER_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "tree/tree.h"

namespace treesim {

/// Query-side state a FilterIndex derives once per query tree (e.g. the
/// query's branch profile) and reuses against every database tree.
class FilterQueryContext {
 public:
  virtual ~FilterQueryContext() = default;
};

/// A lower-bounding filter over a fixed database of trees, pluggable into
/// the filter-and-refine engine (Section 4.1). Implementations must be
/// SOUND: LowerBound() never exceeds the exact tree edit distance, so the
/// engine reports no false negatives.
///
/// The refine stage these bounds gate is itself threshold-bounded
/// (ted/bounded_ted.h): the engine hands the verifier the same tau (or
/// current kth-best distance) the filter pruned against, and the verifier
/// only promises exactness up to that threshold. A sound bound therefore
/// stays sufficient — every surviving candidate is verified exactly within
/// the threshold — but an UNSOUND bound would now fail in two places
/// instead of one (wrongly pruned AND wrongly clamped).
///
/// Build() is the one writer. Every query member is const and only reads
/// the built index, so queries never change it and any number of threads
/// may query one filter at once.
class FilterIndex {
 public:
  virtual ~FilterIndex() = default;

  /// Short name for reports ("BiBranch", "Histo", ...).
  virtual std::string name() const = 0;

  /// Indexes the database. Called once, before any query.
  virtual void Build(const std::vector<Tree>& trees) = 0;

  /// Derives the per-query state.
  virtual std::unique_ptr<FilterQueryContext> PrepareQuery(
      const Tree& query) const = 0;

  /// A lower bound of EDist(query, tree `tree_id`).
  virtual double LowerBound(const FilterQueryContext& ctx, int tree_id) const = 0;

  /// Range-query test: false when the tree is certainly farther than `tau`.
  /// Default uses LowerBound(); overridden where a cheaper tau-specific test
  /// exists (the positional BiBranch filter, Section 4.3).
  virtual bool MayQualify(const FilterQueryContext& ctx, int tree_id,
                          double tau) const {
    return LowerBound(ctx, tree_id) <= tau;
  }
};

}  // namespace treesim

#endif  // TREESIM_FILTERS_FILTER_INDEX_H_
