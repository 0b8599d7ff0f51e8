#ifndef TREESIM_FILTERS_BIBRANCH_FILTER_H_
#define TREESIM_FILTERS_BIBRANCH_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/branch_profile.h"
#include "core/inverted_file.h"
#include "filters/filter_index.h"
#include "util/thread_pool.h"

namespace treesim {

/// The paper's filter: q-level binary branch vectors with (optionally)
/// positional information. Lower bounds:
///   positional:  propt from the SearchLBound binary search (Section 4.2),
///                with the PosBDist(tau) single-shot test for range queries
///                (Section 4.3);
///   plain:       ceil(BDist / (4(q-1)+1)) (Theorem 3.2/3.3).
class BiBranchFilter final : public FilterIndex {
 public:
  struct Options {
    /// Branch level; 2 is the binary branch of Definition 2.
    int q = 2;
    /// Use positional binary branches (the paper's full method). When
    /// false, only the occurrence counts are compared (plain BDist).
    bool positional = true;
    /// Unused: Build() is sequential. Kept only because existing callers
    /// still set it; it is to be deleted with them.
    ThreadPool* build_pool = nullptr;
  };

  /// Default options: q = 2, positional.
  BiBranchFilter();
  explicit BiBranchFilter(Options options);

  std::string name() const override;
  void Build(const std::vector<Tree>& trees) override;
  std::unique_ptr<FilterQueryContext> PrepareQuery(
      const Tree& query) const override;
  double LowerBound(const FilterQueryContext& ctx, int tree_id) const override;
  bool MayQualify(const FilterQueryContext& ctx, int tree_id,
                  double tau) const override;

  /// The underlying inverted file (for inspection/examples).
  const InvertedFileIndex& inverted_file() const { return index_; }

  /// Database profiles, indexed by tree id (for inspection/tests); the
  /// inverted file owns them.
  const std::vector<BranchProfile>& profiles() const {
    return index_.profiles();
  }

 private:
  Options options_;
  InvertedFileIndex index_;
};

}  // namespace treesim

#endif  // TREESIM_FILTERS_BIBRANCH_FILTER_H_
