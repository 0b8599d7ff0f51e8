#ifndef TREESIM_FILTERS_SEQUENCE_FILTER_H_
#define TREESIM_FILTERS_SEQUENCE_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "filters/filter_index.h"
#include "strgram/qgram.h"

namespace treesim {

/// The sequence-based lower bounds discussed in Section 2.2: a tree edit
/// script of length k induces string edit scripts of length <= k on both the
/// preorder and the postorder label sequences, so
///
///   EDist >= max(SED(pre1, pre2), SED(post1, post2))      [Guha et al. 15]
///
/// and, one level cheaper, Ukkonen's q-gram count filter applied to those
/// sequences. The exact-SED mode is the O(|T1||T2|)-per-pair filter the
/// paper criticizes as unscalable (kept as a faithful related-work baseline
/// and for the ablation benches); the q-gram mode is linear like the binary
/// branch filter but blind to tree structure beyond the traversal order.
class SequenceFilter final : public FilterIndex {
 public:
  struct Options {
    enum class Mode {
      /// max of the two exact string edit distances (tight, quadratic).
      kEditDistance,
      /// max of the two q-gram count bounds (loose, linear).
      kQGram,
    };
    Mode mode = Mode::kQGram;
    /// Window length for kQGram.
    int q = 2;
  };

  /// Per-tree derived data: the two traversal sequences and, in q-gram
  /// mode, their gram profiles.
  struct TreeSequences {
    std::vector<LabelId> pre;
    std::vector<LabelId> post;
    std::unique_ptr<QGramProfile> pre_grams;   // kQGram only
    std::unique_ptr<QGramProfile> post_grams;  // kQGram only
  };

  /// Default options: q-gram mode with q = 2.
  SequenceFilter();
  explicit SequenceFilter(Options options);

  std::string name() const override;
  void Build(const std::vector<Tree>& trees) override;
  std::unique_ptr<FilterQueryContext> PrepareQuery(
      const Tree& query) const override;
  double LowerBound(const FilterQueryContext& ctx, int tree_id) const override;
  bool MayQualify(const FilterQueryContext& ctx, int tree_id,
                  double tau) const override;

  /// Extracts the per-tree data under this filter's options (exposed for
  /// tests and ablation benches).
  TreeSequences Extract(const Tree& t) const;

 private:
  Options options_;
  std::vector<TreeSequences> sequences_;
};

}  // namespace treesim

#endif  // TREESIM_FILTERS_SEQUENCE_FILTER_H_
