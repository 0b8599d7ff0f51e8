#ifndef TREESIM_FILTERS_HISTOGRAM_FILTER_H_
#define TREESIM_FILTERS_HISTOGRAM_FILTER_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "filters/filter_index.h"
#include "tree/tree.h"

namespace treesim {

/// The comparison baseline of Section 5: structure/content histograms in the
/// spirit of Kailing et al. [EDBT 2004] ("Histo" in the paper's figures).
/// Three feature families are combined by taking the max of their bounds:
///
///   label histogram:   EDist >= ceil(L1 / 2)   — one operation changes the
///       label multiset by at most 2 (relabel removes one label, adds one).
///   degree histogram:  EDist >= ceil(L1 / 3)   — deleting n moves its
///       parent's bucket (2 changes) and removes n's own bucket entry (1);
///       insertion is symmetric; relabel changes nothing.
///   scalar structure:  EDist >= |Δheight|, |Δsize|, |Δleaf count| — a
///       single operation changes each scalar by at most 1.
///
/// The published height-HISTOGRAM bound of Kailing et al. targets unordered
/// TED; the variants above are (re)proven for the ordered unit-cost distance
/// the search engine refines with, keeping the engine free of false
/// negatives (see DESIGN.md, substitutions).
class HistogramFilter final : public FilterIndex {
 public:
  struct Options {
    /// Fold label ids into this many buckets (0 = one bucket per label).
    /// Folding models the paper's equal-space normalization and can only
    /// weaken (never unsound) the bound.
    int label_buckets = 0;
    /// Cap degrees at this many buckets (0 = unbounded).
    int degree_buckets = 0;
  };

  /// Default options: unfolded histograms.
  HistogramFilter();
  explicit HistogramFilter(Options options);

  std::string name() const override { return "Histo"; }
  void Build(const std::vector<Tree>& trees) override;
  std::unique_ptr<FilterQueryContext> PrepareQuery(
      const Tree& query) const override;
  double LowerBound(const FilterQueryContext& ctx, int tree_id) const override;

  /// Per-tree feature vector (exposed for tests and Fig. 15).
  struct Features {
    /// (bucket, count), ascending by bucket; bucket = label id (or folded).
    std::vector<std::pair<int, int>> label_hist;
    /// (bucket, count), ascending; bucket = degree (or capped).
    std::vector<std::pair<int, int>> degree_hist;
    int height = 0;
    int size = 0;
    int leaves = 0;
  };

  /// Extracts the features of one tree under this filter's options.
  Features ExtractFeatures(const Tree& t) const;

  /// The combined lower bound between two feature vectors: the max of the
  /// label, degree and scalar bounds above.
  int Bound(const Features& a, const Features& b) const;

 private:
  Options options_;
  std::vector<Features> features_;
};

/// L1 distance between two sparse (bucket, count) histograms sorted by
/// bucket.
int64_t SparseHistogramL1(const std::vector<std::pair<int, int>>& a,
                          const std::vector<std::pair<int, int>>& b);

}  // namespace treesim

#endif  // TREESIM_FILTERS_HISTOGRAM_FILTER_H_
