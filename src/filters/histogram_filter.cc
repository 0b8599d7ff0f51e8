#include "filters/histogram_filter.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>

#include "filters/filter_index.h"
#include "tree/traversal.h"
#include "util/hot.h"
#include "util/logging.h"
#include "util/safe_math.h"

namespace treesim {
namespace {

class HistogramQueryContext final : public FilterQueryContext {
 public:
  explicit HistogramQueryContext(HistogramFilter::Features features)
      : features_(std::move(features)) {}
  const HistogramFilter::Features& features() const { return features_; }

 private:
  HistogramFilter::Features features_;
};

std::vector<std::pair<int, int>> ToSparseHistogram(
    const std::map<int, int>& counts) {
  std::vector<std::pair<int, int>> out(counts.begin(), counts.end());
  return out;  // std::map iterates in ascending bucket order
}

}  // namespace

int64_t SparseHistogramL1(const std::vector<std::pair<int, int>>& a,
                          const std::vector<std::pair<int, int>>& b) {
  int64_t dist = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first == b[j].first) {
      dist = CheckedAdd<int64_t>(dist, std::abs(a[i].second - b[j].second));
      ++i;
      ++j;
    } else if (a[i].first < b[j].first) {
      dist = CheckedAdd<int64_t>(dist, a[i].second);
      ++i;
    } else {
      dist = CheckedAdd<int64_t>(dist, b[j].second);
      ++j;
    }
  }
  for (; i < a.size(); ++i) dist = CheckedAdd<int64_t>(dist, a[i].second);
  for (; j < b.size(); ++j) dist = CheckedAdd<int64_t>(dist, b[j].second);
  return dist;
}

HistogramFilter::HistogramFilter() : HistogramFilter(Options()) {}

HistogramFilter::HistogramFilter(Options options) : options_(options) {}

HistogramFilter::Features HistogramFilter::ExtractFeatures(
    const Tree& t) const {
  Features f;
  f.size = t.size();
  f.height = TreeHeight(t);
  f.leaves = LeafCount(t);

  std::map<int, int> labels;
  for (NodeId n = 0; n < t.size(); ++n) {
    int bucket = static_cast<int>(t.label(n));
    if (options_.label_buckets > 0) bucket %= options_.label_buckets;
    ++labels[bucket];
  }
  f.label_hist = ToSparseHistogram(labels);

  std::map<int, int> degrees;
  for (const int d : NodeDegrees(t)) {
    int bucket = d;
    if (options_.degree_buckets > 0) {
      bucket = std::min(bucket, options_.degree_buckets - 1);
    }
    ++degrees[bucket];
  }
  f.degree_hist = ToSparseHistogram(degrees);
  return f;
}

int HistogramFilter::Bound(const Features& a, const Features& b) const {
  int64_t bound = 0;
  if (options_.use_label) {
    // One edit operation changes the (folded) label multiset by <= 2.
    bound = std::max(bound, (SparseHistogramL1(a.label_hist, b.label_hist) + 1) / 2);
  }
  if (options_.use_degree) {
    // One edit operation changes the (capped) degree histogram by <= 3.
    bound = std::max(bound,
                     (SparseHistogramL1(a.degree_hist, b.degree_hist) + 2) / 3);
  }
  if (options_.use_scalars) {
    // One edit operation changes height, size and leaf count by <= 1 each.
    bound = std::max<int64_t>(bound, std::abs(a.height - b.height));
    bound = std::max<int64_t>(bound, std::abs(a.size - b.size));
    bound = std::max<int64_t>(bound, std::abs(a.leaves - b.leaves));
  }
  return CheckedCast<int>(bound);
}

void HistogramFilter::Build(const std::vector<Tree>& trees) {
  TREESIM_CHECK(features_.empty()) << "Build() called twice";
  features_.reserve(trees.size());
  for (const Tree& t : trees) features_.push_back(ExtractFeatures(t));
}

std::unique_ptr<FilterQueryContext> TREESIM_HOT HistogramFilter::PrepareQuery(
    const Tree& query) const {
  return std::make_unique<HistogramQueryContext>(ExtractFeatures(query));
}

double TREESIM_HOT HistogramFilter::LowerBound(const FilterQueryContext& ctx,
                                               int tree_id) const {
  const auto& q = static_cast<const HistogramQueryContext&>(ctx);
  return Bound(q.features(), features_[static_cast<size_t>(tree_id)]);
}

}  // namespace treesim
