#include "filters/sequence_filter.h"

#include <algorithm>
#include <utility>

#include "filters/filter_index.h"
#include "strgram/string_edit_distance.h"
#include "tree/traversal.h"
#include "util/hot.h"
#include "util/logging.h"
#include "util/safe_math.h"

namespace treesim {
namespace {

class SequenceQueryContext final : public FilterQueryContext {
 public:
  explicit SequenceQueryContext(SequenceFilter::TreeSequences sequences)
      : sequences_(std::move(sequences)) {}
  const SequenceFilter::TreeSequences& sequences() const {
    return sequences_;
  }

 private:
  SequenceFilter::TreeSequences sequences_;
};

}  // namespace

SequenceFilter::SequenceFilter() : SequenceFilter(Options()) {}

SequenceFilter::SequenceFilter(Options options) : options_(options) {
  TREESIM_CHECK_GE(options_.q, 1);
}

std::string SequenceFilter::name() const {
  return options_.mode == Options::Mode::kEditDistance
             ? "SeqED"
             : "SeqQGram(" + std::to_string(options_.q) + ")";
}

SequenceFilter::TreeSequences SequenceFilter::Extract(const Tree& t) const {
  TreeSequences s;
  s.pre.reserve(static_cast<size_t>(t.size()));
  for (const NodeId n : PreorderSequence(t)) s.pre.push_back(t.label(n));
  s.post.reserve(static_cast<size_t>(t.size()));
  for (const NodeId n : PostorderSequence(t)) s.post.push_back(t.label(n));
  if (options_.mode == Options::Mode::kQGram) {
    s.pre_grams = std::make_unique<QGramProfile>(s.pre, options_.q);
    s.post_grams = std::make_unique<QGramProfile>(s.post, options_.q);
  }
  return s;
}

void SequenceFilter::Build(const std::vector<Tree>& trees) {
  TREESIM_CHECK(sequences_.empty()) << "Build() called twice";
  sequences_.reserve(trees.size());
  for (const Tree& t : trees) sequences_.push_back(Extract(t));
}

std::unique_ptr<FilterQueryContext> TREESIM_HOT SequenceFilter::PrepareQuery(
    const Tree& query) const {
  return std::make_unique<SequenceQueryContext>(Extract(query));
}

double TREESIM_HOT SequenceFilter::LowerBound(const FilterQueryContext& ctx,
                                              int tree_id) const {
  const TreeSequences& q =
      static_cast<const SequenceQueryContext&>(ctx).sequences();
  const TreeSequences& data = sequences_[static_cast<size_t>(tree_id)];
  if (options_.mode == Options::Mode::kEditDistance) {
    return std::max(StringEditDistance(q.pre, data.pre),
                    StringEditDistance(q.post, data.post));
  }
  return std::max(QGramLowerBound(*q.pre_grams, *data.pre_grams),
                  QGramLowerBound(*q.post_grams, *data.post_grams));
}

bool TREESIM_HOT SequenceFilter::MayQualify(const FilterQueryContext& ctx,
                                            int tree_id, double tau) const {
  // Saturating floor: +inf or a huge tau tests at INT_MAX, NaN admits none.
  const int itau = SaturatingFloor<int>(tau, /*if_nan=*/-1);
  if (itau < 0) return false;
  if (options_.mode == Options::Mode::kEditDistance) {
    // The banded SED answers the threshold question in O(tau * n).
    const TreeSequences& q =
        static_cast<const SequenceQueryContext&>(ctx).sequences();
    const TreeSequences& data = sequences_[static_cast<size_t>(tree_id)];
    return StringEditDistanceBounded(q.pre, data.pre, itau) <= itau &&
           StringEditDistanceBounded(q.post, data.post, itau) <= itau;
  }
  return LowerBound(ctx, tree_id) <= tau;
}

}  // namespace treesim
