#include "filters/bibranch_filter.h"

#include <utility>

#include "core/positional.h"
#include "filters/filter_index.h"
#include "util/hot.h"
#include "util/logging.h"
#include "util/safe_math.h"
#include "util/trace.h"

namespace treesim {
namespace {

class BiBranchQueryContext final : public FilterQueryContext {
 public:
  explicit BiBranchQueryContext(BranchProfile profile)
      : profile_(std::move(profile)) {}
  const BranchProfile& profile() const { return profile_; }

 private:
  BranchProfile profile_;
};

}  // namespace

BiBranchFilter::BiBranchFilter() : BiBranchFilter(Options()) {}

BiBranchFilter::BiBranchFilter(Options options)
    : options_(options), index_(options.q) {}

std::string BiBranchFilter::name() const {
  std::string n = "BiBranch(" + std::to_string(options_.q) + ")";
  if (!options_.positional) n += "-plain";
  return n;
}

void BiBranchFilter::Build(const std::vector<Tree>& trees) {
  TREESIM_TRACE_SPAN("filter.bibranch.build");
  TREESIM_CHECK_EQ(index_.tree_count(), 0) << "Build() called twice";
  index_.AddAll(trees);
}

std::unique_ptr<FilterQueryContext> TREESIM_HOT BiBranchFilter::PrepareQuery(
    const Tree& query) const {
  return std::make_unique<BiBranchQueryContext>(
      BranchProfile::FromQuery(query, index_.branch_dict()));
}

double TREESIM_HOT BiBranchFilter::LowerBound(const FilterQueryContext& ctx,
                                              int tree_id) const {
  const auto& q = static_cast<const BiBranchQueryContext&>(ctx);
  const BranchProfile& data = profiles()[static_cast<size_t>(tree_id)];
  if (options_.positional) {
    return OptimisticBound(q.profile(), data);
  }
  return BranchDistanceLowerBound(q.profile(), data);
}

bool TREESIM_HOT BiBranchFilter::MayQualify(const FilterQueryContext& ctx,
                                            int tree_id, double tau) const {
  const auto& q = static_cast<const BiBranchQueryContext&>(ctx);
  const BranchProfile& data = profiles()[static_cast<size_t>(tree_id)];
  // Unit-cost distances are integral, so testing at floor(tau) is exact. A
  // +inf or huge tau saturates to INT_MAX; NaN admits no tree.
  const int itau = SaturatingFloor<int>(tau, /*if_nan=*/-1);
  if (options_.positional) {
    return RangeFilterPasses(q.profile(), data, itau);
  }
  return BranchDistanceLowerBound(q.profile(), data) <= itau;
}

}  // namespace treesim
