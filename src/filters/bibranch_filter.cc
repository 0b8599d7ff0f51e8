#include "filters/bibranch_filter.h"

#include <utility>

#include "filters/filter_index.h"
#include "util/hot.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/random.h"
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
  TREESIM_CHECK(profiles_.empty()) << "Build() called twice";
  index_.AddAll(trees, options_.build_pool);
  profiles_ = index_.BuildProfiles();
  if (options_.use_vptree) {
    Rng rng(0x5eed);  // fixed seed: deterministic index shape
    vptree_ = std::make_unique<VpTree>(&profiles_, rng);
  }
}

std::unique_ptr<FilterQueryContext> TREESIM_HOT BiBranchFilter::PrepareQuery(
    const Tree& query) {
  return std::make_unique<BiBranchQueryContext>(
      BranchProfile::FromTree(query, index_.branch_dict()));
}

double TREESIM_HOT BiBranchFilter::LowerBound(const FilterQueryContext& ctx,
                                              int tree_id) const {
  const auto& q = static_cast<const BiBranchQueryContext&>(ctx);
  const BranchProfile& data = profiles_[static_cast<size_t>(tree_id)];
  if (options_.positional) {
    return OptimisticBound(q.profile(), data, options_.matching);
  }
  return BranchDistanceLowerBound(q.profile(), data);
}

std::optional<std::vector<int>> TREESIM_HOT BiBranchFilter::TryRangeCandidates(
    const FilterQueryContext& ctx, double tau) const {
  if (vptree_ == nullptr) return std::nullopt;
  const auto& q = static_cast<const BiBranchQueryContext&>(ctx);
  const int itau = SaturatingFloor<int>(tau, /*if_nan=*/-1);
  if (itau < 0) return std::vector<int>{};
  // Anything a BDist-based filter keeps satisfies
  // BDist <= factor * tau (Theorem 3.2/3.3), so the metric ball around the
  // query with that radius is a complete candidate set...
  int64_t calls = 0;
  std::vector<int> ball = vptree_->RangeSearch(
      q.profile(),
      CheckedMul<int64_t>(index_.branch_dict().edit_distance_factor(), itau),
      &calls);
  vptree_distance_calls_.fetch_add(calls, std::memory_order_relaxed);
  TREESIM_COUNTER_ADD("filter.bibranch.ball_candidates",
                      static_cast<int64_t>(ball.size()));
  if (!options_.positional) return ball;
  // ... which the positional test then narrows to exactly the MayQualify
  // set (the ball already guarantees the BDist part).
  std::vector<int> candidates;
  candidates.reserve(ball.size());
  for (const int id : ball) {
    if (RangeFilterPasses(q.profile(),
                          profiles_[static_cast<size_t>(id)], itau,
                          options_.matching)) {
      candidates.push_back(id);
    }
  }
  TREESIM_COUNTER_ADD("filter.bibranch.positional_survivors",
                      static_cast<int64_t>(candidates.size()));
  return candidates;
}

bool TREESIM_HOT BiBranchFilter::MayQualify(const FilterQueryContext& ctx,
                                            int tree_id, double tau) const {
  const auto& q = static_cast<const BiBranchQueryContext&>(ctx);
  const BranchProfile& data = profiles_[static_cast<size_t>(tree_id)];
  // Unit-cost distances are integral, so testing at floor(tau) is exact. A
  // +inf or huge tau saturates to INT_MAX; NaN admits no tree.
  const int itau = SaturatingFloor<int>(tau, /*if_nan=*/-1);
  TREESIM_COUNTER_INC("filter.bibranch.checked");
  bool pass;
  if (options_.positional) {
    pass = RangeFilterPasses(q.profile(), data, itau, options_.matching);
  } else {
    pass = BranchDistanceLowerBound(q.profile(), data) <= itau;
  }
  if (pass) TREESIM_COUNTER_INC("filter.bibranch.passed");
  return pass;
}

}  // namespace treesim
