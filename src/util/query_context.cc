#include "util/query_context.h"

#if TREESIM_METRICS_ENABLED

#include <atomic>

namespace treesim {
namespace {

QueryContext& CurrentSlot() {
  thread_local QueryContext current;
  return current;
}

}  // namespace

const QueryContext& CurrentQueryContext() { return CurrentSlot(); }

int64_t AllocateQueryId() {
  static std::atomic<int64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

ScopedQueryContext::ScopedQueryContext(const char* tag) {
  current_.query_id = AllocateQueryId();
  current_.tag = tag;
  QueryContext& slot = CurrentSlot();
  saved_ = slot;
  slot = current_;
}

ScopedQueryContext::ScopedQueryContext(const QueryContext& ctx)
    : current_(ctx) {
  QueryContext& slot = CurrentSlot();
  saved_ = slot;
  slot = current_;
}

ScopedQueryContext::~ScopedQueryContext() { CurrentSlot() = saved_; }

}  // namespace treesim

#endif  // TREESIM_METRICS_ENABLED
