#ifndef TREESIM_UTIL_QUERY_CONTEXT_H_
#define TREESIM_UTIL_QUERY_CONTEXT_H_

#include <cstdint>

#include "util/metrics.h"  // kMetricsEnabled

namespace treesim {

/// The identity of the query a thread is currently working for. Carried in
/// a thread-local, captured by ThreadPool::Schedule at submission and
/// restored in the worker, so trace spans, structured-log records, metric
/// exemplars, and flight-recorder entries emitted anywhere in a query's
/// fan-out share one id — making --trace, --query-log, and Prometheus
/// output joinable.
///
/// query_id == 0 means "no context": telemetry that keys off the context
/// treats 0 as absent and emits nothing query-scoped.
struct QueryContext {
  int64_t query_id = 0;
  /// Operation tag ("range", "knn", ...). Must be a string literal or
  /// otherwise outlive every task holding the context.
  const char* tag = "";
};

#if TREESIM_METRICS_ENABLED

/// The calling thread's current context ({0,""} when none is active).
const QueryContext& CurrentQueryContext();

/// Next process-wide query id (monotonic, starts at 1; 0 is reserved for
/// "no context"). Ids are allocated on the *calling* thread, before any
/// pool fan-out, so the id→query mapping is deterministic for a fixed call
/// sequence regardless of pool size.
int64_t AllocateQueryId();

/// RAII save/restore of the thread-local context. Non-copyable; scopes
/// nest (an inner query — e.g. Knn inside BatchKnn — shadows the outer id
/// until it closes).
class ScopedQueryContext {
 public:
  /// Opens a fresh context: allocates the id on this thread.
  explicit ScopedQueryContext(const char* tag);
  /// Adopts an existing context (worker-thread restore path).
  explicit ScopedQueryContext(const QueryContext& ctx);
  ~ScopedQueryContext();

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

  int64_t query_id() const { return current_.query_id; }
  const QueryContext& context() const { return current_; }

 private:
  QueryContext saved_;
  QueryContext current_;
};

#else  // !TREESIM_METRICS_ENABLED — zero-overhead stubs; ids stay 0.

inline const QueryContext& CurrentQueryContext() {
  static const QueryContext kNone;
  return kNone;
}

inline int64_t AllocateQueryId() { return 0; }

class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(const char*) {}
  explicit ScopedQueryContext(const QueryContext&) {}

  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

  int64_t query_id() const { return 0; }
  const QueryContext& context() const { return CurrentQueryContext(); }
};

#endif  // TREESIM_METRICS_ENABLED

}  // namespace treesim

#endif  // TREESIM_UTIL_QUERY_CONTEXT_H_
