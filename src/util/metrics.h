#ifndef TREESIM_UTIL_METRICS_H_
#define TREESIM_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/sync.h"

/// Process-wide metrics registry — the one place every layer of the
/// filter-and-refine pipeline reports what it did. The paper's central
/// claim is empirical (candidate counts and per-stage costs stay small,
/// Section 5), so the engine must expose per-stage numbers, not just the
/// coarse per-query QueryStats totals: index build sizes, filter in/out
/// counts, the positional bound chosen per query, stage latencies,
/// thread-pool load, and arithmetic saturations all land here under stable
/// dotted names ("search.knn.candidates", ...).
///
/// Design:
///   * Registration is Mutex-guarded and happens once per site (the
///     TREESIM_COUNTER_* macros below cache the returned reference in a
///     function-local static). Names must be compile-time string literals —
///     the macros enforce this — so the name set is a closed, greppable
///     vocabulary.
///   * The hot path after registration is a single relaxed atomic RMW (two
///     for histograms); no locks, no allocation.
///   * MetricsSnapshot is a consistent-enough copy (each value is read
///     atomically; cross-metric skew is acceptable for monitoring) with a
///     DiffSince() API so benches can attribute deltas to one stage.
///   * Building with -DTREESIM_METRICS=OFF defines
///     TREESIM_METRICS_ENABLED=0: the macros compile to nothing (operands
///     stay syntactically checked but unevaluated, like TREESIM_DCHECK in
///     release) and the registry degenerates to an empty stub, so the
///     library carries zero observability overhead. bench/metrics_overhead
///     is the guard that the stub stays empty.
///
/// tools/lint_treesim.py bans std::chrono outside src/util/ and bench/, so
/// ad-hoc timing cannot bypass this registry; time stages with
/// util/stopwatch.h and record the result into a histogram here, or wrap
/// the stage in a TREESIM_TRACE_SPAN (util/trace.h).

#ifndef TREESIM_METRICS_ENABLED
#define TREESIM_METRICS_ENABLED 1
#endif

namespace treesim {

/// True when the observability layer is compiled in (TREESIM_METRICS=ON).
inline constexpr bool kMetricsEnabled = TREESIM_METRICS_ENABLED != 0;

/// What a registered name refers to; re-registering a name as a different
/// kind is a fatal error (names are a global vocabulary).
enum class MetricKind { kCounter, kGauge, kHistogram, kWindow };

#if TREESIM_METRICS_ENABLED

/// A monotonic counter. Increment is one relaxed fetch_add.
class Counter {
 public:
  void Increment(int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

/// A last-write-wins level (queue depth, dictionary size, ...).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }
  std::atomic<int64_t> value_{0};
};

/// A fixed-bucket histogram over int64 samples (latencies in microseconds,
/// candidate counts, bound gaps). Bucket i counts samples <= bounds[i]
/// (bounds ascending, fixed at registration); one extra overflow bucket
/// counts the rest. Record is a binary search over the immutable bounds
/// plus two relaxed fetch_adds.
class Histogram {
 public:
  explicit Histogram(std::vector<int64_t> bounds);

  void Record(int64_t sample);

  const std::vector<int64_t>& bounds() const { return bounds_; }
  /// Number of buckets including the overflow bucket (bounds().size() + 1).
  int bucket_count() const { return static_cast<int>(bounds_.size()) + 1; }
  int64_t bucket_value(int bucket) const {
    return buckets_[static_cast<size_t>(bucket)].load(
        std::memory_order_relaxed);
  }
  /// Total samples recorded.
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  /// Sum of all recorded samples (saturating is the caller's concern; stage
  /// latencies and candidate counts are far from the int64 range).
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// Last query id (util/query_context.h) that recorded into `bucket`, 0
  /// when every sample in that bucket came from context-free code. Feeds
  /// the Prometheus exemplar annotations.
  int64_t exemplar_id(int bucket) const {
    return exemplar_ids_[static_cast<size_t>(bucket)].load(
        std::memory_order_relaxed);
  }
  /// The sample that query recorded (only meaningful when exemplar_id(b)
  /// is nonzero; id and value are stored with two relaxed stores, so a
  /// concurrent reader may pair them across writes — fine for exemplars).
  int64_t exemplar_value(int bucket) const {
    return exemplar_values_[static_cast<size_t>(bucket)].load(
        std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  void ResetForTest();
  std::vector<int64_t> bounds_;
  std::unique_ptr<std::atomic<int64_t>[]> buckets_;
  std::unique_ptr<std::atomic<int64_t>[]> exemplar_ids_;
  std::unique_ptr<std::atomic<int64_t>[]> exemplar_values_;
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// A sliding window over the last `capacity` samples of a latency series,
/// aggregated at snapshot time into rolling p50/p95/p99 gauges (rendered
/// as `<name>.p50` etc. in every export format) — the live signals a
/// scrape sees, as opposed to the since-process-start histograms. Record
/// is two relaxed stores plus one relaxed fetch_add; the snapshot-side
/// sort touches at most `capacity` values.
class LatencyWindow {
 public:
  explicit LatencyWindow(int capacity);

  /// Records one sample, tagging it with the calling thread's current
  /// query id (0 when none).
  void Record(int64_t sample);

  int capacity() const { return capacity_; }
  int64_t total_recorded() const {
    return head_.load(std::memory_order_relaxed);
  }

  /// Copies the currently retained samples (unordered). Monitoring-grade
  /// consistency: concurrent writers may tear sample/slot pairing.
  std::vector<int64_t> RetainedSamples() const;

 private:
  friend class MetricsRegistry;
  void ResetForTest();
  int capacity_;
  std::unique_ptr<std::atomic<int64_t>[]> samples_;
  std::unique_ptr<std::atomic<int64_t>[]> sample_ids_;
  std::atomic<int64_t> head_{0};
};

#else  // !TREESIM_METRICS_ENABLED

/// Compile-out stubs: identical API, empty bodies, no storage beyond a
/// byte. Call sites that outlive the macros (tests, the CLI dump path)
/// keep compiling; the macros themselves expand to nothing.
class Counter {
 public:
  void Increment(int64_t = 1) {}
  int64_t value() const { return 0; }
};

class Gauge {
 public:
  void Set(int64_t) {}
  void Add(int64_t) {}
  int64_t value() const { return 0; }
};

class Histogram {
 public:
  explicit Histogram(const std::vector<int64_t>&) {}
  void Record(int64_t) {}
  const std::vector<int64_t>& bounds() const;
  int bucket_count() const { return 0; }
  int64_t bucket_value(int) const { return 0; }
  int64_t count() const { return 0; }
  int64_t sum() const { return 0; }
  int64_t exemplar_id(int) const { return 0; }
  int64_t exemplar_value(int) const { return 0; }
};

class LatencyWindow {
 public:
  explicit LatencyWindow(int) {}
  void Record(int64_t) {}
  int capacity() const { return 0; }
  int64_t total_recorded() const { return 0; }
  std::vector<int64_t> RetainedSamples() const { return {}; }
};

#endif  // TREESIM_METRICS_ENABLED

/// A point-in-time copy of every registered metric, plus the folded-in
/// SafeMathStats saturation counter ("safe_math.saturations"). Plain data:
/// copyable, diffable, renderable without touching the registry again.
struct MetricsSnapshot {
  struct HistogramValue {
    std::vector<int64_t> bounds;
    /// bucket_counts.size() == bounds.size() + 1 (last = overflow).
    std::vector<int64_t> bucket_counts;
    int64_t count = 0;
    int64_t sum = 0;
    /// Per-bucket exemplar query ids and the samples they recorded, same
    /// indexing as bucket_counts; empty (the default, and what hand-built
    /// snapshots have) or id 0 means "no exemplar for this bucket".
    std::vector<int64_t> exemplar_ids;
    std::vector<int64_t> exemplar_values;

    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };

  std::map<std::string, int64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramValue> histograms;

  /// Value of a counter, 0 when the name was never registered.
  int64_t counter(const std::string& name) const;
  /// Value of a gauge, 0 when the name was never registered.
  int64_t gauge(const std::string& name) const;
  /// Histogram by name, nullptr when never registered.
  const HistogramValue* histogram(const std::string& name) const;

  /// Per-stage attribution: counters and histogram counts/sums/buckets
  /// become this-minus-earlier; gauges keep this snapshot's level (a level
  /// has no meaningful delta). Metrics registered only after `earlier` keep
  /// their full value.
  MetricsSnapshot DiffSince(const MetricsSnapshot& earlier) const;

  /// Human-readable dump, one metric per line, histograms with non-empty
  /// buckets expanded.
  std::string ToText() const;

  /// Machine-readable dump:
  ///   {"counters":{...},"gauges":{...},
  ///    "histograms":{name:{"bounds":[...],"counts":[...],
  ///                        "count":N,"sum":N}}}
  /// Stable key order (std::map), no external dependency.
  std::string ToJson() const;

  /// Prometheus text exposition (version 0.0.4) of the snapshot: dotted
  /// names sanitized through PrometheusMetricName(), one `# HELP` line
  /// carrying the original dotted name and one `# TYPE` line per metric,
  /// counters suffixed `_total`, histograms encoded as CUMULATIVE
  /// `_bucket{le="..."}` series (upper bounds from the registration-time
  /// bucket bounds, closed by `le="+Inf"`) plus `_sum` and `_count`.
  /// Scrape-ready via `treesim_cli <cmd> --metrics=prometheus`.
  std::string ToPrometheus() const;
};

/// Sanitizes a dotted metric name into the Prometheus name alphabet
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` and prefixes the `treesim_` namespace:
/// "search.knn.filter_micros" -> "treesim_search_knn_filter_micros".
/// Every character outside the alphabet becomes '_'.
std::string PrometheusMetricName(const std::string& name);

/// Escapes a label value or HELP text per the exposition format:
/// backslash, double quote and newline become \\, \" and \n.
std::string PrometheusLabelEscape(const std::string& value);

/// The process-wide registry. Get*() registers on first use and returns a
/// stable reference (metrics are never unregistered, so cached references
/// in function-local statics stay valid for the process lifetime).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  /// Registers (first call) or finds (later calls) a counter. Fatal when
  /// `name` is already registered as a different kind.
  Counter& GetCounter(const std::string& name);

  /// Same contract for gauges.
  Gauge& GetGauge(const std::string& name);

  /// Same contract for histograms; later calls must pass identical bounds
  /// (the buckets are part of the metric's meaning).
  Histogram& GetHistogram(const std::string& name,
                          const std::vector<int64_t>& bounds);

  /// Same contract for sliding latency windows (fixed 512-sample window).
  /// Snapshot() renders a window as three gauges: `<name>.p50`, `.p95`,
  /// `.p99` (0 until the first sample).
  LatencyWindow& GetWindow(const std::string& name);

  /// Number of registered metrics (0 under TREESIM_METRICS=OFF — the
  /// compile-out guard in bench/metrics_overhead asserts this).
  int metric_count() const;

  /// Copies every metric (plus "safe_math.saturations") into a snapshot.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric's value without unregistering anything
  /// (cached references must stay valid). Tests only — concurrent writers
  /// would make the zeroing torn.
  void ResetForTest();

 private:
  MetricsRegistry() = default;

#if TREESIM_METRICS_ENABLED
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<LatencyWindow> window;
  };
  mutable Mutex mu_ TREESIM_LOCK_RANK(40);
  std::map<std::string, Entry> entries_ TREESIM_GUARDED_BY(mu_);
#endif
};

/// A signal-safe view of one registered metric for the crash handler
/// (util/triage.cc): the name is copied into fixed storage at registration
/// and the pointers are to registry-owned objects that are never freed, so
/// reading `counter->value()` etc. from a signal handler touches only
/// relaxed atomic loads. Windows are not indexed (their snapshot requires
/// allocation and sorting).
struct CrashMetricView {
  char name[64] = {0};
  MetricKind kind = MetricKind::kCounter;
  const Counter* counter = nullptr;
  const Gauge* gauge = nullptr;
  const Histogram* histogram = nullptr;
};

#if TREESIM_METRICS_ENABLED
/// Copies up to `max_out` registered-metric views (registration order)
/// into caller storage without allocating or locking. Safe to call from a
/// signal handler. Returns the count.
int CrashMetricViews(CrashMetricView* out, int max_out);
#else
inline int CrashMetricViews(CrashMetricView*, int) { return 0; }
#endif

/// Canonical bucket sets, so related metrics stay comparable.
/// Powers of two from 1us to ~8.4s plus overflow — stage latencies.
std::vector<int64_t> LatencyBucketsMicros();
/// Powers of two from 1 to ~1M plus overflow — candidate/list-length style
/// counts.
std::vector<int64_t> CountBuckets();
/// 0,1,2,...,31 plus overflow — small values like bound gaps and chosen
/// positional radii.
std::vector<int64_t> SmallValueBuckets();

}  // namespace treesim

// Instrumentation macros. `name` must be a string literal (enforced by the
// `name ""` concatenation); the metric reference is resolved once per call
// site and cached in a function-local static. Under TREESIM_METRICS=OFF
// everything expands to an unevaluated operand, so instrumented hot paths
// carry no code at all.
#if TREESIM_METRICS_ENABLED

#define TREESIM_COUNTER_ADD(name, delta)                            \
  do {                                                              \
    static ::treesim::Counter& treesim_metric_counter_ =            \
        ::treesim::MetricsRegistry::Global().GetCounter(name "");   \
    treesim_metric_counter_.Increment(delta);                       \
  } while (false)

#define TREESIM_COUNTER_INC(name) TREESIM_COUNTER_ADD(name, 1)

#define TREESIM_GAUGE_SET(name, value)                              \
  do {                                                              \
    static ::treesim::Gauge& treesim_metric_gauge_ =                \
        ::treesim::MetricsRegistry::Global().GetGauge(name "");     \
    treesim_metric_gauge_.Set(value);                               \
  } while (false)

#define TREESIM_HISTOGRAM_RECORD(name, bounds, sample)              \
  do {                                                              \
    static ::treesim::Histogram& treesim_metric_histogram_ =        \
        ::treesim::MetricsRegistry::Global().GetHistogram(name "",  \
                                                          (bounds)); \
    treesim_metric_histogram_.Record(sample);                       \
  } while (false)

#define TREESIM_WINDOW_RECORD(name, sample)                         \
  do {                                                              \
    static ::treesim::LatencyWindow& treesim_metric_window_ =       \
        ::treesim::MetricsRegistry::Global().GetWindow(name "");    \
    treesim_metric_window_.Record(sample);                          \
  } while (false)

#else  // !TREESIM_METRICS_ENABLED

// Operands stay compiled (no -Wunused rot, typos still fail the OFF build)
// but are never evaluated — the same trick release-mode TREESIM_DCHECK uses.
#define TREESIM_COUNTER_ADD(name, delta) \
  while (false) static_cast<void>(static_cast<int64_t>(delta))
#define TREESIM_COUNTER_INC(name) static_cast<void>(name "")
#define TREESIM_GAUGE_SET(name, value) \
  while (false) static_cast<void>(static_cast<int64_t>(value))
#define TREESIM_HISTOGRAM_RECORD(name, bounds, sample)              \
  while (false)                                                     \
  static_cast<void>(static_cast<int64_t>(sample) +                  \
                    static_cast<int64_t>((bounds).size()))
#define TREESIM_WINDOW_RECORD(name, sample) \
  while (false) static_cast<void>(static_cast<int64_t>(sample))

#endif  // TREESIM_METRICS_ENABLED

#endif  // TREESIM_UTIL_METRICS_H_
