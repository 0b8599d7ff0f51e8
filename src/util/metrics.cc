#include "util/metrics.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/json.h"
#include "util/logging.h"
#include "util/query_context.h"
#include "util/safe_math.h"
#include "util/sync.h"

namespace treesim {
namespace {

/// `[v0,v1,...]`, for JsonObject::Raw.
std::string Int64Array(const std::vector<int64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(values[i]);
  }
  out += ']';
  return out;
}

}  // namespace

#if TREESIM_METRICS_ENABLED

Histogram::Histogram(std::vector<int64_t> bounds) : bounds_(std::move(bounds)) {
  TREESIM_CHECK(!bounds_.empty()) << "a histogram needs at least one bucket";
  TREESIM_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bucket bounds must ascend";
  TREESIM_CHECK(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                bounds_.end())
      << "histogram bucket bounds must be distinct";
  buckets_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  exemplar_ids_ = std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  exemplar_values_ =
      std::make_unique<std::atomic<int64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0);
    exemplar_ids_[i].store(0);
    exemplar_values_[i].store(0);
  }
}

void Histogram::Record(int64_t sample) {
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), sample) -
      bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  // Exemplar: remember which query last landed in this bucket, so the
  // Prometheus exposition can point an operator at a concrete --query-log
  // record. Only when a context is active — context-free recording (tests,
  // benches, startup) must leave exports byte-identical.
  const int64_t query_id = CurrentQueryContext().query_id;
  if (query_id != 0) {
    exemplar_values_[bucket].store(sample, std::memory_order_relaxed);
    exemplar_ids_[bucket].store(query_id, std::memory_order_relaxed);
  }
}

void Histogram::ResetForTest() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
    exemplar_ids_[i].store(0, std::memory_order_relaxed);
    exemplar_values_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

LatencyWindow::LatencyWindow(int capacity)
    : capacity_(capacity) {
  TREESIM_CHECK(capacity_ > 0) << "latency window capacity must be positive";
  samples_ = std::make_unique<std::atomic<int64_t>[]>(
      static_cast<size_t>(capacity_));
  sample_ids_ = std::make_unique<std::atomic<int64_t>[]>(
      static_cast<size_t>(capacity_));
  for (int i = 0; i < capacity_; ++i) {
    samples_[static_cast<size_t>(i)].store(0);
    sample_ids_[static_cast<size_t>(i)].store(0);
  }
}

void LatencyWindow::Record(int64_t sample) {
  const int64_t slot =
      head_.fetch_add(1, std::memory_order_relaxed) % capacity_;
  samples_[static_cast<size_t>(slot)].store(sample,
                                            std::memory_order_relaxed);
  sample_ids_[static_cast<size_t>(slot)].store(
      CurrentQueryContext().query_id, std::memory_order_relaxed);
}

std::vector<int64_t> LatencyWindow::RetainedSamples() const {
  const int64_t written = head_.load(std::memory_order_relaxed);
  const int n = written < capacity_ ? static_cast<int>(written) : capacity_;
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(samples_[static_cast<size_t>(i)].load(
        std::memory_order_relaxed));
  }
  return out;
}

void LatencyWindow::ResetForTest() {
  for (int i = 0; i < capacity_; ++i) {
    samples_[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
    sample_ids_[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

namespace {

// Signal-safe registration-order index of every counter/gauge/histogram,
// for the crash handler: fixed storage, entries published before the count
// (release/acquire), objects never freed. Appends happen under the
// registry mutex, so writes never race each other.
constexpr int kMaxCrashViews = 512;
CrashMetricView g_crash_views[kMaxCrashViews];
std::atomic<int> g_crash_view_count{0};

void AppendCrashView(const std::string& name, MetricKind kind,
                     const Counter* counter, const Gauge* gauge,
                     const Histogram* histogram) {
  const int i = g_crash_view_count.load(std::memory_order_relaxed);
  if (i >= kMaxCrashViews) return;  // overflow: later metrics just missing
  CrashMetricView& v = g_crash_views[i];
  const size_t n = std::min(name.size(), sizeof(v.name) - 1);
  name.copy(v.name, n);
  v.name[n] = '\0';
  v.kind = kind;
  v.counter = counter;
  v.gauge = gauge;
  v.histogram = histogram;
  g_crash_view_count.store(i + 1, std::memory_order_release);
}

}  // namespace

int CrashMetricViews(CrashMetricView* out, int max_out) {
  if (out == nullptr || max_out <= 0) return 0;
  int n = g_crash_view_count.load(std::memory_order_acquire);
  if (n > max_out) n = max_out;
  for (int i = 0; i < n; ++i) out[i] = g_crash_views[i];
  return n;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (e.counter == nullptr) {
    TREESIM_CHECK(e.gauge == nullptr && e.histogram == nullptr &&
                  e.window == nullptr)
        << "metric '" << name << "' already registered as a different kind";
    e.kind = MetricKind::kCounter;
    e.counter = std::make_unique<Counter>();
    AppendCrashView(name, MetricKind::kCounter, e.counter.get(), nullptr,
                    nullptr);
  }
  return *e.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (e.gauge == nullptr) {
    TREESIM_CHECK(e.counter == nullptr && e.histogram == nullptr &&
                  e.window == nullptr)
        << "metric '" << name << "' already registered as a different kind";
    e.kind = MetricKind::kGauge;
    e.gauge = std::make_unique<Gauge>();
    AppendCrashView(name, MetricKind::kGauge, nullptr, e.gauge.get(),
                    nullptr);
  }
  return *e.gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::vector<int64_t>& bounds) {
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (e.histogram == nullptr) {
    TREESIM_CHECK(e.counter == nullptr && e.gauge == nullptr &&
                  e.window == nullptr)
        << "metric '" << name << "' already registered as a different kind";
    e.kind = MetricKind::kHistogram;
    e.histogram = std::make_unique<Histogram>(bounds);
    AppendCrashView(name, MetricKind::kHistogram, nullptr, nullptr,
                    e.histogram.get());
  } else {
    TREESIM_CHECK(e.histogram->bounds() == bounds)
        << "metric '" << name << "' re-registered with different buckets";
  }
  return *e.histogram;
}

LatencyWindow& MetricsRegistry::GetWindow(const std::string& name) {
  constexpr int kWindowCapacity = 512;
  MutexLock lock(mu_);
  Entry& e = entries_[name];
  if (e.window == nullptr) {
    TREESIM_CHECK(e.counter == nullptr && e.gauge == nullptr &&
                  e.histogram == nullptr)
        << "metric '" << name << "' already registered as a different kind";
    e.kind = MetricKind::kWindow;
    e.window = std::make_unique<LatencyWindow>(kWindowCapacity);
  }
  return *e.window;
}

int MetricsRegistry::metric_count() const {
  MutexLock lock(mu_);
  return static_cast<int>(entries_.size());
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  {
    MutexLock lock(mu_);
    for (const auto& [name, entry] : entries_) {
      switch (entry.kind) {
        case MetricKind::kCounter:
          snap.counters[name] = entry.counter->value();
          break;
        case MetricKind::kGauge:
          snap.gauges[name] = entry.gauge->value();
          break;
        case MetricKind::kHistogram: {
          MetricsSnapshot::HistogramValue& h = snap.histograms[name];
          h.bounds = entry.histogram->bounds();
          h.bucket_counts.reserve(h.bounds.size() + 1);
          h.exemplar_ids.reserve(h.bounds.size() + 1);
          h.exemplar_values.reserve(h.bounds.size() + 1);
          for (int b = 0; b < entry.histogram->bucket_count(); ++b) {
            h.bucket_counts.push_back(entry.histogram->bucket_value(b));
            h.exemplar_ids.push_back(entry.histogram->exemplar_id(b));
            h.exemplar_values.push_back(entry.histogram->exemplar_value(b));
          }
          h.count = entry.histogram->count();
          h.sum = entry.histogram->sum();
          break;
        }
        case MetricKind::kWindow: {
          // A window renders as rolling nearest-rank percentile gauges of
          // the retained samples — the "current behavior" companions to
          // the since-start histograms.
          std::vector<int64_t> samples = entry.window->RetainedSamples();
          std::sort(samples.begin(), samples.end());
          const auto pct = [&samples](int p) -> int64_t {
            if (samples.empty()) return 0;
            const size_t rank =
                (samples.size() * static_cast<size_t>(p) + 99) / 100;
            return samples[rank == 0 ? 0 : rank - 1];
          };
          snap.gauges[name + ".p50"] = pct(50);
          snap.gauges[name + ".p95"] = pct(95);
          snap.gauges[name + ".p99"] = pct(99);
          break;
        }
      }
    }
  }
  // Fold the arithmetic-safety saturation counter (util/safe_math.h) into
  // the same vocabulary, so one dump answers "did anything saturate".
  snap.counters["safe_math.saturations"] =
      static_cast<int64_t>(SafeMathStats::saturations());
  return snap;
}

void MetricsRegistry::ResetForTest() {
  MutexLock lock(mu_);
  for (auto& [name, entry] : entries_) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->ResetForTest();
        break;
      case MetricKind::kGauge:
        entry.gauge->ResetForTest();
        break;
      case MetricKind::kHistogram:
        entry.histogram->ResetForTest();
        break;
      case MetricKind::kWindow:
        entry.window->ResetForTest();
        break;
    }
  }
}

#else  // !TREESIM_METRICS_ENABLED

const std::vector<int64_t>& Histogram::bounds() const {
  static const std::vector<int64_t>* const kEmpty =
      new std::vector<int64_t>();
  return *kEmpty;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& /*name*/) {
  static Counter* const dummy = new Counter();
  return *dummy;
}

Gauge& MetricsRegistry::GetGauge(const std::string& /*name*/) {
  static Gauge* const dummy = new Gauge();
  return *dummy;
}

Histogram& MetricsRegistry::GetHistogram(
    const std::string& /*name*/, const std::vector<int64_t>& /*bounds*/) {
  static Histogram* const dummy = new Histogram(std::vector<int64_t>{});
  return *dummy;
}

LatencyWindow& MetricsRegistry::GetWindow(const std::string& /*name*/) {
  static LatencyWindow* const dummy = new LatencyWindow(0);
  return *dummy;
}

int MetricsRegistry::metric_count() const { return 0; }

MetricsSnapshot MetricsRegistry::Snapshot() const { return MetricsSnapshot{}; }

void MetricsRegistry::ResetForTest() {}

#endif  // TREESIM_METRICS_ENABLED

int64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

int64_t MetricsSnapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0 : it->second;
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::histogram(
    const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

MetricsSnapshot MetricsSnapshot::DiffSince(
    const MetricsSnapshot& earlier) const {
  MetricsSnapshot diff;
  for (const auto& [name, value] : counters) {
    diff.counters[name] = value - earlier.counter(name);
  }
  diff.gauges = gauges;
  for (const auto& [name, h] : histograms) {
    HistogramValue& out = diff.histograms[name];
    out = h;
    if (const HistogramValue* was = earlier.histogram(name);
        was != nullptr && was->bounds == h.bounds) {
      for (size_t b = 0; b < out.bucket_counts.size(); ++b) {
        out.bucket_counts[b] -= was->bucket_counts[b];
      }
      out.count -= was->count;
      out.sum -= was->sum;
    }
  }
  return diff;
}

std::string MetricsSnapshot::ToText() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    os << name << " = " << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    os << name << " = " << value << " (gauge)\n";
  }
  for (const auto& [name, h] : histograms) {
    os << name << ": count=" << h.count << " sum=" << h.sum
       << " mean=" << h.Mean() << "\n";
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (h.bucket_counts[b] == 0) continue;
      os << "  ";
      if (b < h.bounds.size()) {
        os << "le=" << h.bounds[b];
      } else {
        os << "le=+inf";
      }
      os << ": " << h.bucket_counts[b] << "\n";
    }
  }
  return os.str();
}

std::string MetricsSnapshot::ToJson() const {
  JsonObject counter_values;
  for (const auto& [name, value] : counters) counter_values.Int(name, value);
  JsonObject gauge_values;
  for (const auto& [name, value] : gauges) gauge_values.Int(name, value);
  JsonObject histogram_values;
  for (const auto& [name, h] : histograms) {
    JsonObject o;
    o.Raw("bounds", Int64Array(h.bounds))
        .Raw("counts", Int64Array(h.bucket_counts))
        .Int("count", h.count)
        .Int("sum", h.sum);
    // Exemplars only when at least one bucket has one, so context-free
    // dumps (and their golden tests) are byte-identical to before.
    bool any_exemplar = false;
    for (const int64_t id : h.exemplar_ids) any_exemplar |= (id != 0);
    if (any_exemplar) {
      o.Raw("exemplar_ids", Int64Array(h.exemplar_ids))
          .Raw("exemplar_values", Int64Array(h.exemplar_values));
    }
    histogram_values.Raw(name, o.Render());
  }
  JsonObject doc;
  doc.Raw("counters", counter_values.Render())
      .Raw("gauges", gauge_values.Render())
      .Raw("histograms", histogram_values.Render());
  return doc.Render();
}

namespace {

/// HELP text escaping per the exposition format: only backslash and
/// newline (label values additionally escape the double quote, see
/// PrometheusLabelEscape).
std::string PrometheusHelpEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void AppendPrometheusHeader(std::ostringstream& os, const std::string& name,
                            const std::string& prom_name, const char* type) {
  os << "# HELP " << prom_name << " treesim metric "
     << PrometheusHelpEscape(name) << "\n";
  os << "# TYPE " << prom_name << ' ' << type << "\n";
}

}  // namespace

std::string PrometheusMetricName(const std::string& name) {
  std::string out = "treesim_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool valid = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += valid ? c : '_';
  }
  return out;
}

std::string PrometheusLabelEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricsSnapshot::ToPrometheus() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) {
    std::string prom = PrometheusMetricName(name);
    // Prometheus convention: monotonic counters end in _total.
    if (prom.size() < 6 || prom.compare(prom.size() - 6, 6, "_total") != 0) {
      prom += "_total";
    }
    AppendPrometheusHeader(os, name, prom, "counter");
    os << prom << ' ' << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    const std::string prom = PrometheusMetricName(name);
    AppendPrometheusHeader(os, name, prom, "gauge");
    os << prom << ' ' << value << "\n";
  }
  for (const auto& [name, h] : histograms) {
    const std::string prom = PrometheusMetricName(name);
    AppendPrometheusHeader(os, name, prom, "histogram");
    // Our buckets store per-bucket counts; the exposition format wants
    // cumulative counts per upper bound, closed by le="+Inf" == _count.
    int64_t cumulative = 0;
    for (size_t b = 0; b < h.bucket_counts.size(); ++b) {
      cumulative += h.bucket_counts[b];
      os << prom << "_bucket{le=\"";
      if (b < h.bounds.size()) {
        os << h.bounds[b];
      } else {
        os << "+Inf";
      }
      os << "\"} " << cumulative;
      // OpenMetrics-style exemplar: the last in-context query that landed
      // in this bucket, joinable against --query-log / --trace by id.
      // Absent entirely for context-free histograms, so plain 0.0.4
      // consumers and the golden exposition tests see unchanged output.
      if (b < h.exemplar_ids.size() && h.exemplar_ids[b] != 0) {
        os << " # {query_id=\"" << h.exemplar_ids[b] << "\"} "
           << h.exemplar_values[b];
      }
      os << "\n";
    }
    os << prom << "_sum " << h.sum << "\n";
    os << prom << "_count " << h.count << "\n";
  }
  return os.str();
}

std::vector<int64_t> LatencyBucketsMicros() {
  std::vector<int64_t> bounds;
  bounds.reserve(24);
  for (int64_t b = 1; b <= (int64_t{1} << 23); b *= 2) bounds.push_back(b);
  return bounds;  // 1us .. ~8.4s, then overflow
}

std::vector<int64_t> CountBuckets() {
  std::vector<int64_t> bounds;
  bounds.reserve(21);
  bounds.push_back(0);
  for (int64_t b = 1; b <= (int64_t{1} << 20); b *= 2) bounds.push_back(b);
  return bounds;  // 0, 1 .. ~1M, then overflow
}

std::vector<int64_t> SmallValueBuckets() {
  std::vector<int64_t> bounds;
  bounds.reserve(32);
  for (int64_t b = 0; b < 32; ++b) bounds.push_back(b);
  return bounds;  // 0..31, then overflow
}

}  // namespace treesim
