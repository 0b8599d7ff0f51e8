// Guard for the observability layer's two contracts (util/metrics.h):
//
//   * TREESIM_METRICS=ON  — the hot path must stay cheap (a relaxed atomic
//     RMW per counter increment, a binary search plus two RMWs per histogram
//     record). This binary measures and prints ns/op for both, plus the
//     cost of a disabled trace span.
//   * TREESIM_METRICS=OFF — the layer must compile out entirely: the
//     registry registers nothing even after instrumented code ran, the
//     snapshot is empty, and the tracer never records. These are hard
//     aborts, and the CI metrics-off job runs this binary to hold the
//     zero-overhead claim.
#include <cstdio>
#include <cstdlib>

#include "bench_report.h"
#include "bench_util.h"
#include "util/flags.h"
#include "util/metrics.h"
#include "util/stopwatch.h"
#include "util/trace.h"

namespace treesim {
namespace bench {
namespace {

constexpr int64_t kIterations = 5'000'000;

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FATAL: compile-out guard violated (%s)\n", what);
    std::abort();
  }
}

double NanosPerOp(int64_t elapsed_micros) {
  return 1e3 * static_cast<double>(elapsed_micros) /
         static_cast<double>(kIterations);
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  CheckKnownFlags(flags, {"json"});
  BenchReport report("metrics_overhead");
  report.config().Int("iterations", kIterations);
  std::printf("=== metrics overhead (TREESIM_METRICS=%s) ===\n",
              kMetricsEnabled ? "ON" : "OFF");

  // Exercise every macro the way instrumented pipeline code does, so the
  // OFF assertions below check real call sites, not a toy.
  Stopwatch counter_timer;
  for (int64_t i = 0; i < kIterations; ++i) {
    TREESIM_COUNTER_INC("bench.overhead.counter");
  }
  const double counter_ns = NanosPerOp(counter_timer.ElapsedMicros());

  Stopwatch histogram_timer;
  for (int64_t i = 0; i < kIterations; ++i) {
    TREESIM_HISTOGRAM_RECORD("bench.overhead.histogram", CountBuckets(),
                             i & 1023);
  }
  const double histogram_ns = NanosPerOp(histogram_timer.ElapsedMicros());

  // Tracer disabled (the default): a span costs one relaxed atomic load.
  Stopwatch span_timer;
  for (int64_t i = 0; i < kIterations; ++i) {
    TREESIM_TRACE_SPAN("bench.overhead.span");
  }
  const double span_ns = NanosPerOp(span_timer.ElapsedMicros());

  std::printf("counter increment:    %6.2f ns/op\n", counter_ns);
  std::printf("histogram record:     %6.2f ns/op\n", histogram_ns);
  std::printf("disabled trace span:  %6.2f ns/op\n", span_ns);

  if (kMetricsEnabled) {
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    Require(snap.counter("bench.overhead.counter") == kIterations,
            "counter lost increments");
    const MetricsSnapshot::HistogramValue* h =
        snap.histogram("bench.overhead.histogram");
    Require(h != nullptr && h->count == kIterations,
            "histogram lost samples");
    Require(MetricsRegistry::Global().metric_count() >= 2,
            "metrics not registered under ON");
  } else {
    // The zero-overhead contract: after all of the above ran, nothing may
    // have been registered, snapshotted, or traced.
    Require(MetricsRegistry::Global().metric_count() == 0,
            "registry not empty under OFF");
    const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
    Require(snap.counters.empty() && snap.gauges.empty() &&
                snap.histograms.empty(),
            "snapshot not empty under OFF");
    Tracer::Global().Enable();
    { TREESIM_TRACE_SPAN("bench.overhead.off_span"); }
    Tracer::Global().Disable();
    Require(Tracer::Global().Collect().empty(),
            "tracer recorded under OFF");
    std::printf("compile-out verified: empty registry, empty snapshot, "
                "silent tracer\n");
  }

  report.AddPoint()
      .Str("label", "counter_increment")
      .Double("ns_per_op", counter_ns);
  report.AddPoint()
      .Str("label", "histogram_record")
      .Double("ns_per_op", histogram_ns);
  report.AddPoint()
      .Str("label", "disabled_trace_span")
      .Double("ns_per_op", span_ns);
  return report.WriteIfRequested(flags.GetString("json", "")) ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace treesim

int main(int argc, char** argv) {
  return treesim::bench::Main(argc, argv);
}
