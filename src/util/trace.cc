#include "util/trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "util/json.h"
#include "util/metrics.h"
#include "util/query_context.h"
#include "util/sync.h"

namespace treesim {

#if TREESIM_METRICS_ENABLED

namespace {

/// `ns` (>= 0) in microseconds as an exact decimal: the integer part, a
/// dot, then three zero-padded digits, so short spans stay visible and no
/// nanosecond is rounded away.
std::string ExactMicros(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  return buf;
}

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One thread's ring. The owning thread appends; Collect()/Clear() read and
/// reset from other threads — every access goes through the buffer's own
/// mutex. The lock is thread-private in the common case (uncontended
/// acquire), keeping span recording cheap without hand-rolled seqlocks; the
/// spans this library records wrap whole pipeline stages, not inner loops.
struct ThreadBuffer {
  Mutex mu TREESIM_LOCK_RANK(30);
  std::array<TraceEvent, Tracer::kRingCapacity> ring TREESIM_GUARDED_BY(mu);
  /// Total events ever written; ring slot = written % capacity.
  int64_t written TREESIM_GUARDED_BY(mu) = 0;
  int thread_index = 0;

  /// Returns true when the ring wrapped (an older event was overwritten),
  /// so the caller can bump the trace.dropped_events counter outside the
  /// lock (the registry mutex has rank 40 > this one's 30, but staying
  /// lock-free here keeps Append's critical section minimal).
  bool Append(const TraceEvent& event) {
    MutexLock lock(mu);
    const bool dropped = written >= Tracer::kRingCapacity;
    ring[static_cast<size_t>(written % Tracer::kRingCapacity)] = event;
    ++written;
    return dropped;
  }
};

struct TracerState {
  std::atomic<bool> enabled{false};
  std::atomic<int64_t> epoch_ns{0};
  Mutex mu TREESIM_LOCK_RANK(10);
  /// shared_ptr keeps buffers of exited threads alive for Collect().
  std::vector<std::shared_ptr<ThreadBuffer>> buffers TREESIM_GUARDED_BY(mu);
};

TracerState& State() {
  static TracerState* const state = new TracerState();
  return *state;
}

// Signal-safe shadow index of the registered ThreadBuffers for the crash
// handler: the registry's shared_ptrs are never removed, so a raw pointer
// appended here stays valid for the process lifetime. Entries are
// published before the count (release/acquire); appends happen under
// TracerState::mu.
constexpr int kMaxCrashBuffers = 256;
std::atomic<ThreadBuffer*> g_crash_buffers[kMaxCrashBuffers];
std::atomic<int> g_crash_buffer_count{0};

/// The calling thread's buffer, registered with the tracer on first use.
/// The thread_local shared_ptr plus the registry's copy give the buffer two
/// owners, so whichever goes away last (thread exit vs. trace export) wins.
ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TracerState& state = State();
    MutexLock lock(state.mu);
    b->thread_index = static_cast<int>(state.buffers.size());
    state.buffers.push_back(b);
    const int crash_index =
        g_crash_buffer_count.load(std::memory_order_relaxed);
    if (crash_index < kMaxCrashBuffers) {
      g_crash_buffers[crash_index].store(b.get(),
                                         std::memory_order_relaxed);
      g_crash_buffer_count.store(crash_index + 1,
                                 std::memory_order_release);
    }
    return b;
  }();
  return *buffer;
}

/// Current nesting depth of open spans on this thread (only the owning
/// thread touches it, no synchronization needed).
thread_local int open_span_depth = 0;

}  // namespace

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {
  State().epoch_ns.store(NowNanos(), std::memory_order_relaxed);
  State().enabled.store(true, std::memory_order_release);
}

void Tracer::Disable() {
  State().enabled.store(false, std::memory_order_release);
}

bool Tracer::enabled() const {
  return State().enabled.load(std::memory_order_acquire);
}

std::vector<TraceEvent> Tracer::Collect() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TracerState& state = State();
    MutexLock lock(state.mu);
    buffers = state.buffers;
  }
  std::vector<TraceEvent> events;
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    MutexLock lock(buffer->mu);
    const int64_t kept =
        std::min<int64_t>(buffer->written, Tracer::kRingCapacity);
    const int64_t oldest = buffer->written - kept;
    for (int64_t i = oldest; i < buffer->written; ++i) {
      events.push_back(
          buffer->ring[static_cast<size_t>(i % Tracer::kRingCapacity)]);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
              return a.thread_index < b.thread_index;
            });
  return events;
}

void Tracer::Clear() {
  TracerState& state = State();
  MutexLock lock(state.mu);
  for (const std::shared_ptr<ThreadBuffer>& buffer : state.buffers) {
    MutexLock buffer_lock(buffer->mu);
    buffer->written = 0;
  }
}

int64_t Tracer::dropped_events() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    TracerState& state = State();
    MutexLock lock(state.mu);
    buffers = state.buffers;
  }
  int64_t dropped = 0;
  for (const std::shared_ptr<ThreadBuffer>& buffer : buffers) {
    MutexLock lock(buffer->mu);
    if (buffer->written > Tracer::kRingCapacity) {
      dropped += buffer->written - Tracer::kRingCapacity;
    }
  }
  return dropped;
}

std::string Tracer::ExportChromeTracing() const {
  std::string events = "[";
  for (const TraceEvent& e : Collect()) {
    if (events.size() > 1) events += ',';
    // Complete ("X") events; chrome://tracing wants microseconds.
    JsonObject event;
    event.Str("name", e.name)
        .Str("ph", "X")
        .Int("pid", 0)
        .Int("tid", e.thread_index)
        .Raw("ts", ExactMicros(e.start_ns))
        .Raw("dur", ExactMicros(e.duration_ns));
    if (e.query_id != 0) {
      event.Raw("args", JsonObject().Int("query_id", e.query_id).Render());
    }
    events += event.Render();
  }
  events += ']';
  return JsonObject()
      .Str("displayTimeUnit", "ms")
      .Raw("traceEvents", events)
      .Render();
}

// Deliberately lock- and allocation-free: reads the guarded ring/written
// fields without their mutex. Only the crash handler calls this, on a
// process that is already dying — a torn TraceEvent is acceptable there,
// a handler deadlocking on a mutex the crashed thread holds is not.
TREESIM_NO_THREAD_SAFETY_ANALYSIS
int TraceCrashTail(TraceEvent* out, int max_out, int per_thread) {
  if (out == nullptr || max_out <= 0 || per_thread <= 0) return 0;
  const int buffers = g_crash_buffer_count.load(std::memory_order_acquire);
  int n = 0;
  for (int i = 0; i < buffers && n < max_out; ++i) {
    const ThreadBuffer* b =
        g_crash_buffers[i].load(std::memory_order_relaxed);
    if (b == nullptr) continue;
    const int64_t written = b->written;
    if (written <= 0 || written > (int64_t{1} << 48)) continue;  // torn
    const int64_t kept = std::min<int64_t>(
        std::min<int64_t>(written, Tracer::kRingCapacity), per_thread);
    for (int64_t e = written - kept; e < written && n < max_out; ++e) {
      const TraceEvent& event =
          b->ring[static_cast<size_t>(e % Tracer::kRingCapacity)];
      if (event.name == nullptr) continue;
      out[n++] = event;
    }
  }
  return n;
}

TraceSpan::TraceSpan(const char* name)
    : name_(name),
      start_ns_(0),
      query_id_(0),
      recording_(Tracer::Global().enabled()) {
  if (!recording_) return;
  query_id_ = CurrentQueryContext().query_id;
  ++open_span_depth;
  // Clamped at 0 so a re-Enable() mid-span cannot yield negative timestamps
  // (which would break the %-based fraction rendering in the JSON export).
  start_ns_ = std::max<int64_t>(
      0, NowNanos() - State().epoch_ns.load(std::memory_order_relaxed));
}

TraceSpan::~TraceSpan() {
  if (!recording_) return;
  --open_span_depth;
  TraceEvent event;
  event.name = name_;
  event.depth = open_span_depth;
  event.start_ns = start_ns_;
  event.query_id = query_id_;
  event.duration_ns = std::max<int64_t>(
      0, NowNanos() - State().epoch_ns.load(std::memory_order_relaxed) -
             start_ns_);
  ThreadBuffer& buffer = LocalBuffer();
  event.thread_index = buffer.thread_index;
  if (buffer.Append(event)) {
    // Ring wraparound silently loses the oldest span; surface the loss in
    // the registry so --metrics output shows it (satellite of ISSUE 10).
    TREESIM_COUNTER_INC("trace.dropped_events");
  }
}

#else  // !TREESIM_METRICS_ENABLED

Tracer& Tracer::Global() {
  static Tracer* const tracer = new Tracer();
  return *tracer;
}

void Tracer::Enable() {}
void Tracer::Disable() {}
bool Tracer::enabled() const { return false; }
std::vector<TraceEvent> Tracer::Collect() const { return {}; }
void Tracer::Clear() {}
int64_t Tracer::dropped_events() const { return 0; }
std::string Tracer::ExportChromeTracing() const {
  return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}";
}

#endif  // TREESIM_METRICS_ENABLED

}  // namespace treesim
