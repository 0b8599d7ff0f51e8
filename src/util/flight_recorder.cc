#include "util/flight_recorder.h"

#if TREESIM_METRICS_ENABLED

#include <atomic>

#include "util/logging.h"

namespace treesim {

/// One ring slot. A seqlock whose payload is itself all-atomic: relaxed
/// atomics keep TSan quiet and make a mid-write read by the crash handler
/// merely stale, never undefined. seq == 0 is "never written"; the slot
/// holding ticket t (0-based) carries seq == 2*t + 2 when stable and
/// 2*t + 1 while the writer is inside.
struct FlightRecorder::Slot {
  std::atomic<uint64_t> seq{0};
  std::atomic<const char*> op{""};
  std::atomic<int64_t> query_id{0};
  std::atomic<int64_t> ts_micros{0};
  std::atomic<int64_t> param{0};
  std::atomic<int64_t> database_size{0};
  std::atomic<int64_t> candidates{0};
  std::atomic<int64_t> refined{0};
  std::atomic<int64_t> results{0};
  std::atomic<int64_t> filter_micros{0};
  std::atomic<int64_t> refine_micros{0};
  std::atomic<int64_t> total_micros{0};
  std::atomic<int64_t> bounded_cells{0};
  std::atomic<int64_t> slow{0};
};

namespace {

constexpr int kDefaultCapacity = 128;
constexpr int kMaxCapacity = 4096;

// File-scope so the crash handler can reach the ring through the singleton
// without any constructor ordering concerns (all constant-initialized).
std::atomic<FlightRecorder::Slot*> g_slots{nullptr};
std::atomic<int> g_capacity{kDefaultCapacity};
std::atomic<int64_t> g_next{0};

/// Reads slot `s` expecting the stable even seq for `ticket`. Returns
/// false (and leaves `out` untouched beyond scratch) when the slot was
/// overwritten or mid-write.
bool ReadSlot(const FlightRecorder::Slot& s, int64_t ticket,
              FlightRecord* out) {
  const uint64_t expected = 2 * static_cast<uint64_t>(ticket) + 2;
  if (s.seq.load(std::memory_order_acquire) != expected) return false;
  out->op = s.op.load(std::memory_order_relaxed);
  out->query_id = s.query_id.load(std::memory_order_relaxed);
  out->ts_micros = s.ts_micros.load(std::memory_order_relaxed);
  out->param = s.param.load(std::memory_order_relaxed);
  out->database_size = s.database_size.load(std::memory_order_relaxed);
  out->candidates = s.candidates.load(std::memory_order_relaxed);
  out->refined = s.refined.load(std::memory_order_relaxed);
  out->results = s.results.load(std::memory_order_relaxed);
  out->filter_micros = s.filter_micros.load(std::memory_order_relaxed);
  out->refine_micros = s.refine_micros.load(std::memory_order_relaxed);
  out->total_micros = s.total_micros.load(std::memory_order_relaxed);
  out->bounded_cells = s.bounded_cells.load(std::memory_order_relaxed);
  out->slow = s.slow.load(std::memory_order_relaxed) != 0;
  std::atomic_thread_fence(std::memory_order_acquire);
  return s.seq.load(std::memory_order_relaxed) == expected;
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* const recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::Slot* FlightRecorder::EnsureSlots() {
  Slot* slots = g_slots.load(std::memory_order_acquire);
  if (slots != nullptr) return slots;
  const int cap = g_capacity.load(std::memory_order_relaxed);
  Slot* fresh = new Slot[static_cast<size_t>(cap)];
  Slot* expected = nullptr;
  if (g_slots.compare_exchange_strong(expected, fresh,
                                      std::memory_order_acq_rel)) {
    return fresh;
  }
  delete[] fresh;  // lost the allocation race; use the winner's ring
  return expected;
}

void FlightRecorder::Configure(int capacity) {
  int cap = capacity < 1 ? 1 : capacity;
  if (cap > kMaxCapacity) cap = kMaxCapacity;
  if (g_slots.load(std::memory_order_acquire) != nullptr) {
    TREESIM_CHECK(cap == g_capacity.load(std::memory_order_relaxed))
        << "flight recorder capacity is frozen after the first Record()";
    return;
  }
  g_capacity.store(cap, std::memory_order_relaxed);
}

void FlightRecorder::Record(const FlightRecord& rec) {
  Slot* slots = EnsureSlots();
  const int cap = g_capacity.load(std::memory_order_relaxed);
  const int64_t ticket = g_next.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots[static_cast<size_t>(ticket % cap)];
  // Seqlock writer: odd marker, release fence (payload may not become
  // visible before the marker), relaxed payload, even marker with release.
  s.seq.store(2 * static_cast<uint64_t>(ticket) + 1,
              std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  s.op.store(rec.op, std::memory_order_relaxed);
  s.query_id.store(rec.query_id, std::memory_order_relaxed);
  s.ts_micros.store(rec.ts_micros, std::memory_order_relaxed);
  s.param.store(rec.param, std::memory_order_relaxed);
  s.database_size.store(rec.database_size, std::memory_order_relaxed);
  s.candidates.store(rec.candidates, std::memory_order_relaxed);
  s.refined.store(rec.refined, std::memory_order_relaxed);
  s.results.store(rec.results, std::memory_order_relaxed);
  s.filter_micros.store(rec.filter_micros, std::memory_order_relaxed);
  s.refine_micros.store(rec.refine_micros, std::memory_order_relaxed);
  s.total_micros.store(rec.total_micros, std::memory_order_relaxed);
  s.bounded_cells.store(rec.bounded_cells, std::memory_order_relaxed);
  s.slow.store(rec.slow ? 1 : 0, std::memory_order_relaxed);
  s.seq.store(2 * static_cast<uint64_t>(ticket) + 2,
              std::memory_order_release);
}

std::vector<FlightRecord> FlightRecorder::Snapshot() const {
  std::vector<FlightRecord> out;
  const Slot* slots = g_slots.load(std::memory_order_acquire);
  if (slots == nullptr) return out;
  const int cap = g_capacity.load(std::memory_order_relaxed);
  const int64_t next = g_next.load(std::memory_order_acquire);
  const int64_t first = next > cap ? next - cap : 0;
  out.reserve(static_cast<size_t>(next - first));
  for (int64_t t = first; t < next; ++t) {
    FlightRecord rec;
    if (ReadSlot(slots[static_cast<size_t>(t % cap)], t, &rec)) {
      out.push_back(rec);
    }
  }
  return out;
}

int FlightRecorder::CrashSnapshot(FlightRecord* out, int max_out) const {
  const Slot* slots = g_slots.load(std::memory_order_acquire);
  if (slots == nullptr || out == nullptr || max_out <= 0) return 0;
  const int cap = g_capacity.load(std::memory_order_relaxed);
  const int64_t next = g_next.load(std::memory_order_acquire);
  const int64_t first = next > cap ? next - cap : 0;
  int n = 0;
  for (int64_t t = next - 1; t >= first && n < max_out; --t) {
    if (ReadSlot(slots[static_cast<size_t>(t % cap)], t, &out[n])) ++n;
  }
  return n;
}

int FlightRecorder::capacity() const {
  return g_capacity.load(std::memory_order_relaxed);
}

int64_t FlightRecorder::total_recorded() const {
  return g_next.load(std::memory_order_relaxed);
}

void FlightRecorder::ResetForTest() {
  Slot* slots = g_slots.exchange(nullptr, std::memory_order_acq_rel);
  g_next.store(0, std::memory_order_relaxed);
  g_capacity.store(kDefaultCapacity, std::memory_order_relaxed);
  delete[] slots;
}

}  // namespace treesim

#endif  // TREESIM_METRICS_ENABLED
