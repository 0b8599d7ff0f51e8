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
  std::atomic<bool> slow{false};
  std::atomic<int64_t> fields[kFlightFieldCount]{};  ///< kFlightFields order
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
  for (size_t i = 0; i < kFlightFieldCount; ++i) {
    out->*kFlightFields[i].member =
        s.fields[i].load(std::memory_order_relaxed);
  }
  out->slow = s.slow.load(std::memory_order_relaxed);
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
  for (size_t i = 0; i < kFlightFieldCount; ++i) {
    s.fields[i].store(rec.*kFlightFields[i].member,
                      std::memory_order_relaxed);
  }
  s.slow.store(rec.slow, std::memory_order_relaxed);
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
