#ifndef TREESIM_UTIL_FLIGHT_RECORDER_H_
#define TREESIM_UTIL_FLIGHT_RECORDER_H_

#include <cstdint>
#include <vector>

#include "util/metrics.h"  // kMetricsEnabled

namespace treesim {

/// One completed query, as the flight recorder remembers it: the identity,
/// the funnel, and where the time went. Plain data; `op` is always a
/// string literal ("range", "knn", "batch_knn", "join", ...).
struct FlightRecord {
  int64_t query_id = 0;
  int64_t ts_micros = 0;     ///< completion time, UnixMicros()
  const char* op = "";       ///< operation tag (string literal)
  int64_t param = 0;         ///< tau (range/join) or k (knn)
  int64_t database_size = 0;
  int64_t candidates = 0;    ///< funnel: trees surviving the filter
  int64_t refined = 0;       ///< funnel: exact TED calls
  int64_t results = 0;       ///< funnel: matches / neighbors / pairs
  int64_t filter_micros = 0;
  int64_t refine_micros = 0;
  int64_t total_micros = 0;
  /// Banded TED cells this query computed (QueryStats::ted_cells): its
  /// exact share of ted.bounded_cells_computed, however many queries
  /// overlap. A batch or join sums its members' or left trees'.
  int64_t bounded_cells = 0;
  bool slow = false;         ///< StructuredLog::IsSlow(total_micros)
};

#if TREESIM_METRICS_ENABLED

/// An always-on, fixed-size, mutex-free ring of the last N completed query
/// records — the in-memory black box the crash handler dumps and
/// `treesim_cli --flight-recorder=N` prints.
///
/// Concurrency: each slot is a seqlock whose payload fields are themselves
/// relaxed atomics (so TSan sees no data race and a signal handler can
/// read mid-write without UB). A writer claims a ticket with one
/// fetch_add, marks the slot odd (seq = 2*ticket + 1, release), stores the
/// payload relaxed, then marks it even (seq = 2*ticket + 2, release).
/// Readers accept a slot only when they observe the same expected even seq
/// before AND after reading the payload; torn slots are skipped, never
/// returned. Recording is lock-free and allocation-free after the first
/// call; Snapshot() allocates, CrashSnapshot() does not.
class FlightRecorder {
 public:
  /// Opaque ring slot (layout in flight_recorder.cc).
  struct Slot;

  static FlightRecorder& Global();

  /// Sets the ring capacity (default 128, clamped to [1, 4096]). Must be
  /// called before the first Record(); once slots exist the capacity is
  /// frozen and a different value is a fatal error.
  void Configure(int capacity);

  /// Appends one completed-query record. Lock-free, signal-unsafe only in
  /// that it may allocate the slot array on the very first call.
  void Record(const FlightRecord& rec);

  /// The retained records, oldest first. Slots mid-write are skipped.
  std::vector<FlightRecord> Snapshot() const;

  /// Signal-safe variant: copies at most `max_out` newest-first records
  /// into caller storage without allocating or locking. Returns the count.
  int CrashSnapshot(FlightRecord* out, int max_out) const;

  int capacity() const;
  /// Total records ever written (>= capacity means the ring has wrapped).
  int64_t total_recorded() const;

  /// Drops all records and unfreezes capacity. Tests only.
  void ResetForTest();

 private:
  FlightRecorder() = default;
  Slot* EnsureSlots();
};

#else  // !TREESIM_METRICS_ENABLED

class FlightRecorder {
 public:
  static FlightRecorder& Global() {
    static FlightRecorder* const dummy = new FlightRecorder();
    return *dummy;
  }
  void Configure(int) {}
  void Record(const FlightRecord&) {}
  std::vector<FlightRecord> Snapshot() const { return {}; }
  int CrashSnapshot(FlightRecord*, int) const { return 0; }
  int capacity() const { return 0; }
  int64_t total_recorded() const { return 0; }
  void ResetForTest() {}

 private:
  FlightRecorder() = default;
};

#endif  // TREESIM_METRICS_ENABLED

}  // namespace treesim

#endif  // TREESIM_UTIL_FLIGHT_RECORDER_H_
