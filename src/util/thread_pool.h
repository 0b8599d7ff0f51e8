#ifndef TREESIM_UTIL_THREAD_POOL_H_
#define TREESIM_UTIL_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.h"

namespace treesim {

/// A fixed pool of worker threads with a shared FIFO queue — the one place
/// in the library that spawns threads. No work stealing, no growing: the
/// parallel layers map whole units (pairwise matrix rows, batch k-NN
/// queries, join left trees), each with ParallelFor over disjoint output
/// slots, for which a single queue plus a shared atomic index counter is
/// both simpler and provably deterministic. Guarded state is annotated for
/// Clang's -Wthread-safety analysis (see util/sync.h).
class ThreadPool {
 public:
  /// Spawns `threads` workers (>= 1). The pool never resizes.
  explicit ThreadPool(int threads);

  /// Drains already-scheduled work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues `fn` for execution by some worker. `fn` must not call
  /// ParallelFor on this pool (checked in debug builds; it would deadlock).
  void Schedule(std::function<void()> fn) TREESIM_EXCLUDES(mu_);

  /// Runs fn(0) .. fn(n-1), distributed over the workers, and returns when
  /// all n calls finished. Iterations are claimed dynamically (one shared
  /// atomic counter), so uneven per-index cost balances automatically; any
  /// schedule yields identical results as long as fn(i) writes only to
  /// slot i of the caller's output. The calling thread only waits — a pool
  /// of size N computes with exactly N threads. Must not be called from a
  /// worker of this same pool.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn)
      TREESIM_EXCLUDES(mu_);

  /// True when the calling thread is one of this pool's workers.
  bool InWorkerThread() const;

  /// std::thread::hardware_concurrency with a floor of 1 (the standard
  /// allows 0 = "unknown").
  static int HardwareThreads();

 private:
  void WorkerLoop();

  Mutex mu_ TREESIM_LOCK_RANK(20);
  CondVar work_cv_;
  std::deque<std::function<void()>> queue_ TREESIM_GUARDED_BY(mu_);
  bool shutdown_ TREESIM_GUARDED_BY(mu_) = false;
  std::vector<std::thread> threads_;  // written once in the constructor
};

/// Resolves a user-facing `--threads` request against the actual work:
/// `requested` <= 0 means "use the hardware"; the result is clamped to
/// `items` (spawning more workers than work items is pure overhead — the
/// oversubscription bug the old pairwise code had) and is always >= 1.
int ClampThreads(int requested, int64_t items);

/// ParallelFor through an OPTIONAL pool: runs inline (deterministically, in
/// index order) when `pool` is null — callers expose a ThreadPool* default
/// of nullptr and stay sequential until one is supplied.
void ParallelFor(ThreadPool* pool, int64_t n,
                 const std::function<void(int64_t)>& fn);

}  // namespace treesim

#endif  // TREESIM_UTIL_THREAD_POOL_H_
