// ThreadPool: the one place the program starts threads — a fork-join over
// ticket-claimed index ranges.
//
// submit_batch() starts its loop tasks on std::threads and joins every one
// of them before it returns, so no thread outlives the call that asked for
// it. The parallel jobs in this repo are coarse (whole simulation legs and
// lookahead frames, milliseconds to seconds each), so starting threads per
// call costs nothing measurable. Determinism is achieved one level up —
// callers write results into pre-assigned slots and aggregate in index
// order (see SimRunner) — so the fork-join itself never has to order
// anything.
#pragma once

#include <cstddef>
#include <functional>

namespace grefar {

class ThreadPool {
 public:
  ThreadPool() = delete;

  /// Chunked dynamic scheduling (DESIGN.md §16): partitions [0, count) into
  /// fixed ranges of `chunk` consecutive indices — range k is
  /// [k*chunk, min((k+1)*chunk, count)), a pure function of (count, chunk) —
  /// and starts min(threads, num_ranges) loop tasks, each on its own
  /// std::thread, that claim ranges through a shared atomic ticket counter.
  /// Each claimed range is executed front to back, so indices within a range
  /// always run in ascending order on one thread; which *thread* runs a range
  /// is scheduling-dependent, which is why `body` receives its loop-task id
  /// (0 .. tasks-1) for worker-local arenas rather than a range id.
  ///
  /// Joins every loop task before returning. `body` must not throw; callers
  /// capture per-index failures themselves (see SimRunner). `threads` is
  /// clamped to >= 1. Returns the number of loop tasks started.
  static std::size_t submit_batch(
      std::size_t threads, std::size_t count, std::size_t chunk,
      const std::function<void(std::size_t task, std::size_t begin,
                               std::size_t end)>& body);

  /// Usable CPUs: the sched_getaffinity CPU count where available (so cgroup
  /// / taskset limits in containerized CI are honored instead of
  /// oversubscribing the host), falling back to
  /// std::thread::hardware_concurrency(); always >= 1.
  static std::size_t default_concurrency();
};

}  // namespace grefar
