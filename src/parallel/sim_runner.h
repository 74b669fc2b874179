// SimRunner: fans independent simulation runs across threads with
// deterministic, index-ordered results.
//
// The repo's stochastic models (prices, availability, arrivals) carry lazily
// extended mutable caches, so model *instances* must never be shared between
// concurrent runs. The contract here makes that structural: each index of a
// fan-out (a sweep leg, a lookahead frame) builds or reads only its own
// state — its own scenario (deterministic per seed, i.e. its own RNG
// streams), scheduler and engine/SimMetrics — and writes its result into a
// caller-owned slot for that index. Aggregation in index order is then
// bit-for-bit identical no matter how many threads ran the indices —
// `jobs = 1` executes inline with no threads at all and reproduces the
// historical serial behaviour exactly. Per-leg metric accumulators
// (RunningStats and friends) merge cleanly afterwards because they are
// parallel-combinable by design.
//
// An index that throws poisons only its own slot; for_each_index rethrows
// the first failure in index order after every index has finished.
#pragma once

#include <cstddef>
#include <functional>

#include "util/annotations.h"

namespace grefar {

class SimRunner {
 public:
  /// `jobs` = worker count; 0 picks ThreadPool::default_concurrency().
  explicit SimRunner(std::size_t jobs = 0);

  std::size_t jobs() const { return jobs_; }

  /// Chunked indexed loop over [0, count): indices are handed to threads in
  /// fixed consecutive ranges of `chunk` via ThreadPool::submit_batch — one
  /// std::thread per *loop task*, joined before this returns. `fn(task,
  /// index)` receives the loop-task id (0 .. workers-1; always 0 on the
  /// serial path) so callers can keep worker-local arenas. Within a range,
  /// indices run in ascending order on one thread. jobs == 1 (or a single
  /// range) executes inline on the calling thread, index order
  /// 0..count-1, no threads — the historical serial contract. Rethrows the
  /// first per-index exception in index order.
  GREFAR_DETERMINISTIC
  void for_each_index_tasked(
      std::size_t count,
      const std::function<void(std::size_t task, std::size_t index)>& fn,
      std::size_t chunk = 1) const;

  /// for_each_index_tasked without the loop-task id.
  GREFAR_DETERMINISTIC
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t index)>& fn,
                      std::size_t chunk = 1) const;

 private:
  std::size_t jobs_;
};

}  // namespace grefar
