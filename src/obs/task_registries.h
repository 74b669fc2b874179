// TaskRegistries: per-task counter/profile registries with an ordered merge.
//
// The parallel runner (SimRunner::for_each_index_tasked, the program's one
// fan-out) must not let worker threads touch the caller's registries: the
// active-registry pointers are thread-local, and counters promise
// bit-identical totals at any --jobs value. The discipline — snapshot the
// parent's active registries, give every loop task a private pair, and merge
// them back *in task index order* after the join — lives here as one helper:
// raw CounterRegistry::merge() calls are exactly what the
// grefar-counter-discipline check (DESIGN.md §13) bans outside src/obs.
//
// Usage (see parallel/sim_runner.cc):
//
//   obs::TaskRegistries regs(workers);
//   ThreadPool::submit_batch(workers, count, chunk,
//                            [&](std::size_t task, std::size_t b, std::size_t e) {
//     obs::CountersScope counters(regs.counters(task));
//     obs::ProfileScope profile(regs.profile(task));
//     for (std::size_t i = b; i < e; ++i) fn(task, i);
//   });                    // joins every loop task before returning
//   regs.merge_ordered();  // caller thread, after the join
//
// When the calling thread has no registry of a kind active, the matching
// accessors return nullptr and the merge skips that kind — tasks then run
// with instrumentation off, exactly as before.
#pragma once

#include <cstddef>
#include <vector>

#include "obs/counters.h"
#include "obs/profile.h"

namespace grefar::obs {

class TaskRegistries {
 public:
  /// Snapshots the calling thread's active registries and sizes one private
  /// registry pair per task (allocated only for the kinds actually active).
  explicit TaskRegistries(std::size_t num_tasks);

  TaskRegistries(const TaskRegistries&) = delete;
  TaskRegistries& operator=(const TaskRegistries&) = delete;

  /// Task `i`'s private counter registry; nullptr when the parent thread had
  /// none active (instrumentation stays off inside the task).
  CounterRegistry* counters(std::size_t i);

  /// Task `i`'s private profile registry; nullptr likewise.
  ProfileRegistry* profile(std::size_t i);

  /// Merges every task registry into the parent registries in task index
  /// order. Counters are sums and gauges maxes — order-insensitive — but the
  /// fixed order keeps the merge bit-identical to the serial run by
  /// construction rather than by argument. Call from the snapshotting thread
  /// after all tasks finished; safe to call when nothing was active.
  void merge_ordered();

 private:
  CounterRegistry* parent_counters_;
  ProfileRegistry* parent_profile_;
  std::vector<CounterRegistry> task_counters_;
  std::vector<ProfileRegistry> task_profiles_;
};

}  // namespace grefar::obs
