#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/check.h"

namespace grefar {

std::size_t ThreadPool::submit_batch(
    std::size_t threads, std::size_t count, std::size_t chunk,
    const std::function<void(std::size_t task, std::size_t begin,
                             std::size_t end)>& body) {
  GREFAR_CHECK(body != nullptr);
  if (count == 0) return 0;
  chunk = std::max<std::size_t>(chunk, 1);
  const std::size_t num_ranges = (count + chunk - 1) / chunk;
  const std::size_t num_tasks =
      std::min(std::max<std::size_t>(threads, 1), num_ranges);

  std::atomic<std::size_t> ticket{0};
  std::vector<std::thread> loop_tasks;
  loop_tasks.reserve(num_tasks);
  for (std::size_t t = 0; t < num_tasks; ++t) {
    loop_tasks.emplace_back([&ticket, &body, count, chunk, num_ranges, t] {
      for (;;) {
        const std::size_t range = ticket.fetch_add(1, std::memory_order_relaxed);
        if (range >= num_ranges) return;
        const std::size_t begin = range * chunk;
        body(t, begin, std::min(begin + chunk, count));
      }
    });
  }
  for (auto& thread : loop_tasks) thread.join();
  return num_tasks;
}

std::size_t ThreadPool::default_concurrency() {
#if defined(__linux__)
  // Honor cgroup cpusets / taskset masks: in containerized CI the affinity
  // mask is often far smaller than the host's hardware_concurrency, and
  // spawning a worker per host core just thrashes.
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return static_cast<std::size_t>(cpus);
  }
#endif
  return std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
}

}  // namespace grefar
