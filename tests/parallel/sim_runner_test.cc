// Tests for the parallel sweep subsystem: the ThreadPool fork-join's range
// coverage and join guarantees, and SimRunner's determinism contract
// (jobs = 1 and jobs = N must produce bit-identical metrics, because every
// leg owns its models end to end).
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include <gtest/gtest.h>

#include "core/grefar.h"
#include "parallel/sim_runner.h"
#include "parallel/thread_pool.h"
#include "scenario/paper_scenario.h"
#include "sim/engine.h"

namespace grefar {
namespace {

TEST(ThreadPoolTest, SubmitBatchCoversEveryIndexExactlyOnce) {
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                            std::size_t{200}}) {
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kCount = 100;
    std::vector<std::atomic<int>> hits(kCount);
    std::size_t tasks = ThreadPool::submit_batch(
        kThreads, kCount, chunk, [&](std::size_t, std::size_t begin, std::size_t end) {
          ASSERT_LE(begin, end);
          ASSERT_LE(end, kCount);
          for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
    EXPECT_GE(tasks, 1u);
    EXPECT_LE(tasks, kThreads);
    for (std::size_t i = 0; i < kCount; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "chunk " << chunk << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, SubmitBatchHandlesEmptyAndOversizedChunks) {
  int calls = 0;
  // count == 0: no ranges, returns without touching the body.
  ThreadPool::submit_batch(2, 0, 4,
                           [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // chunk > count: one range spanning everything, one loop task.
  std::vector<int> seen;
  std::size_t tasks = ThreadPool::submit_batch(
      2, 3, 100, [&](std::size_t task, std::size_t begin, std::size_t end) {
        EXPECT_EQ(task, 0u);
        for (std::size_t i = begin; i < end; ++i) seen.push_back(static_cast<int>(i));
      });
  EXPECT_EQ(tasks, 1u);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

// Counts thread exits: a thread_local's destructor runs when its thread
// finishes, before a join on that thread returns.
std::atomic<int> g_loop_thread_exits{0};
struct ThreadExitProbe {
  bool armed = false;
  ~ThreadExitProbe() {
    if (armed) g_loop_thread_exits.fetch_add(1, std::memory_order_relaxed);
  }
};
thread_local ThreadExitProbe t_exit_probe;

// Fork-join: loop tasks run off the calling thread, and every thread that
// ran a range has exited (been joined) by the time submit_batch returns —
// nothing outlives the call.
TEST(ThreadPoolTest, SubmitBatchJoinsEveryLoopTaskBeforeReturning) {
  const auto caller = std::this_thread::get_id();
  std::mutex mutex;
  std::set<std::thread::id> ran_on;
  std::atomic<int> finished{0};
  g_loop_thread_exits.store(0);
  const std::size_t tasks = ThreadPool::submit_batch(
      3, 6, 1, [&](std::size_t, std::size_t begin, std::size_t) {
        t_exit_probe.armed = true;
        {
          std::lock_guard<std::mutex> lock(mutex);
          ran_on.insert(std::this_thread::get_id());
        }
        if (begin % 2 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
        finished.fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(tasks, 3u);
  EXPECT_EQ(finished.load(), 6);
  EXPECT_EQ(ran_on.count(caller), 0u);
  EXPECT_EQ(g_loop_thread_exits.load(), static_cast<int>(ran_on.size()));
}

TEST(ThreadPoolTest, DefaultConcurrencyMatchesAffinityMask) {
  std::size_t n = ThreadPool::default_concurrency();
  EXPECT_GE(n, 1u);
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(n, static_cast<std::size_t>(CPU_COUNT(&set)));
#endif
}

TEST(SimRunnerTest, ForEachIndexRunsEveryIndexExactlyOnce) {
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SimRunner runner(jobs);
    std::vector<std::atomic<int>> hits(50);
    std::vector<std::size_t> results(50, 0);
    runner.for_each_index(50, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
      results[i] = i * i;
    });
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "jobs " << jobs << " index " << i;
      EXPECT_EQ(results[i], i * i) << "jobs " << jobs << " index " << i;
    }
  }
}

// The serial run is the reference: the parallel result must not depend on
// the chunk size or the job count.
TEST(SimRunnerTest, MapIsIdenticalAtAnyChunkSize) {
  std::vector<std::size_t> expected(37);
  SimRunner(1).for_each_index(37,
                              [&expected](std::size_t i) { expected[i] = i * 3 + 1; });
  for (std::size_t jobs : {std::size_t{4}, std::size_t{8}}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      SimRunner runner(jobs);
      std::vector<std::size_t> got(37);
      runner.for_each_index(
          37, [&got](std::size_t i) { got[i] = i * 3 + 1; }, chunk);
      EXPECT_EQ(got, expected) << "jobs " << jobs << " chunk " << chunk;
    }
  }
}

// jobs == 1 is the historical serial contract: every index runs inline on
// the calling thread, in ascending order, with loop-task id 0 and no pool.
TEST(SimRunnerTest, SingleJobRunsInlineInOrder) {
  SimRunner runner(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  runner.for_each_index_tasked(
      20,
      [&](std::size_t task, std::size_t index) {
        EXPECT_EQ(task, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(index);
      },
      /*chunk=*/7);
  ASSERT_EQ(order.size(), 20u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(SimRunnerTest, ForEachIndexTaskedRethrowsFirstFailureInIndexOrder) {
  SimRunner runner(4);
  try {
    runner.for_each_index_tasked(
        10,
        [](std::size_t, std::size_t index) {
          if (index == 3 || index == 7) {
            throw std::runtime_error("index " + std::to_string(index));
          }
        },
        /*chunk=*/2);
    FAIL() << "expected for_each_index_tasked to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "index 3");
  }
}

// The headline contract: fanning legs over 4 workers yields metrics
// bit-identical to the serial run, because each leg rebuilds its scenario
// (and thus its RNG streams) from the same seed.
TEST(SimRunnerTest, ParallelRunMatchesSerialBitForBit) {
  constexpr std::int64_t kHorizon = 60;
  constexpr std::uint64_t kSeed = 42;
  const std::vector<double> v_values = {2.0, 7.5, 30.0};

  auto run_with_jobs = [&](std::size_t jobs) {
    std::vector<std::unique_ptr<SimulationEngine>> engines(v_values.size());
    SimRunner(jobs).for_each_index(v_values.size(), [&](std::size_t leg) {
      PaperScenario scenario = make_paper_scenario(kSeed);
      auto scheduler = std::make_shared<GreFarScheduler>(
          scenario.config, paper_grefar_params(v_values[leg], 100.0));
      auto engine = make_scenario_engine(scenario, std::move(scheduler));
      engine->run(kHorizon);
      engines[leg] = std::move(engine);
    });
    return engines;
  };

  auto serial = run_with_jobs(1);
  auto parallel = run_with_jobs(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t leg = 0; leg < serial.size(); ++leg) {
    const auto& ms = serial[leg]->metrics();
    const auto& mp = parallel[leg]->metrics();
    EXPECT_EQ(ms.final_average_energy_cost(), mp.final_average_energy_cost())
        << "leg " << leg;
    EXPECT_EQ(ms.final_average_fairness(), mp.final_average_fairness())
        << "leg " << leg;
    EXPECT_EQ(ms.mean_delay(), mp.mean_delay()) << "leg " << leg;
    EXPECT_EQ(ms.delay_p95(), mp.delay_p95()) << "leg " << leg;
  }
}

}  // namespace
}  // namespace grefar
