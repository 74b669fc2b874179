#include "obs/counters.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "parallel/sim_runner.h"

namespace grefar {
namespace {

TEST(CounterRegistry, CountsAndGauges) {
  obs::CounterRegistry reg;
  EXPECT_TRUE(reg.empty());
  reg.count("a");
  reg.count("a", 4);
  reg.count("b", 2);
  reg.gauge_max("g", 1.5);
  reg.gauge_max("g", 0.5);  // lower value does not win
  EXPECT_EQ(reg.counter("a"), 5u);
  EXPECT_EQ(reg.counter("b"), 2u);
  EXPECT_EQ(reg.counter("missing"), 0u);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 1.5);
  EXPECT_FALSE(reg.empty());
}

TEST(CounterRegistry, MergeSumsCountersAndMaxesGauges) {
  obs::CounterRegistry a, b;
  a.count("shared", 3);
  a.count("only_a", 1);
  a.gauge_max("g", 2.0);
  b.count("shared", 4);
  b.count("only_b", 7);
  b.gauge_max("g", 5.0);
  a.merge(b);
  EXPECT_EQ(a.counter("shared"), 7u);
  EXPECT_EQ(a.counter("only_a"), 1u);
  EXPECT_EQ(a.counter("only_b"), 7u);
  EXPECT_DOUBLE_EQ(a.gauge("g"), 5.0);
}

TEST(CounterRegistry, DumpShape) {
  obs::CounterRegistry reg;
  reg.count("x", 2);
  reg.gauge_max("y", 3.0);
  const JsonValue d = reg.dump();
  ASSERT_TRUE(d.is_object());
  EXPECT_DOUBLE_EQ(d.find("counters")->find("x")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(d.find("gauges")->find("y")->as_number(), 3.0);
}

TEST(Counters, FreeFunctionsAreNoOpsWithoutActiveRegistry) {
  ASSERT_EQ(obs::active_counters(), nullptr);
  EXPECT_FALSE(obs::counting());
  obs::count("ignored");        // must not crash or leak anywhere
  obs::gauge_max("ignored", 1.0);
}

TEST(Counters, ScopeInstallsAndRestores) {
  obs::CounterRegistry outer, inner;
  {
    obs::CountersScope outer_scope(&outer);
    EXPECT_EQ(obs::active_counters(), &outer);
    obs::count("seen");
    {
      obs::CountersScope inner_scope(&inner);
      EXPECT_EQ(obs::active_counters(), &inner);
      obs::count("seen");
    }
    EXPECT_EQ(obs::active_counters(), &outer);
    {
      obs::CountersScope off(nullptr);  // nested deactivation
      EXPECT_FALSE(obs::counting());
      obs::count("seen");
    }
    obs::count("seen");
  }
  EXPECT_EQ(obs::active_counters(), nullptr);
  EXPECT_EQ(outer.counter("seen"), 2u);
  EXPECT_EQ(inner.counter("seen"), 1u);
}

// The determinism contract: SimRunner merges per-task registries in task
// order, so totals cannot depend on the worker count.
TEST(Counters, SimRunnerTotalsAreJobCountInvariant) {
  auto run_with = [](std::size_t jobs) {
    obs::CounterRegistry reg;
    obs::CountersScope scope(&reg);
    SimRunner(jobs).for_each_index(8, [](std::size_t i) {
      obs::count("task.runs");
      obs::count("task.work", i);
      obs::gauge_max("task.max", static_cast<double>(i));
    });
    return reg;
  };
  const obs::CounterRegistry serial = run_with(1);
  const obs::CounterRegistry pooled = run_with(4);
  EXPECT_EQ(serial.counters(), pooled.counters());
  EXPECT_EQ(serial.gauges(), pooled.gauges());
  EXPECT_EQ(serial.counter("task.runs"), 8u);
  EXPECT_EQ(serial.counter("task.work"), 28u);
  EXPECT_DOUBLE_EQ(serial.gauge("task.max"), 7.0);
}

}  // namespace
}  // namespace grefar
