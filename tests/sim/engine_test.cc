#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/grefar.h"
#include "price/price_model.h"
#include "scenario/paper_scenario.h"
#include "util/check.h"

namespace grefar {
namespace {

/// Test scheduler driven by a lambda.
class LambdaScheduler final : public Scheduler {
 public:
  using Fn = std::function<SlotAction(const SlotObservation&)>;
  explicit LambdaScheduler(Fn fn) : fn_(std::move(fn)) {}

  SlotAction decide(const SlotObservation& obs) override { return fn_(obs); }
  std::string name() const override { return "lambda"; }

 private:
  Fn fn_;
};

ClusterConfig simple_config() {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {10}}, {"dc2", {10}}};
  c.accounts = {{"acct", 1.0}};
  c.job_types = {{"job", 1.0, {0, 1}, 0}};
  return c;
}

SlotAction idle_action(const SlotObservation& obs) {
  SlotAction a;
  a.route = MatrixD(obs.dc_queue.rows(), obs.dc_queue.cols());
  a.process = MatrixD(obs.dc_queue.rows(), obs.dc_queue.cols());
  return a;
}

std::unique_ptr<SimulationEngine> make_engine(
    LambdaScheduler::Fn fn, std::vector<std::int64_t> arrivals = {2},
    ClusterConfig config = simple_config()) {
  auto prices = std::make_shared<ConstantPriceModel>(
      std::vector<double>(config.num_data_centers(), 0.5));
  auto avail = std::make_shared<FullAvailability>(config.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::move(arrivals));
  auto sched = std::make_shared<LambdaScheduler>(std::move(fn));
  return std::make_unique<SimulationEngine>(std::move(config), prices, avail, arr,
                                            sched);
}

TEST(Engine, ArrivalsEnterCentralQueue) {
  auto engine = make_engine(idle_action);
  engine->step();
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 2.0);
  engine->step();
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 4.0);
  EXPECT_EQ(engine->slot(), 2);
}

TEST(Engine, ObservationReflectsState) {
  auto engine = make_engine(idle_action);
  engine->step();
  auto obs = engine->observe();
  EXPECT_EQ(obs.slot, 1);
  EXPECT_DOUBLE_EQ(obs.central_queue[0], 2.0);
  EXPECT_DOUBLE_EQ(obs.prices[0], 0.5);
  EXPECT_EQ(obs.availability(0, 0), 10);
  EXPECT_DOUBLE_EQ(obs.dc_queue(0, 0), 0.0);
}

TEST(Engine, RoutingMovesJobsClampedByQueue) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 100.0;  // want far more than queued
    return a;
  });
  engine->step();  // queue empty: nothing to route
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 0.0);
  engine->step();  // 2 queued jobs move
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(engine->central_queue_length(0), 2.0);  // fresh arrivals
}

TEST(Engine, RoutingSplitsAcrossDataCenters) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 1.0;
    a.route(1, 0) = 1.0;
    return a;
  });
  engine->run(2);
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(1, 0), 1.0);
}

TEST(Engine, FractionalRoutingAskIsContractViolation) {
  // Integer-routing contract (sim/scheduler.h): a scheduler emitting an
  // unrounded relaxation value must fail loudly, not be silently floored.
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 2.4;
    return a;
  });
  EXPECT_THROW(engine->step(), ContractViolation);
}

TEST(Engine, NearIntegralRoutingAskIsAccepted) {
  // Floating-point noise up to 1e-6 rounds to the nearest integer.
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 2.0 + 5e-7;
    return a;
  });
  engine->step();  // queue empty
  engine->step();  // routes the 2 queued jobs
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 2.0);
}

TEST(Engine, IneligibleRoutingIsContractViolation) {
  ClusterConfig config = simple_config();
  config.job_types[0].eligible_dcs = {0};  // DC2 not allowed
  auto engine = make_engine(
      [](const SlotObservation& obs) {
        auto a = idle_action(obs);
        a.route(1, 0) = 1.0;
        return a;
      },
      {2}, config);
  EXPECT_THROW(engine->step(), ContractViolation);
}

TEST(Engine, IneligibleProcessingIsContractViolation) {
  ClusterConfig config = simple_config();
  config.job_types[0].eligible_dcs = {0};
  auto engine = make_engine(
      [](const SlotObservation& obs) {
        auto a = idle_action(obs);
        a.process(1, 0) = 1.0;
        return a;
      },
      {2}, config);
  EXPECT_THROW(engine->step(), ContractViolation);
}

TEST(Engine, ServiceCompletesJobsAndChargesEnergy) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = obs.central_queue[0];
    a.process(0, 0) = obs.dc_queue(0, 0) + obs.central_queue[0];
    return a;
  });
  engine->run(3);
  const auto& m = engine->metrics();
  // Slot 0: nothing to do. Slots 1, 2: 2 jobs routed+served each.
  EXPECT_DOUBLE_EQ(m.energy_cost.at(0), 0.0);
  // speed 1, power 1, price 0.5 => energy cost = 0.5 * work.
  EXPECT_DOUBLE_EQ(m.energy_cost.at(1), 1.0);
  EXPECT_DOUBLE_EQ(m.energy_cost.at(2), 1.0);
  EXPECT_DOUBLE_EQ(m.dc_completions[0].at(1), 2.0);
  // Jobs arrived at slot 0, completed at slot 1: delay 1 each.
  EXPECT_DOUBLE_EQ(m.dc_delay_sum[0].at(1), 2.0);
}

TEST(Engine, ProcessingIsClampedToCapacity) {
  // Capacity is 10 work/slot; demand 30 queued jobs of work 1.
  auto engine = make_engine(
      [](const SlotObservation& obs) {
        auto a = idle_action(obs);
        a.route(0, 0) = obs.central_queue[0];
        a.process(0, 0) = obs.dc_queue(0, 0) + obs.central_queue[0];
        return a;
      },
      {30});
  engine->run(2);
  const auto& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.dc_work[0].at(1), 10.0);  // capped
  EXPECT_DOUBLE_EQ(engine->dc_queue_length(0, 0), 20.0);
}

TEST(Engine, FairnessRecordedAgainstTotalResource) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = obs.central_queue[0];
    a.process(0, 0) = 100.0;
    return a;
  });
  engine->run(2);
  const auto& m = engine->metrics();
  // Slot 1: 2 units of work for the only account, R = 20; gamma = 1.
  double expected = -(2.0 / 20.0 - 1.0) * (2.0 / 20.0 - 1.0);
  EXPECT_NEAR(m.fairness.at(1), expected, 1e-12);
}

TEST(Engine, MetricsSeriesHaveOneEntryPerSlot) {
  auto engine = make_engine(idle_action);
  engine->run(7);
  const auto& m = engine->metrics();
  EXPECT_EQ(m.slots(), 7u);
  EXPECT_EQ(m.energy_cost.size(), 7u);
  EXPECT_EQ(m.fairness.size(), 7u);
  EXPECT_EQ(m.arrived_jobs.size(), 7u);
  EXPECT_EQ(m.dc_work[0].size(), 7u);
  EXPECT_EQ(m.dc_price[1].size(), 7u);
  EXPECT_EQ(m.account_work[0].size(), 7u);
  EXPECT_DOUBLE_EQ(m.arrived_jobs.at(3), 2.0);
  EXPECT_DOUBLE_EQ(m.arrived_work.at(3), 2.0);
}

TEST(Engine, QueueTelemetryTracksBacklog) {
  auto engine = make_engine(idle_action);
  engine->run(5);
  const auto& m = engine->metrics();
  // After service at slot t (no service here), queues hold 2*t jobs.
  EXPECT_DOUBLE_EQ(m.total_queue_jobs.at(4), 8.0);  // before slot-4 arrivals
  EXPECT_DOUBLE_EQ(m.max_queue_jobs.at(4), 8.0);
}

TEST(Engine, RoutedJobsMetricCountsActualMoves) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.route(0, 0) = 100.0;  // desire far more than available
    return a;
  });
  engine->run(3);
  const auto& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.dc_routed_jobs[0].at(0), 0.0);  // nothing queued yet
  EXPECT_DOUBLE_EQ(m.dc_routed_jobs[0].at(1), 2.0);  // the slot-0 arrivals
  EXPECT_DOUBLE_EQ(m.dc_routed_jobs[0].at(2), 2.0);
  EXPECT_DOUBLE_EQ(m.dc_routed_jobs[1].at(1), 0.0);
}

TEST(Engine, RoutedJobsKeepArrivalSlotAndGainDcEntrySlot) {
  // Route at slot 1, serve at slot 3: total delay 3, dc delay 2.
  int slot_counter = 0;
  auto engine = make_engine([&](const SlotObservation& obs) {
    auto a = idle_action(obs);
    if (obs.slot == 1) a.route(0, 0) = 10.0;
    if (obs.slot == 3) a.process(0, 0) = 10.0;
    ++slot_counter;
    return a;
  });
  engine->run(4);
  const auto& m = engine->metrics();
  EXPECT_DOUBLE_EQ(m.dc_completions[0].at(3), 2.0);
  EXPECT_DOUBLE_EQ(m.dc_delay_sum[0].at(3), 6.0);  // 2 jobs x (3 - 0)
}

TEST(Engine, PartialServiceLeavesFractionalQueue) {
  ClusterConfig config = simple_config();
  config.job_types[0].work = 4.0;
  auto engine = make_engine(
      [](const SlotObservation& obs) {
        auto a = idle_action(obs);
        a.route(0, 0) = obs.central_queue[0];
        a.process(0, 0) = 0.5;  // half a job per slot
        return a;
      },
      {1}, config);
  engine->run(2);
  // One job routed and half-served at slot 1: queue length 1.5 jobs total
  // (0.5 remaining of the first + the freshly arrived slot-1 job still
  // central). DC queue alone holds 0.5.
  EXPECT_NEAR(engine->dc_queue_length(0, 0), 0.5, 1e-9);
}

TEST(Engine, WrongActionShapeIsContractViolation) {
  auto engine = make_engine([](const SlotObservation&) {
    SlotAction a;
    a.route = MatrixD(1, 1);
    a.process = MatrixD(1, 1);
    return a;
  });
  EXPECT_THROW(engine->step(), ContractViolation);
}

TEST(Engine, MismatchedModelsAreRejected) {
  auto config = simple_config();
  auto prices = std::make_shared<ConstantPriceModel>(std::vector<double>{0.5});  // 1 DC
  auto avail = std::make_shared<FullAvailability>(config.data_centers);
  auto arr = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{1});
  auto sched = std::make_shared<LambdaScheduler>(idle_action);
  EXPECT_THROW(SimulationEngine(config, prices, avail, arr, sched),
               ContractViolation);
}

TEST(Engine, NegativeDecisionsAreContractViolations) {
  auto engine = make_engine([](const SlotObservation& obs) {
    auto a = idle_action(obs);
    a.process(0, 0) = -1.0;
    return a;
  });
  EXPECT_THROW(engine->step(), ContractViolation);
}

// The sweep-arena contract: after reset() a used engine is observably a
// fresh engine — a full GreFar run on the reset engine must be bitwise
// identical to the same run on a newly constructed one.
TEST(Engine, ResetMatchesFreshEngineBitwise) {
  constexpr std::int64_t kSlots = 50;
  auto scenario_a = make_paper_scenario(/*seed=*/42);
  auto scenario_b = make_paper_scenario(/*seed=*/43);
  auto make_grefar = [](const PaperScenario& s) {
    return std::make_shared<GreFarScheduler>(
        s.config, paper_grefar_params(/*V=*/7.5, /*beta=*/100.0));
  };

  // Dirty an engine on scenario A, then reset it onto scenario B.
  auto reused = make_scenario_engine(scenario_a, make_grefar(scenario_a));
  reused->run(kSlots);
  auto config_b = std::make_shared<const ClusterConfig>(scenario_b.config);
  reused->reset(config_b, scenario_b.prices, scenario_b.availability,
                scenario_b.arrivals, make_grefar(scenario_b));
  reused->run(kSlots);

  // Reference: a brand-new engine on scenario B (fresh models — the lazy
  // caches are deterministic per seed, so regenerating is equivalent).
  auto scenario_b2 = make_paper_scenario(/*seed=*/43);
  auto fresh = make_scenario_engine(scenario_b2, make_grefar(scenario_b2));
  fresh->run(kSlots);

  const auto& mr = reused->metrics();
  const auto& mf = fresh->metrics();
  ASSERT_EQ(mr.slots(), mf.slots());
  for (std::size_t t = 0; t < mr.slots(); ++t) {
    EXPECT_EQ(mr.energy_cost.at(t), mf.energy_cost.at(t)) << "slot " << t;
    EXPECT_EQ(mr.fairness.at(t), mf.fairness.at(t)) << "slot " << t;
    EXPECT_EQ(mr.arrived_jobs.at(t), mf.arrived_jobs.at(t)) << "slot " << t;
  }
  EXPECT_EQ(mr.account_work_total, mf.account_work_total);
  EXPECT_EQ(mr.mean_delay(), mf.mean_delay());
  EXPECT_EQ(mr.delay_p50(), mf.delay_p50());
  EXPECT_EQ(mr.delay_p99(), mf.delay_p99());
  EXPECT_EQ(mr.delay_stats.max(), mf.delay_stats.max());
}

// Re-running after a reset to the *same* scenario (same config pointer, the
// skip-revalidation fast path) reproduces the original run.
TEST(Engine, ResetToSameScenarioReplaysRun) {
  constexpr std::int64_t kSlots = 40;
  auto scenario = make_paper_scenario(/*seed=*/42);
  auto config = std::make_shared<const ClusterConfig>(scenario.config);
  auto make_grefar = [&] {
    return std::make_shared<GreFarScheduler>(config,
                                             paper_grefar_params(7.5, 0.0));
  };
  SimulationEngine engine(config, scenario.prices, scenario.availability,
                          scenario.arrivals, make_grefar());
  engine.run(kSlots);
  const std::vector<double> first = engine.metrics().energy_cost.values();
  engine.reset(config, scenario.prices, scenario.availability, scenario.arrivals,
               make_grefar());
  engine.run(kSlots);
  EXPECT_EQ(engine.metrics().energy_cost.values(), first);
}

}  // namespace
}  // namespace grefar
