// Materialized scenario artifacts must replay the lazy stochastic models
// bitwise over [0, horizon) — the contract that lets sweep legs share one
// read-only instance instead of regenerating per leg — and the hash-cons
// cache must build each unique key exactly once.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "scenario/paper_scenario.h"
#include "sweep/artifact_cache.h"
#include "workload/arrival_process.h"

namespace grefar {
namespace sweep {
namespace {

constexpr std::int64_t kHorizon = 96;

TEST(ArtifactCacheTest, MaterializedPricesReplayLazyModelBitwise) {
  PaperScenario scenario = make_paper_scenario(/*seed=*/42);
  ScenarioArtifacts art = materialize_scenario(scenario, kHorizon);
  // A *fresh* lazy model from the same seed: materialization must neither
  // perturb nor depend on the original instance's cache state.
  PaperScenario fresh = make_paper_scenario(/*seed=*/42);
  ASSERT_EQ(art.prices->num_data_centers(), fresh.prices->num_data_centers());
  for (std::size_t i = 0; i < fresh.prices->num_data_centers(); ++i) {
    for (std::int64_t t = 0; t < kHorizon; ++t) {
      EXPECT_EQ(art.prices->price(i, t), fresh.prices->price(i, t))
          << "dc " << i << " slot " << t;
    }
  }
}

TEST(ArtifactCacheTest, MaterializedAvailabilityReplaysLazyModelBitwise) {
  PaperScenario scenario = make_paper_scenario(/*seed=*/7);
  ScenarioArtifacts art = materialize_scenario(scenario, kHorizon);
  PaperScenario fresh = make_paper_scenario(/*seed=*/7);
  for (std::int64_t t = 0; t < kHorizon; ++t) {
    EXPECT_TRUE(art.availability->availability(t) ==
                fresh.availability->availability(t))
        << "slot " << t;
  }
}

TEST(ArtifactCacheTest, MaterializedArrivalsReplayLazyModelExactly) {
  PaperScenario scenario = make_paper_scenario(/*seed=*/13);
  ScenarioArtifacts art = materialize_scenario(scenario, kHorizon);
  PaperScenario fresh = make_paper_scenario(/*seed=*/13);
  ASSERT_EQ(art.arrivals->num_job_types(), fresh.arrivals->num_job_types());
  EXPECT_EQ(art.arrivals->has_valued_arrivals(),
            fresh.arrivals->has_valued_arrivals());
  std::vector<std::int64_t> got, want;
  for (std::int64_t t = 0; t < kHorizon; ++t) {
    art.arrivals->arrivals_into(t, got);
    fresh.arrivals->arrivals_into(t, want);
    EXPECT_EQ(got, want) << "slot " << t;
  }
}

TEST(ArtifactCacheTest, ValuedArrivalsKeepBatchAnnotations) {
  // A hand-built valued process: the table must preserve batch order and
  // the value/decay/deadline annotations bit-for-bit.
  std::vector<std::vector<ArrivalBatch>> slots(4);
  slots[0] = {{/*type=*/0, /*count=*/2, /*value=*/5.0, /*decay=*/0.25,
               /*deadline=*/12},
              {/*type=*/1, /*count=*/1, /*value=*/3.5, /*decay=*/0.5,
               /*deadline=*/kTypeDefaultDeadline}};
  slots[2] = {{/*type=*/1, /*count=*/4}};
  PaperScenario scenario = make_paper_scenario(/*seed=*/1);
  scenario.arrivals = std::make_shared<ValuedTableArrivals>(slots, /*num_types=*/2);
  ScenarioArtifacts art = materialize_scenario(scenario, /*horizon=*/4);
  ASSERT_TRUE(art.arrivals->has_valued_arrivals());
  std::vector<ArrivalBatch> got;
  for (std::int64_t t = 0; t < 4; ++t) {
    art.arrivals->valued_arrivals_into(t, got);
    ASSERT_EQ(got.size(), slots[static_cast<std::size_t>(t)].size()) << "slot " << t;
    for (std::size_t b = 0; b < got.size(); ++b) {
      const ArrivalBatch& want = slots[static_cast<std::size_t>(t)][b];
      EXPECT_EQ(got[b].type, want.type);
      EXPECT_EQ(got[b].count, want.count);
      // NaN annotations must survive as NaN (bit-pattern compare via ==
      // would reject NaN == NaN, so compare through isnan on both sides).
      EXPECT_EQ(std::isnan(got[b].value), std::isnan(want.value));
      if (!std::isnan(want.value)) {
        EXPECT_EQ(got[b].value, want.value);
      }
      EXPECT_EQ(std::isnan(got[b].decay_rate), std::isnan(want.decay_rate));
      if (!std::isnan(want.decay_rate)) {
        EXPECT_EQ(got[b].decay_rate, want.decay_rate);
      }
      EXPECT_EQ(got[b].deadline, want.deadline);
    }
  }
}

TEST(ArtifactCacheTest, HashConsReturnsSameInstanceAndBuildsOnce) {
  ArtifactCache cache;
  int builds = 0;
  auto builder = [&builds] {
    ++builds;
    return materialize_scenario(make_paper_scenario(/*seed=*/42), /*horizon=*/8);
  };
  auto a = cache.get_or_build("paper/seed=42", builder);
  auto b = cache.get_or_build("paper/seed=42", builder);
  EXPECT_EQ(a.get(), b.get()) << "same key must share one instance";
  EXPECT_EQ(builds, 1);
  auto c = cache.get_or_build("paper/seed=43", [&builds] {
    ++builds;
    return materialize_scenario(make_paper_scenario(/*seed=*/43), /*horizon=*/8);
  });
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ArtifactCacheTest, EngineRunOnArtifactsMatchesLazyScenarioBitwise) {
  // End-to-end: a GreFar run on the materialized tables must produce
  // bitwise-identical metrics to the same run on the lazy models.
  constexpr std::int64_t kRun = 64;
  PaperScenario lazy = make_paper_scenario(/*seed=*/42);
  auto run = [&](const PaperScenario& s) {
    auto scheduler = std::make_shared<GreFarScheduler>(
        s.config, paper_grefar_params(/*V=*/7.5, /*beta=*/100.0));
    auto engine = make_scenario_engine(s, std::move(scheduler), AuditMode::kOff);
    engine->run(kRun);
    return engine;
  };
  auto reference = run(lazy);

  ScenarioArtifacts art = materialize_scenario(make_paper_scenario(/*seed=*/42), kRun);
  PaperScenario table_backed;
  table_backed.config = *art.config;
  table_backed.prices = art.prices;
  table_backed.availability = art.availability;
  table_backed.arrivals = art.arrivals;
  table_backed.seed = art.seed;
  auto materialized = run(table_backed);

  const auto& mr = reference->metrics();
  const auto& mm = materialized->metrics();
  ASSERT_EQ(mr.slots(), mm.slots());
  for (std::size_t t = 0; t < mr.slots(); ++t) {
    EXPECT_EQ(mr.energy_cost.at(t), mm.energy_cost.at(t)) << "slot " << t;
    EXPECT_EQ(mr.fairness.at(t), mm.fairness.at(t)) << "slot " << t;
  }
  EXPECT_EQ(mr.mean_delay(), mm.mean_delay());
  EXPECT_EQ(mr.delay_p99(), mm.delay_p99());
}

}  // namespace
}  // namespace sweep
}  // namespace grefar
