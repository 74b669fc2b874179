// Sweep-engine determinism suite (DESIGN.md §16).
//
// The load-bearing guarantees, each locked by a test:
//   * chunked dynamic scheduling is invisible — results are bitwise
//     identical at any (jobs, chunk) combination;
//   * arena reuse is invisible — a reused engine/scheduler produces the
//     same bits as a freshly constructed one per leg;
//   * the whole sweep engine is equivalent to the historical
//     rebuild-per-leg path, leg for leg;
//   * warm starts (opt-in) stay deterministic across jobs/chunks even
//     though they are not bitwise-comparable to cold runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/baselines.h"
#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "sweep/sweep_engine.h"
#include "util/check.h"

namespace grefar {
namespace sweep {
namespace {

constexpr std::int64_t kHorizon = 48;
constexpr std::uint64_t kSeed = 42;

/// 2 seeds x 3 V values x 2 policies = 12 legs, exercising the GreFar arena
/// path, the make_scheduler path and two distinct scenario keys at once.
SweepSpec small_spec() {
  SweepSpec spec;
  spec.axes = {{.name = "seed", .values = {42.0, 43.0}},
               {.name = "policy", .labels = {"grefar", "always"}},
               {.name = "V", .values = {2.0, 7.5, 20.0}}};
  spec.horizon = kHorizon;
  spec.scenario = [](const SweepPoint& p) {
    return make_paper_scenario(kSeed + p.index(0));
  };
  spec.plan = [](const SweepPoint& p) {
    LegPlan plan;
    plan.scenario_key = "paper/seed=" + std::to_string(kSeed + p.index(0));
    if (p.index(1) == 0) {
      plan.grefar = GreFarLegSpec{paper_grefar_params(p.value(2), 100.0), {}};
    } else {
      plan.make_scheduler = [](const ScenarioArtifacts& art) {
        return std::make_shared<AlwaysScheduler>(*art.config);
      };
    }
    return plan;
  };
  return spec;
}

struct LegDigest {
  std::vector<double> energy;
  std::vector<double> fairness;
  double delay = 0.0;
  double p95 = 0.0;
  std::string scheduler;

  bool operator==(const LegDigest& other) const = default;
};

std::vector<LegDigest> run_digests(const SweepOptions& options,
                                   const SweepSpec& spec) {
  SweepEngine engine(options);
  std::vector<LegDigest> digests(spec.num_legs());
  engine.run(spec, [&digests](std::size_t leg, SimulationEngine& e) {
    LegDigest& d = digests[leg];
    const SimMetrics& m = e.metrics();
    for (std::size_t t = 0; t < m.slots(); ++t) {
      d.energy.push_back(m.energy_cost.at(t));
      d.fairness.push_back(m.fairness.at(t));
    }
    d.delay = m.mean_delay();
    d.p95 = m.delay_p95();
    d.scheduler = std::string(e.scheduler().name());
  });
  return digests;
}

TEST(SweepEngineTest, BitwiseIdenticalAtAnyJobsAndChunk) {
  SweepSpec spec = small_spec();
  SweepOptions reference_options;
  reference_options.jobs = 1;
  reference_options.chunk_size = 1;
  auto reference = run_digests(reference_options, spec);
  ASSERT_EQ(reference.size(), 12u);
  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
      SweepOptions options;
      options.jobs = jobs;
      options.chunk_size = chunk;
      auto digests = run_digests(options, spec);
      ASSERT_EQ(digests.size(), reference.size());
      for (std::size_t leg = 0; leg < digests.size(); ++leg) {
        EXPECT_TRUE(digests[leg] == reference[leg])
            << "leg " << leg << " differs at jobs=" << jobs
            << " chunk=" << chunk;
      }
    }
  }
}

TEST(SweepEngineTest, ReusedArenasMatchFreshEnginesBitwise) {
  SweepSpec spec = small_spec();
  SweepOptions fresh_options;
  fresh_options.jobs = 4;
  fresh_options.chunk_size = 3;
  fresh_options.reuse_engines = false;  // construct per leg: the reference
  auto fresh = run_digests(fresh_options, spec);
  SweepOptions reuse_options = fresh_options;
  reuse_options.reuse_engines = true;
  auto reused = run_digests(reuse_options, spec);
  ASSERT_EQ(fresh.size(), reused.size());
  for (std::size_t leg = 0; leg < fresh.size(); ++leg) {
    EXPECT_TRUE(fresh[leg] == reused[leg]) << "leg " << leg;
  }
}

TEST(SweepEngineTest, SteadyStateRunOnSameEngineIsBitwiseStable) {
  // Arenas persist across run() calls; the second pass (everything reused,
  // cache hot) must reproduce the first bit-for-bit.
  SweepSpec spec = small_spec();
  SweepOptions options;
  options.jobs = 2;
  options.chunk_size = 4;
  SweepEngine engine(options);
  auto collect_into = [&spec](std::vector<LegDigest>& digests) {
    digests.assign(spec.num_legs(), LegDigest{});
    return [&digests](std::size_t leg, SimulationEngine& e) {
      const SimMetrics& m = e.metrics();
      for (std::size_t t = 0; t < m.slots(); ++t) {
        digests[leg].energy.push_back(m.energy_cost.at(t));
      }
      digests[leg].delay = m.mean_delay();
    };
  };
  std::vector<LegDigest> first, second;
  engine.run(spec, collect_into(first));
  engine.run(spec, collect_into(second));
  EXPECT_EQ(engine.artifacts().size(), 2u) << "two unique scenario keys";
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t leg = 0; leg < first.size(); ++leg) {
    EXPECT_TRUE(first[leg] == second[leg]) << "leg " << leg;
  }
}

TEST(SweepEngineTest, MatchesRebuildPerLegPathBitwise) {
  SweepSpec spec = small_spec();
  SweepOptions options;
  options.jobs = 4;
  options.chunk_size = 2;
  auto sweep_digests = run_digests(options, spec);
  for (std::size_t leg = 0; leg < spec.num_legs(); ++leg) {
    SweepPoint p = spec.point(leg);
    PaperScenario scenario = make_paper_scenario(kSeed + p.index(0));
    std::shared_ptr<Scheduler> scheduler;
    if (p.index(1) == 0) {
      scheduler = std::make_shared<GreFarScheduler>(
          scenario.config, paper_grefar_params(p.value(2), 100.0));
    } else {
      scheduler = std::make_shared<AlwaysScheduler>(scenario.config);
    }
    auto engine = make_scenario_engine(scenario, std::move(scheduler));
    engine->run(kHorizon);
    const SimMetrics& m = engine->metrics();
    ASSERT_EQ(m.slots(), sweep_digests[leg].energy.size()) << "leg " << leg;
    for (std::size_t t = 0; t < m.slots(); ++t) {
      EXPECT_EQ(m.energy_cost.at(t), sweep_digests[leg].energy[t])
          << "leg " << leg << " slot " << t;
      EXPECT_EQ(m.fairness.at(t), sweep_digests[leg].fairness[t])
          << "leg " << leg << " slot " << t;
    }
    EXPECT_EQ(m.mean_delay(), sweep_digests[leg].delay) << "leg " << leg;
  }
}

TEST(SweepEngineTest, RejectsWarmStart) {
  SweepOptions options;
  options.warm_start = true;
  SweepEngine engine(options);
  EXPECT_THROW(engine.run(small_spec(), [](std::size_t, SimulationEngine&) {}),
               ContractViolation);
}

TEST(SweepEngineTest, AuditStrideSamplesLegs) {
  // audit=throw on every 5th leg: runs clean (the paper scenario holds its
  // invariants) and proves the stride path executes end to end.
  SweepSpec spec = small_spec();
  SweepOptions options;
  options.jobs = 2;
  options.audit = AuditMode::kThrow;
  options.audit_stride = 5;
  SweepEngine engine(options);
  auto stats = engine.run(spec, [](std::size_t, SimulationEngine&) {});
  EXPECT_EQ(stats.legs, 12u);
  EXPECT_EQ(stats.unique_scenarios, 2u);
}

}  // namespace
}  // namespace sweep
}  // namespace grefar
