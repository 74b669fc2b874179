// google-benchmark microbenchmarks for the substrates: simplex LP, the
// capped-box oracles, the energy curve, and a full simulation step.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/baselines.h"
#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "sim/engine.h"
#include "sim/fairness.h"
#include "solver/capped_box.h"
#include "solver/lp.h"
#include "util/rng.h"

namespace grefar {
namespace {

LinearProgram random_lp(std::size_t vars, std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  LinearProgram lp(vars);
  for (std::size_t j = 0; j < vars; ++j) lp.set_objective(j, rng.uniform(-1.0, 1.0));
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> coeffs(vars);
    for (auto& c : coeffs) c = rng.uniform(0.0, 1.0);
    lp.add_constraint(std::move(coeffs), ConstraintSense::kLessEqual,
                      rng.uniform(1.0, 5.0));
  }
  for (std::size_t j = 0; j < vars; ++j) lp.add_upper_bound(j, 2.0);
  return lp;
}

void BM_SimplexSolve(benchmark::State& state) {
  auto lp = random_lp(static_cast<std::size_t>(state.range(0)),
                      static_cast<std::size_t>(state.range(1)), 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve_lp(lp));
  }
}
BENCHMARK(BM_SimplexSolve)->Args({10, 5})->Args({30, 15})->Args({80, 40});

/// The warm-start benchmark LP: random_lp plus a handful of >= rows, so a
/// cold solve cannot start from the slack basis and must drive artificials
/// out in phase 1 (the frame/window LPs have this shape — their queue
/// dynamics rows are equalities).
LinearProgram warm_bench_lp(std::size_t vars, std::size_t rows) {
  auto lp = random_lp(vars, rows, 11);
  Rng rng(23);
  for (std::size_t r = 0; r < 8; ++r) {
    std::vector<double> coeffs(vars);
    for (auto& c : coeffs) c = rng.uniform(0.0, 1.0);
    lp.add_constraint(std::move(coeffs), ConstraintSense::kGreaterEqual,
                      rng.uniform(0.5, 1.5));
  }
  return lp;
}

void BM_SimplexWarmStart(benchmark::State& state) {
  // The FW/LMO pattern: fixed polytope, new objective every call, each solve
  // re-entering phase 2 from the previous optimal basis. Cycle a pool of
  // pre-generated objectives so the solver never sees the same one twice in
  // a row. Compare against BM_SimplexColdRecost, which runs the identical
  // loop without the basis.
  auto lp = warm_bench_lp(static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(1)));
  Rng rng(17);
  std::vector<double> base(lp.num_vars());
  for (std::size_t j = 0; j < base.size(); ++j) base[j] = rng.uniform(-1.0, 1.0);
  std::vector<std::vector<double>> objectives(16);
  for (auto& c : objectives) {
    c.resize(lp.num_vars());
    for (std::size_t j = 0; j < c.size(); ++j) {
      c[j] = base[j] + rng.uniform(-0.05, 0.05);
    }
  }
  SimplexBasis basis = solve_lp(lp).basis;
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto& c = objectives[cursor];
    cursor = (cursor + 1) % objectives.size();
    for (std::size_t j = 0; j < c.size(); ++j) lp.set_objective(j, c[j]);
    LpSolution sol = solve_lp(lp, basis);
    basis = std::move(sol.basis);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_SimplexWarmStart)->Args({80, 40});

void BM_SimplexColdRecost(benchmark::State& state) {
  // Control for BM_SimplexWarmStart: the same objective-cycling loop on the
  // same LP, but every solve is from scratch.
  auto lp = warm_bench_lp(static_cast<std::size_t>(state.range(0)),
                          static_cast<std::size_t>(state.range(1)));
  Rng rng(17);
  std::vector<double> base(lp.num_vars());
  for (std::size_t j = 0; j < base.size(); ++j) base[j] = rng.uniform(-1.0, 1.0);
  std::vector<std::vector<double>> objectives(16);
  for (auto& c : objectives) {
    c.resize(lp.num_vars());
    for (std::size_t j = 0; j < c.size(); ++j) {
      c[j] = base[j] + rng.uniform(-0.05, 0.05);
    }
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    const auto& c = objectives[cursor];
    cursor = (cursor + 1) % objectives.size();
    for (std::size_t j = 0; j < c.size(); ++j) lp.set_objective(j, c[j]);
    benchmark::DoNotOptimize(solve_lp(lp));
  }
}
BENCHMARK(BM_SimplexColdRecost)->Args({80, 40});

void BM_CappedBoxProject(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  CappedBoxPolytope polytope(std::vector<double>(n, 2.0));
  polytope.add_group(0, n, static_cast<double>(n) / 3.0);
  std::vector<double> y(n);
  for (auto& v : y) v = rng.uniform(-1.0, 3.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(polytope.project(y));
  }
}
BENCHMARK(BM_CappedBoxProject)->Arg(8)->Arg(64)->Arg(512);

void BM_CappedBoxLmo(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  CappedBoxPolytope polytope(std::vector<double>(n, 2.0));
  polytope.add_group(0, n, static_cast<double>(n) / 3.0);
  std::vector<double> c(n);
  for (auto& v : c) v = rng.uniform(-1.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(polytope.minimize_linear(c));
  }
}
BENCHMARK(BM_CappedBoxLmo)->Arg(8)->Arg(64)->Arg(512);

/// Sparse-fairness kernels at account scale (DESIGN.md §12). The dense score
/// walks all M accounts; the active-set score walks only the ~10^3 that
/// received work. Both produce bitwise-identical values (sim/fairness.h);
/// this pair exists to record the cost gap, so the args are {M, active}.
FairnessFunction fairness_for(std::size_t m) {
  std::vector<double> gamma(m, 1.0 / static_cast<double>(m));
  return FairnessFunction(std::move(gamma));
}

void BM_FairnessScore(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto active = static_cast<std::size_t>(state.range(1));
  FairnessFunction f = fairness_for(m);
  Rng rng(31);
  std::vector<double> r(m, 0.0);
  for (std::size_t a = 0; a < active; ++a) {
    r[(m / active) * a] = rng.uniform(0.0, 2.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.score(r, 1000.0));
  }
}
BENCHMARK(BM_FairnessScore)->Args({100000, 1000})->Args({1000000, 1000});

void BM_FairnessScoreActive(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const auto active = static_cast<std::size_t>(state.range(1));
  FairnessFunction f = fairness_for(m);
  Rng rng(31);
  std::vector<std::uint32_t> ids;
  std::vector<double> r_active;
  for (std::size_t a = 0; a < active; ++a) {
    ids.push_back(static_cast<std::uint32_t>((m / active) * a));
    r_active.push_back(rng.uniform(0.0, 2.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.score_active(ids.data(), r_active.data(), ids.size(), 1000.0));
  }
}
BENCHMARK(BM_FairnessScoreActive)->Args({100000, 1000})->Args({1000000, 1000});

void BM_EnergyCurve(benchmark::State& state) {
  std::vector<ServerType> types;
  std::vector<std::int64_t> avail;
  Rng rng(5);
  for (int k = 0; k < 8; ++k) {
    types.push_back({"t", rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.5)});
    avail.push_back(rng.uniform_int(10, 100));
  }
  for (auto _ : state) {
    EnergyCostCurve curve(types, avail);
    benchmark::DoNotOptimize(curve.energy_for_work(0.5 * curve.capacity()));
  }
}
BENCHMARK(BM_EnergyCurve);

void BM_SimulationStepGreFar(benchmark::State& state) {
  auto scenario = make_paper_scenario(9);
  auto scheduler = std::make_shared<GreFarScheduler>(scenario.config,
                                                     paper_grefar_params(7.5, 0.0));
  SimulationEngine engine(scenario.config, scenario.prices, scenario.availability,
                          scenario.arrivals, scheduler);
  for (auto _ : state) {
    engine.step();
  }
}
BENCHMARK(BM_SimulationStepGreFar);

void BM_SimulationStepAlways(benchmark::State& state) {
  auto scenario = make_paper_scenario(10);
  auto scheduler = std::make_shared<AlwaysScheduler>(scenario.config);
  SimulationEngine engine(scenario.config, scenario.prices, scenario.availability,
                          scenario.arrivals, scheduler);
  for (auto _ : state) {
    engine.step();
  }
}
BENCHMARK(BM_SimulationStepAlways);

}  // namespace
}  // namespace grefar

#include "common/benchmark_main.h"
