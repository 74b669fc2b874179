#include "core/per_slot_solvers.h"

#include <gtest/gtest.h>

#include "solver/brute_force.h"
#include "util/rng.h"

namespace grefar {
namespace {

ClusterConfig test_config() {
  ClusterConfig c;
  c.server_types = {{"fast", 1.0, 1.0}, {"eff", 0.5, 0.3}};
  c.data_centers = {{"dc1", {4, 4}}, {"dc2", {2, 8}}};
  c.accounts = {{"a", 0.6}, {"b", 0.4}};
  c.job_types = {{"j0", 1.0, {0, 1}, 0}, {"j1", 2.0, {0}, 1}};
  return c;
}

SlotObservation random_obs(const ClusterConfig& c, Rng& rng) {
  SlotObservation obs;
  obs.slot = 0;
  obs.prices.clear();
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    obs.prices.push_back(rng.uniform(0.2, 0.8));
  }
  obs.availability = Matrix<std::int64_t>(c.num_data_centers(), c.num_server_types());
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    for (std::size_t k = 0; k < c.num_server_types(); ++k) {
      obs.availability(i, k) = rng.uniform_int(0, c.data_centers[i].installed[k]);
    }
  }
  obs.central_queue.assign(c.num_job_types(), 0.0);
  obs.dc_queue = MatrixD(c.num_data_centers(), c.num_job_types());
  for (std::size_t i = 0; i < c.num_data_centers(); ++i) {
    for (std::size_t j = 0; j < c.num_job_types(); ++j) {
      if (c.job_types[j].eligible(i)) obs.dc_queue(i, j) = rng.uniform(0.0, 5.0);
    }
  }
  return obs;
}

GreFarParams params(double V, double beta) {
  GreFarParams p;
  p.V = V;
  p.beta = beta;
  p.h_max = 100.0;
  p.r_max = 100.0;
  return p;
}

TEST(GreedySolver, EmptyQueuesProcessNothing) {
  auto config = test_config();
  Rng rng(1);
  auto obs = random_obs(config, rng);
  obs.dc_queue.fill(0.0);
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  auto u = solve_per_slot_greedy(problem);
  for (double v : u) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(GreedySolver, HighVSuppressesProcessing) {
  // With V huge, V*phi*c exceeds any queue value: process nothing.
  auto config = test_config();
  Rng rng(2);
  auto obs = random_obs(config, rng);
  PerSlotProblem problem(config, obs, params(1e9, 0.0));
  auto u = solve_per_slot_greedy(problem);
  for (double v : u) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(GreedySolver, ZeroVProcessesEverythingQueued) {
  // With V = 0 energy is free: serve every queued job up to capacity.
  auto config = test_config();
  config.data_centers = {{"dc1", {100, 0}}, {"dc2", {100, 0}}};  // huge capacity
  Rng rng(3);
  auto obs = random_obs(config, rng);
  obs.availability.fill(100);
  PerSlotProblem problem(config, obs, params(0.0, 0.0));
  auto u = solve_per_slot_greedy(problem);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      if (!config.job_types[j].eligible(i)) continue;
      double queued_work = obs.dc_queue(i, j) * config.job_types[j].work;
      if (obs.dc_queue(i, j) > 0.0) {
        EXPECT_NEAR(u[problem.index(i, j)], queued_work, 1e-9);
      }
    }
  }
}

TEST(GreedySolver, ThresholdBehaviourOnSingleQueue) {
  // One DC, one server type: process iff q/d > V * phi * p/s.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {10}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0}, 0}};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 10;
  obs.central_queue = {0.0};
  obs.dc_queue = MatrixD(1, 1);

  // Threshold: q > V * 0.5. With V = 4 -> threshold 2.
  obs.dc_queue(0, 0) = 1.9;
  PerSlotProblem below(c, obs, params(4.0, 0.0));
  EXPECT_DOUBLE_EQ(solve_per_slot_greedy(below)[0], 0.0);

  obs.dc_queue(0, 0) = 2.1;
  PerSlotProblem above(c, obs, params(4.0, 0.0));
  EXPECT_NEAR(solve_per_slot_greedy(above)[0], 2.1, 1e-9);
}

TEST(GreedySolver, RespectsCapacity) {
  auto config = test_config();
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    auto obs = random_obs(config, rng);
    PerSlotProblem problem(config, obs, params(0.1, 0.0));
    auto u = solve_per_slot_greedy(problem);
    EXPECT_TRUE(problem.polytope().contains(u, 1e-9)) << "trial " << trial;
  }
}

TEST(GreedyVsLp, ObjectivesAgreeOnRandomInstances) {
  auto config = test_config();
  Rng rng(5);
  for (int trial = 0; trial < 40; ++trial) {
    auto obs = random_obs(config, rng);
    double V = rng.uniform(0.0, 10.0);
    PerSlotProblem problem(config, obs, params(V, 0.0));
    auto greedy = solve_per_slot_greedy(problem);
    auto lp = solve_per_slot_lp(problem);
    EXPECT_NEAR(problem.value(greedy), problem.value(lp), 1e-6)
        << "trial " << trial << " V=" << V;
  }
}

TEST(GreedyVsFrankWolfe, AgreeWhenBetaZero) {
  auto config = test_config();
  Rng rng(6);
  for (int trial = 0; trial < 15; ++trial) {
    auto obs = random_obs(config, rng);
    PerSlotProblem problem(config, obs, params(rng.uniform(0.5, 5.0), 0.0));
    auto greedy = solve_per_slot_greedy(problem);
    auto fw = solve_per_slot_frank_wolfe(problem);
    // Greedy is exact for the *kinked* objective; FW minimizes the smoothed
    // one and zigzags near faces — allow the combined slack.
    double scale = std::max(1.0, std::abs(problem.value(greedy)));
    EXPECT_NEAR(problem.value(greedy), problem.value(fw), 5e-3 * scale)
        << "trial " << trial;
  }
}

TEST(FrankWolfeVsPgd, AgreeWithFairness) {
  auto config = test_config();
  Rng rng(7);
  for (int trial = 0; trial < 15; ++trial) {
    auto obs = random_obs(config, rng);
    double beta = rng.uniform(1.0, 100.0);
    PerSlotProblem problem(config, obs, params(rng.uniform(0.5, 5.0), beta));
    auto fw = solve_per_slot_frank_wolfe(problem);
    auto pgd = solve_per_slot_pgd(problem);
    double scale = std::max(1.0, std::abs(problem.value(fw)));
    EXPECT_NEAR(problem.value(fw), problem.value(pgd), 2e-2 * scale)
        << "trial " << trial;
    // PGD is the production solver for beta > 0: it must never be much
    // worse than FW.
    EXPECT_LE(problem.value(pgd), problem.value(fw) + 2e-3 * scale)
        << "trial " << trial;
  }
}

TEST(FairnessSolvers, MatchBruteForceOnTinyInstance) {
  // 1 DC, 2 job types (one per account): 2 variables, exhaustive check.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {6}}};
  c.accounts = {{"a", 0.5}, {"b", 0.5}};
  c.job_types = {{"ja", 1.0, {0}, 0}, {"jb", 1.0, {0}, 1}};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 6;
  obs.central_queue = {0.0, 0.0};
  obs.dc_queue = MatrixD(1, 2);
  obs.dc_queue(0, 0) = 4.0;
  obs.dc_queue(0, 1) = 1.0;

  PerSlotProblem problem(c, obs, params(2.0, 30.0));
  auto fw = solve_per_slot_frank_wolfe(problem);
  auto brute = minimize_brute_force(
      [&](const std::vector<double>& x) { return problem.value(x); },
      problem.polytope(), 41);
  EXPECT_LE(problem.value(fw), brute.objective + 1e-3);
}

TEST(FairnessSolvers, BetaPullsAllocationTowardGamma) {
  // KKT-verifiable instance: capacity 10, equal queues (value 8 per work),
  // gamma = (0.3, 0.7), V = 1, phi = 1, beta = 100. Stationarity on the
  // binding cap gives u* = (3, 7) exactly (equal marginals -7).
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc", {10}}};
  c.accounts = {{"a", 0.3}, {"b", 0.7}};
  c.job_types = {{"ja", 1.0, {0}, 0}, {"jb", 1.0, {0}, 1}};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {1.0};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 10;
  obs.central_queue = {0.0, 0.0};
  obs.dc_queue = MatrixD(1, 2);
  obs.dc_queue(0, 0) = 8.0;
  obs.dc_queue(0, 1) = 8.0;

  GreFarParams p = params(1.0, 100.0);
  PerSlotProblem fair(c, obs, p);
  for (auto solver :
       {PerSlotSolver::kFrankWolfe, PerSlotSolver::kProjectedGradient}) {
    auto u = solve_per_slot(fair, solver);
    EXPECT_NEAR(u[0], 3.0, 0.3) << to_string(solver);
    EXPECT_NEAR(u[1], 7.0, 0.3) << to_string(solver);
  }
}

TEST(PerSlotDispatch, AllSolversRun) {
  auto config = test_config();
  Rng rng(8);
  auto obs = random_obs(config, rng);
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  for (auto solver : {PerSlotSolver::kGreedy, PerSlotSolver::kFrankWolfe,
                      PerSlotSolver::kProjectedGradient, PerSlotSolver::kLp}) {
    auto u = solve_per_slot(problem, solver);
    EXPECT_EQ(u.size(), problem.num_vars());
    EXPECT_TRUE(problem.polytope().contains(u, 1e-6)) << to_string(solver);
  }
}

TEST(CrossSlotWarmStart, OnMatchesTheColdObjective) {
  // Warm-started slots may stop at a (very slightly) different point, but
  // the objective must match the cold solve to solver tolerance for both
  // iterative solvers, across a drifting observation sequence.
  auto config = test_config();
  Rng rng(22);
  GreFarParams p = params(2.0, 50.0);

  std::vector<SlotObservation> slots;
  for (int t = 0; t < 6; ++t) slots.push_back(random_obs(config, rng));
  for (auto solver :
       {PerSlotSolver::kFrankWolfe, PerSlotSolver::kProjectedGradient}) {
    PerSlotProblem problem(config, slots[0], p);
    PerSlotSolverScratch scratch;
    std::vector<double> u;
    for (std::size_t t = 0; t < slots.size(); ++t) {
      problem.reset(slots[t]);
      solve_per_slot_into(problem, solver, u, &scratch);
      EXPECT_TRUE(problem.polytope().contains(u, 1e-6))
          << to_string(solver) << " slot " << t;
      auto cold = solve_per_slot(problem, solver);
      // Either start can stall marginally earlier; in practice the warm one
      // often lands *lower*. Allow the solvers' own accuracy band.
      double scale = std::max(1.0, std::abs(problem.value(cold)));
      EXPECT_NEAR(problem.value(u), problem.value(cold), 5e-3 * scale)
          << to_string(solver) << " slot " << t;
    }
  }
}

TEST(GreedySolver, IdleCompactSlotServesNoStaleDemands) {
  // A busy compact slot primes the per-DC demand caches; the following
  // zero-active-type slot must produce the empty action. Regression: with
  // J == 0 the (qv, ub) cache key rows are empty and compare equal to a
  // *cleared* key (size 0 == J), so the fill served the previous busy
  // slot's demand list and wrote through the zero-variable u — a crash
  // whenever the caller's vector had no retained capacity (fresh engine or
  // a buffer std::move'd away by an iterative solver).
  auto config = test_config();
  Rng rng(31);
  GreFarParams p = params(0.0, 0.0);  // V = 0: route everything queued
  p.clamp_to_queue = true;            // the hint needs the clamp

  SlotObservation busy = random_obs(config, rng);
  busy.active_types_valid = true;
  busy.active_types = {0, 1};
  PerSlotProblem problem(config, busy, p);
  ASSERT_EQ(problem.num_types_effective(), 2u);

  PerSlotSolverScratch scratch;
  std::vector<double> primed;
  solve_per_slot_greedy_into(problem, primed, &scratch);
  double routed = 0.0;
  for (double v : primed) routed += v;
  ASSERT_GT(routed, 0.0);  // the demand caches now hold nonempty lists

  SlotObservation idle = busy;
  idle.dc_queue.fill(0.0);
  idle.central_queue.assign(config.num_job_types(), 0.0);
  idle.active_types.clear();
  problem.reset(idle);
  ASSERT_EQ(problem.num_vars(), 0u);

  std::vector<double> u;  // no capacity — the crashing shape
  solve_per_slot_greedy_into(problem, u, &scratch);
  EXPECT_TRUE(u.empty());

  // The idle slot must not have poisoned the caches for the next busy one.
  problem.reset(busy);
  std::vector<double> again;
  solve_per_slot_greedy_into(problem, again, &scratch);
  ASSERT_EQ(again.size(), primed.size());
  for (std::size_t k = 0; k < again.size(); ++k) EXPECT_EQ(again[k], primed[k]);
}

TEST(PerSlotSolverNames, AreStable) {
  EXPECT_EQ(to_string(PerSlotSolver::kGreedy), "greedy");
  EXPECT_EQ(to_string(PerSlotSolver::kFrankWolfe), "frank-wolfe");
  EXPECT_EQ(to_string(PerSlotSolver::kProjectedGradient), "pgd");
  EXPECT_EQ(to_string(PerSlotSolver::kLp), "lp");
}

// Parameterized: greedy optimality against brute force over a grid of V.
class GreedyOptimalityTest : public ::testing::TestWithParam<double> {};

TEST_P(GreedyOptimalityTest, MatchesBruteForce) {
  const double V = GetParam();
  ClusterConfig c;
  c.server_types = {{"fast", 1.0, 1.0}, {"eff", 0.5, 0.3}};
  c.data_centers = {{"dc", {3, 4}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j0", 1.0, {0}, 0}, {"j1", 2.0, {0}, 0}};
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.45};
  obs.availability = Matrix<std::int64_t>(1, 2);
  obs.availability(0, 0) = 3;
  obs.availability(0, 1) = 4;
  obs.central_queue = {0.0, 0.0};
  obs.dc_queue = MatrixD(1, 2);
  obs.dc_queue(0, 0) = 3.0;
  obs.dc_queue(0, 1) = 1.5;

  PerSlotProblem problem(c, obs, params(V, 0.0));
  auto greedy = solve_per_slot_greedy(problem);
  auto brute = minimize_brute_force(
      [&](const std::vector<double>& x) { return problem.value(x); },
      problem.polytope(), 61);
  EXPECT_LE(problem.value(greedy), brute.objective + 1e-6) << "V=" << V;
}

INSTANTIATE_TEST_SUITE_P(VSweep, GreedyOptimalityTest,
                         ::testing::Values(0.0, 0.1, 0.5, 1.0, 2.5, 5.0, 7.5, 20.0));

}  // namespace
}  // namespace grefar
