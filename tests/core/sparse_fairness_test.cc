// DESIGN.md §12: the per-slot solve over the active-type hint must be
// *bitwise* identical to the solve over all J types (the identity list the
// problem uses without a hint) — same route and process matrices, down to
// the last ulp — across multi-slot runs with churning active sets, for the
// exact greedy (beta = 0), PGD and Frank-Wolfe (beta > 0, warm starts
// across slots remapping between type lists). Traced decides must also
// report the same drift-weight census and tie splits. The LP may return a
// different tied optimal vertex once dead columns are gone, so for it only
// the objective must match. Two scheduler instances see the identical
// observation stream; one gets the active-type hint, the other does not.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/drift_penalty.h"
#include "core/grefar.h"
#include "obs/counters.h"
#include "obs/trace_scope.h"
#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

ClusterConfig random_config(Rng& rng, std::size_t num_dcs, std::size_t num_types,
                            std::size_t num_accounts) {
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}, {"eco", 0.75, 0.6}};
  for (std::size_t i = 0; i < num_dcs; ++i) {
    c.data_centers.push_back({"dc" + std::to_string(i), {12, 8}});
  }
  double gamma_sum = 0.0;
  std::vector<double> gammas(num_accounts);
  for (auto& g : gammas) {
    g = rng.uniform(0.1, 1.0);
    gamma_sum += g;
  }
  for (std::size_t m = 0; m < num_accounts; ++m) {
    c.accounts.push_back({"a" + std::to_string(m), gammas[m] / gamma_sum});
  }
  for (std::size_t j = 0; j < num_types; ++j) {
    JobType jt;
    jt.name = "t" + std::to_string(j);
    jt.work = rng.uniform(0.5, 2.0);
    for (std::size_t i = 0; i < num_dcs; ++i) {
      if (rng.bernoulli(0.7)) jt.eligible_dcs.push_back(i);
    }
    if (jt.eligible_dcs.empty()) {
      jt.eligible_dcs.push_back(rng.uniform_int(0, static_cast<std::int64_t>(num_dcs) - 1));
    }
    jt.account = static_cast<AccountId>(
        rng.uniform_int(0, static_cast<std::int64_t>(num_accounts) - 1));
    c.job_types.push_back(std::move(jt));
  }
  c.validate();
  return c;
}

/// Random queue state honoring the hint contract: a type not in the active
/// list is zero everywhere. p_active churns per call; listed-but-empty
/// types exercise the superset tolerance.
SlotObservation random_obs(Rng& rng, const ClusterConfig& c, std::int64_t slot,
                           double p_active) {
  const std::size_t N = c.num_data_centers();
  const std::size_t J = c.num_job_types();
  SlotObservation obs;
  obs.slot = slot;
  obs.prices.resize(N);
  for (auto& p : obs.prices) p = rng.uniform(0.2, 0.8);
  obs.availability = Matrix<std::int64_t>(N, c.num_server_types());
  for (std::size_t i = 0; i < N; ++i) {
    obs.availability(i, 0) = rng.uniform_int(6, 12);
    obs.availability(i, 1) = rng.uniform_int(4, 8);
  }
  obs.central_queue.assign(J, 0.0);
  obs.dc_queue = MatrixD(N, J);
  obs.dc_queue.fill(0.0);
  obs.active_types.clear();
  for (std::size_t j = 0; j < J; ++j) {
    if (rng.uniform() >= p_active) continue;
    obs.active_types.push_back(static_cast<std::uint32_t>(j));
    if (rng.bernoulli(0.1)) continue;  // listed but empty (superset hint)
    obs.central_queue[j] = static_cast<double>(rng.uniform_int(0, 6));
    for (std::size_t i = 0; i < N; ++i) {
      if (rng.bernoulli(0.5)) {
        obs.dc_queue(i, j) = rng.uniform(0.0, 4.0);
      }
    }
  }
  obs.active_types_valid = true;
  return obs;
}

void expect_actions_bitwise_equal(const SlotAction& sparse, const SlotAction& dense,
                                  std::int64_t slot) {
  ASSERT_EQ(sparse.route.rows(), dense.route.rows());
  ASSERT_EQ(sparse.route.cols(), dense.route.cols());
  for (std::size_t i = 0; i < sparse.route.rows(); ++i) {
    for (std::size_t j = 0; j < sparse.route.cols(); ++j) {
      // EXPECT_EQ on doubles is exact — the bitwise contract.
      EXPECT_EQ(sparse.route(i, j), dense.route(i, j))
          << "route mismatch at slot " << slot << " (" << i << ", " << j << ")";
      EXPECT_EQ(sparse.process(i, j), dense.process(i, j))
          << "process mismatch at slot " << slot << " (" << i << ", " << j << ")";
    }
  }
}

void expect_traces_equal(const TraceScope& sparse, const TraceScope& dense,
                         std::int64_t slot) {
  EXPECT_EQ(sparse.drift_weights_negative, dense.drift_weights_negative)
      << "slot " << slot;
  EXPECT_EQ(sparse.drift_weights_nonnegative, dense.drift_weights_nonnegative)
      << "slot " << slot;
  ASSERT_EQ(sparse.tie_splits.size(), dense.tie_splits.size()) << "slot " << slot;
  for (std::size_t k = 0; k < sparse.tie_splits.size(); ++k) {
    const TraceScope::TieSplit& a = sparse.tie_splits[k];
    const TraceScope::TieSplit& b = dense.tie_splits[k];
    EXPECT_EQ(a.job_type, b.job_type) << "slot " << slot << " split " << k;
    EXPECT_EQ(a.group_size, b.group_size) << "slot " << slot << " split " << k;
    EXPECT_EQ(a.jobs, b.jobs) << "slot " << slot << " split " << k;
    EXPECT_EQ(a.zero_capacity_skipped, b.zero_capacity_skipped)
        << "slot " << slot << " split " << k;
  }
}

/// Per-slot objective of an action's processing decision, evaluated on the
/// post-routing queues over all J types.
double processing_objective(const ClusterConfig& config, const GreFarParams& params,
                            const SlotObservation& obs, const SlotAction& action) {
  SlotObservation routed = obs;
  routed.active_types_valid = false;
  for (std::size_t k = 0; k < routed.dc_queue.data().size(); ++k) {
    routed.dc_queue.data()[k] += action.route.data()[k];
  }
  PerSlotProblem problem(config, routed, params);
  std::vector<double> u(problem.num_vars());
  for (std::size_t i = 0; i < config.num_data_centers(); ++i) {
    for (std::size_t j = 0; j < config.num_job_types(); ++j) {
      u[problem.index(i, j)] = action.process(i, j) * config.job_types[j].work;
    }
  }
  return problem.value(u);
}

enum class Compare { kBitwise, kObjective };

void run_sparse_vs_dense(GreFarParams params, PerSlotSolver solver,
                         std::uint64_t seed, Compare compare = Compare::kBitwise) {
  Rng rng(seed);
  ClusterConfig config = random_config(rng, 3, 48, 12);
  GreFarScheduler with_hint(config, params, solver);
  GreFarScheduler without_hint(config, params, solver);

  obs::CounterRegistry counters;
  SlotAction a_sparse;
  SlotAction a_dense;
  std::size_t traced_splits = 0;
  for (std::int64_t t = 0; t < 60; ++t) {
    // Churn the density: sparse slots, dense slots, idle slots.
    double p_active = 0.15;
    if (t % 7 == 3) p_active = 0.9;
    if (t % 11 == 5) p_active = 0.0;
    SlotObservation obs = random_obs(rng, config, t, p_active);
    // Every other slot is traced, so both decide paths see churn.
    const bool traced = t % 2 == 0;
    TraceScope scope_sparse;
    TraceScope scope_dense;
    {
      obs::CountersScope scope(&counters);
      with_hint.decide_into(obs, a_sparse, traced ? &scope_sparse : nullptr);
    }
    SlotObservation dense_obs = obs;
    dense_obs.active_types_valid = false;  // same state, no hint
    dense_obs.active_types.clear();
    without_hint.decide_into(dense_obs, a_dense, traced ? &scope_dense : nullptr);
    if (traced) {
      expect_traces_equal(scope_sparse, scope_dense, t);
      traced_splits += scope_dense.tie_splits.size();
    }
    if (compare == Compare::kBitwise) {
      expect_actions_bitwise_equal(a_sparse, a_dense, t);
    } else {
      // Routing is solver-independent and stays bitwise; processing is
      // compared by objective, at the greedy-vs-LP tolerance.
      EXPECT_EQ(a_sparse.route.data(), a_dense.route.data()) << "slot " << t;
      const double sparse_value = processing_objective(config, params, obs, a_sparse);
      const double dense_value = processing_objective(config, params, obs, a_dense);
      EXPECT_NEAR(sparse_value, dense_value, 1e-6 * (1.0 + std::abs(dense_value)))
          << "slot " << t;
    }
  }
  // The hinted scheduler must actually have taken the compact path, and
  // the traced slots must have exercised the tie-split annotations.
  EXPECT_GT(counters.counter("fairness.sparse_skips"), 0u);
  EXPECT_GT(traced_splits, 0u);
}

TEST(SparseFairness, GreedyCompactMatchesDenseBitwise) {
  run_sparse_vs_dense(GreFarParams{}, PerSlotSolver::kGreedy, 0xA11CE);
}

TEST(SparseFairness, PgdCompactMatchesDenseBitwise) {
  GreFarParams p;
  p.V = 2.0;
  p.beta = 0.5;
  run_sparse_vs_dense(p, PerSlotSolver::kProjectedGradient, 0xB0B);
}

TEST(SparseFairness, PgdColdStartCompactMatchesDenseBitwise) {
  GreFarParams p;
  p.V = 1.0;
  p.beta = 1.5;
  p.warm_start_across_slots = false;  // greedy cold start every slot
  run_sparse_vs_dense(p, PerSlotSolver::kProjectedGradient, 0xC0FFEE);
}

TEST(SparseFairness, FrankWolfeCompactMatchesDenseBitwise) {
  GreFarParams p;
  p.V = 2.0;
  p.beta = 0.5;
  run_sparse_vs_dense(p, PerSlotSolver::kFrankWolfe, 0xF0F0);
}

TEST(SparseFairness, LpCompactMatchesDenseObjective) {
  GreFarParams p;
  p.V = 1.5;
  run_sparse_vs_dense(p, PerSlotSolver::kLp, 0x1B, Compare::kObjective);
}

TEST(SparseFairness, DenseSlotsInterleavedStayBitwise) {
  // Hint-less slots in the middle of a hinted run force compact -> dense ->
  // compact transitions (warm-start remaps, action-clear invariant resets).
  Rng rng(0xD15C0);
  ClusterConfig config = random_config(rng, 2, 32, 8);
  GreFarParams params;
  params.V = 2.0;
  params.beta = 0.8;
  GreFarScheduler mixed(config, params, PerSlotSolver::kProjectedGradient);
  GreFarScheduler dense(config, params, PerSlotSolver::kProjectedGradient);
  SlotAction a_mixed;
  SlotAction a_dense;
  for (std::int64_t t = 0; t < 40; ++t) {
    SlotObservation obs = random_obs(rng, config, t, 0.25);
    SlotObservation mixed_obs = obs;
    if (t % 3 == 1) {  // every third slot loses the hint
      mixed_obs.active_types_valid = false;
      mixed_obs.active_types.clear();
    }
    mixed.decide_into(mixed_obs, a_mixed);
    SlotObservation dense_obs = obs;
    dense_obs.active_types_valid = false;
    dense_obs.active_types.clear();
    dense.decide_into(dense_obs, a_dense);
    expect_actions_bitwise_equal(a_mixed, a_dense, t);
  }
}

TEST(SparseFairness, DriftPenaltyRejectsOutOfRangeAccount) {
  // Satellite (a): a job type referencing a missing account must fail fast
  // at problem construction with a pointed message, not corrupt the
  // fairness buffers at solve time.
  ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc0", {4}}};
  c.accounts = {{"only", 1.0}};
  c.job_types = {{"bad", 1.0, {0}, 1}};  // account 1 of a 1-account cluster
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.5};
  obs.availability = Matrix<std::int64_t>(1, 1);
  obs.availability(0, 0) = 4;
  obs.central_queue = {0.0};
  obs.dc_queue = MatrixD(1, 1);
  EXPECT_THROW(PerSlotProblem(c, obs, GreFarParams{}), ContractViolation);
}

}  // namespace
}  // namespace grefar
