#include "core/drift_penalty.h"

#include <gtest/gtest.h>

#include "util/check.h"

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

SlotObservation test_obs(const ClusterConfig& c) {
  SlotObservation obs;
  obs.slot = 0;
  obs.prices = {0.4, 0.5};
  obs.availability = Matrix<std::int64_t>(2, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t k = 0; k < 2; ++k) {
      obs.availability(i, k) = c.data_centers[i].installed[k];
    }
  }
  obs.central_queue = {3.0, 1.0};
  obs.dc_queue = MatrixD(2, 2);
  obs.dc_queue(0, 0) = 2.0;
  obs.dc_queue(0, 1) = 4.0;
  obs.dc_queue(1, 0) = 6.0;
  // (1,1) ineligible
  return obs;
}

GreFarParams params(double V, double beta, bool clamp = true) {
  GreFarParams p;
  p.V = V;
  p.beta = beta;
  p.h_max = 100.0;
  p.r_max = 100.0;
  p.clamp_to_queue = clamp;
  return p;
}

TEST(PerSlotProblem, ShapesAndIndexing) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  EXPECT_EQ(problem.num_vars(), 4u);
  EXPECT_EQ(problem.index(0, 0), 0u);
  EXPECT_EQ(problem.index(1, 1), 3u);
}

TEST(PerSlotProblem, TotalResourceSumsCapacities) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  // dc1: 4*1 + 4*0.5 = 6; dc2: 2*1 + 8*0.5 = 6.
  EXPECT_DOUBLE_EQ(problem.total_resource(), 12.0);
  EXPECT_DOUBLE_EQ(problem.curve(0).capacity(), 6.0);
}

TEST(PerSlotProblem, QueueValuesArePerWorkUnit) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  const double* qv = problem.view().queue_value;  // no hint: all J columns
  EXPECT_DOUBLE_EQ(qv[problem.index(0, 0)], 2.0);       // q/d = 2/1
  EXPECT_DOUBLE_EQ(qv[problem.index(0, 1)], 2.0);       // 4/2
  EXPECT_DOUBLE_EQ(qv[problem.index(1, 0)], 6.0);
  EXPECT_DOUBLE_EQ(qv[problem.index(1, 1)], 0.0);       // ineligible
}

TEST(PerSlotProblem, ClampedUpperBoundsTrackQueues) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(1.0, 0.0, /*clamp=*/true));
  const auto& ub = problem.polytope().upper_bounds();
  EXPECT_DOUBLE_EQ(ub[problem.index(0, 0)], 2.0);   // q * d = 2*1
  EXPECT_DOUBLE_EQ(ub[problem.index(0, 1)], 8.0);   // 4*2
  EXPECT_DOUBLE_EQ(ub[problem.index(1, 1)], 0.0);   // ineligible
}

TEST(PerSlotProblem, UnclampedUpperBoundsUseHMax) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(1.0, 0.0, /*clamp=*/false));
  const auto& ub = problem.polytope().upper_bounds();
  EXPECT_DOUBLE_EQ(ub[problem.index(0, 0)], 100.0);
  EXPECT_DOUBLE_EQ(ub[problem.index(0, 1)], 200.0);  // h_max * d
  EXPECT_DOUBLE_EQ(ub[problem.index(1, 1)], 0.0);    // still ineligible
}

TEST(PerSlotProblem, ValueAtZeroIsZero) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(2.0, 0.0));
  EXPECT_DOUBLE_EQ(problem.value(std::vector<double>(4, 0.0)), 0.0);
}

TEST(PerSlotProblem, ValueMatchesManualComputation) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(2.0, 0.0));
  // u = (1, 0, 0, 0): dc1 serves 1 work on cheapest server (eff: 0.3/0.5=0.6).
  std::vector<double> u{1.0, 0.0, 0.0, 0.0};
  double expected = 2.0 * 0.4 * 0.6 - 2.0 * 1.0;  // V*phi*C(1) - (q/d)*u
  EXPECT_NEAR(problem.value(u), expected, 1e-12);
}

TEST(PerSlotProblem, FairnessTermPenalizesImbalance) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem with_fair(config, obs, params(1.0, 10.0));
  PerSlotProblem no_fair(config, obs, params(1.0, 0.0));
  std::vector<double> u{2.0, 0.0, 1.0, 0.0};  // all work for account a
  // -V*beta*f > 0 penalty added.
  EXPECT_GT(with_fair.value(u), no_fair.value(u));
}

TEST(PerSlotProblem, GradientMatchesFiniteDifferenceSmoothRegion) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(1.5, 25.0));
  // Pick an interior point away from the energy curve kinks.
  std::vector<double> u{0.5, 1.0, 0.8, 0.0};
  std::vector<double> grad;
  problem.gradient(u, grad);
  const double eps = 1e-6;
  for (std::size_t idx = 0; idx < 3; ++idx) {  // skip ineligible var 3
    auto hi = u;
    hi[idx] += eps;
    auto lo = u;
    lo[idx] -= eps;
    double numeric = (problem.value(hi) - problem.value(lo)) / (2 * eps);
    EXPECT_NEAR(grad[idx], numeric, 1e-5) << "var " << idx;
  }
}

TEST(PerSlotProblem, ObjectiveIsConvexAlongRandomSegments) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(1.0, 50.0));
  std::vector<double> a{0.0, 0.0, 0.0, 0.0};
  std::vector<double> b{2.0, 4.0, 3.0, 0.0};
  auto at = [&](double t) {
    std::vector<double> x(4);
    for (std::size_t i = 0; i < 4; ++i) x[i] = a[i] + t * (b[i] - a[i]);
    return problem.value(x);
  };
  // Midpoint convexity along the segment at several points.
  for (double t = 0.1; t < 1.0; t += 0.2) {
    double mid = at(t);
    double chord = 0.5 * (at(t - 0.1) + at(t + 0.1));
    EXPECT_LE(mid, chord + 1e-9);
  }
}

TEST(PerSlotProblem, RejectsBadParams) {
  auto config = test_config();
  auto obs = test_obs(config);
  auto bad = params(-1.0, 0.0);
  EXPECT_THROW(PerSlotProblem(config, obs, bad), ContractViolation);
  bad = params(1.0, -2.0);
  EXPECT_THROW(PerSlotProblem(config, obs, bad), ContractViolation);
}

TEST(PerSlotProblem, ParallelismConstraintCapsUpperBounds) {
  auto config = test_config();
  config.job_types[0].max_rate = 0.5;  // each job absorbs <= 0.5 work/slot
  auto obs = test_obs(config);         // q(0,0) = 2 jobs
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  const auto& ub = problem.polytope().upper_bounds();
  // Without the cap the clamped ub is q*d = 2; with it: 0.5 * ceil(2) = 1.
  EXPECT_DOUBLE_EQ(ub[problem.index(0, 0)], 1.0);
  // Type 1 (unconstrained) keeps its clamped bound.
  EXPECT_DOUBLE_EQ(ub[problem.index(0, 1)], 8.0);
}

TEST(PerSlotProblem, ParallelismConstraintRoundsQueueUp) {
  auto config = test_config();
  config.job_types[0].max_rate = 1.0;
  auto obs = test_obs(config);
  obs.dc_queue(0, 0) = 0.4;  // a partially-served job still counts as one
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  const auto& ub = problem.polytope().upper_bounds();
  // clamp gives 0.4 * d = 0.4; rate cap gives 1.0 * ceil(0.4) = 1 -> min 0.4.
  EXPECT_DOUBLE_EQ(ub[problem.index(0, 0)], 0.4);
}

TEST(PerSlotProblem, WrongVectorSizeIsContractViolation) {
  auto config = test_config();
  auto obs = test_obs(config);
  PerSlotProblem problem(config, obs, params(1.0, 0.0));
  EXPECT_THROW(problem.value({1.0}), ContractViolation);
  std::vector<double> grad;
  EXPECT_THROW(problem.gradient({1.0}, grad), ContractViolation);
}

}  // namespace
}  // namespace grefar
