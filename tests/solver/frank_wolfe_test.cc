#include "solver/frank_wolfe.h"

#include <gtest/gtest.h>

#include "solver/brute_force.h"
#include "solver/projected_gradient.h"
#include "util/rng.h"

namespace grefar {
namespace {

class QuadraticObjective final : public ConvexObjective {
 public:
  explicit QuadraticObjective(std::vector<double> target) : target_(std::move(target)) {}

  double value(const std::vector<double>& x) const override {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      s += 0.5 * (x[i] - target_[i]) * (x[i] - target_[i]);
    }
    return s;
  }
  void gradient(const std::vector<double>& x, std::vector<double>& out) const override {
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = x[i] - target_[i];
  }

 private:
  std::vector<double> target_;
};

/// Linear objective: FW should land on the LMO vertex in one step.
class LinearObjective final : public ConvexObjective {
 public:
  explicit LinearObjective(std::vector<double> c) : c_(std::move(c)) {}

  double value(const std::vector<double>& x) const override {
    double s = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) s += c_[i] * x[i];
    return s;
  }
  void gradient(const std::vector<double>&, std::vector<double>& out) const override {
    out = c_;
  }

 private:
  std::vector<double> c_;
};

TEST(FrankWolfe, InteriorQuadraticMinimum) {
  CappedBoxPolytope p({10.0, 10.0});
  QuadraticObjective obj({2.0, 3.0});
  auto result = minimize_frank_wolfe(obj, p);
  EXPECT_NEAR(result.x[0], 2.0, 1e-3);
  EXPECT_NEAR(result.x[1], 3.0, 1e-3);
}

TEST(FrankWolfe, LinearObjectiveReachesVertex) {
  CappedBoxPolytope p({2.0, 2.0});
  p.add_group(0, 2, 3.0);
  LinearObjective obj({-3.0, -1.0});
  auto result = minimize_frank_wolfe(obj, p);
  EXPECT_NEAR(result.x[0], 2.0, 1e-6);
  EXPECT_NEAR(result.x[1], 1.0, 1e-6);
  EXPECT_TRUE(result.converged);
}

TEST(FrankWolfe, GapCertifiesOptimality) {
  // Vanilla FW converges O(1/k) toward faces (zigzag), so the certificate is
  // loose but must still bound the suboptimality from above.
  CappedBoxPolytope p({5.0, 5.0});
  p.add_group(0, 2, 4.0);
  QuadraticObjective obj({3.0, 3.0});
  auto result = minimize_frank_wolfe(obj, p);
  EXPECT_LE(result.gap, 0.05);
  EXPECT_NEAR(result.x[0] + result.x[1], 4.0, 0.02);
  // Gap really does upper-bound the suboptimality: f(x*) = 1 at (2,2).
  EXPECT_LE(result.objective - 1.0, result.gap + 1e-9);
}

TEST(FrankWolfe, AgreesWithPgdOnRandomQuadratics) {
  Rng rng(11);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> target{rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 3.0),
                               rng.uniform(-1.0, 3.0)};
    QuadraticObjective obj(target);
    CappedBoxPolytope p({2.0, 1.0, 1.5});
    p.add_group(0, 3, rng.uniform(1.0, 4.0));
    auto fw = minimize_frank_wolfe(obj, p);
    auto pgd = minimize_projected_gradient(obj, p);
    EXPECT_NEAR(fw.objective, pgd.objective, 2e-3) << "trial " << trial;
  }
}

TEST(FrankWolfe, MatchesBruteForce) {
  QuadraticObjective obj({0.8, 1.3});
  CappedBoxPolytope p({1.0, 1.0});
  p.add_group(0, 2, 1.5);
  auto fw = minimize_frank_wolfe(obj, p);
  auto brute = minimize_brute_force(
      [&](const std::vector<double>& x) { return obj.value(x); }, p, 41);
  EXPECT_LE(fw.objective, brute.objective + 1e-4);
}

TEST(FrankWolfe, WarmStartPreservesOptimum) {
  CappedBoxPolytope p({2.0, 2.0});
  QuadraticObjective obj({1.0, 1.0});
  auto cold = minimize_frank_wolfe(obj, p);
  auto warm = minimize_frank_wolfe(obj, p, {2.0, 0.0});
  EXPECT_NEAR(cold.objective, warm.objective, 1e-5);
}

TEST(FrankWolfe, IterationBudgetRespected) {
  CappedBoxPolytope p({1.0});
  QuadraticObjective obj({0.5});
  FrankWolfeOptions options;
  options.max_iterations = 3;
  auto result = minimize_frank_wolfe(obj, p, {}, options);
  EXPECT_LE(result.iterations, 3);
}

}  // namespace
}  // namespace grefar
