#include "solver/projected_gradient.h"

#include <gtest/gtest.h>

#include "solver/brute_force.h"
#include "util/rng.h"

namespace grefar {
namespace {

/// Quadratic 0.5 ||x - target||^2 — projection in disguise.
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

/// Linear + quadratic + smoothly-blended hinge, resembling the (smoothed)
/// GreFar slot objective. The hinge penalty 2*(total - kink)_+ has its slope
/// blended over [kink - w, kink + w] so the function is C^1 — the contract
/// the first-order solvers document (see PerSlotProblem's kink smoothing).
class MixedObjective final : public ConvexObjective {
 public:
  MixedObjective(std::vector<double> slopes, double kink, double quad)
      : slopes_(std::move(slopes)), kink_(kink), quad_(quad) {}

  double value(const std::vector<double>& x) const override {
    double s = 0.0;
    double total = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      s += slopes_[i] * x[i];
      total += x[i];
    }
    s += quad_ * total * total;
    s += hinge_value(total);
    return s;
  }
  void gradient(const std::vector<double>& x, std::vector<double>& out) const override {
    out.resize(x.size());
    double total = 0.0;
    for (double v : x) total += v;
    double common = 2.0 * quad_ * total + hinge_slope(total);
    for (std::size_t i = 0; i < x.size(); ++i) out[i] = slopes_[i] + common;
  }

 private:
  static constexpr double kBlend = 0.1;  // smoothing half-width
  double hinge_slope(double total) const {
    if (total <= kink_ - kBlend) return 0.0;
    if (total >= kink_ + kBlend) return 2.0;
    return 2.0 * (total - (kink_ - kBlend)) / (2.0 * kBlend);
  }
  double hinge_value(double total) const {
    if (total <= kink_ - kBlend) return 0.0;
    if (total >= kink_ + kBlend) return 2.0 * (total - kink_);
    double z = total - (kink_ - kBlend);
    return 0.5 * z * hinge_slope(total);  // integral of the linear ramp
  }

  std::vector<double> slopes_;
  double kink_;
  double quad_;
};

TEST(Pgd, UnconstrainedInteriorMinimum) {
  CappedBoxPolytope p({10.0, 10.0});
  QuadraticObjective obj({2.0, 3.0});
  auto result = minimize_projected_gradient(obj, p);
  EXPECT_NEAR(result.x[0], 2.0, 1e-4);
  EXPECT_NEAR(result.x[1], 3.0, 1e-4);
  EXPECT_NEAR(result.objective, 0.0, 1e-7);
}

TEST(Pgd, BoxActiveAtOptimum) {
  CappedBoxPolytope p({1.0, 1.0});
  QuadraticObjective obj({5.0, 0.5});
  auto result = minimize_projected_gradient(obj, p);
  EXPECT_NEAR(result.x[0], 1.0, 1e-5);
  EXPECT_NEAR(result.x[1], 0.5, 1e-5);
}

TEST(Pgd, CapActiveAtOptimum) {
  CappedBoxPolytope p({5.0, 5.0});
  p.add_group(0, 2, 2.0);
  QuadraticObjective obj({3.0, 3.0});
  auto result = minimize_projected_gradient(obj, p);
  EXPECT_NEAR(result.x[0], 1.0, 1e-5);
  EXPECT_NEAR(result.x[1], 1.0, 1e-5);
}

TEST(Pgd, StartingPointDoesNotChangeOptimum) {
  CappedBoxPolytope p({4.0, 4.0});
  p.add_group(0, 2, 5.0);
  QuadraticObjective obj({1.0, 2.0});
  auto a = minimize_projected_gradient(obj, p, {0.0, 0.0});
  auto b = minimize_projected_gradient(obj, p, {4.0, 1.0});
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
}

TEST(Pgd, MatchesBruteForceOnMixedObjective) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> slopes{rng.uniform(-2.0, 1.0), rng.uniform(-2.0, 1.0),
                               rng.uniform(-2.0, 1.0)};
    MixedObjective obj(slopes, 1.5, 0.3);
    CappedBoxPolytope p({1.0, 1.5, 2.0});
    p.add_group(0, 3, rng.uniform(1.0, 3.5));

    auto pgd = minimize_projected_gradient(obj, p);
    auto brute = minimize_brute_force(
        [&](const std::vector<double>& x) { return obj.value(x); }, p, 21);
    EXPECT_LE(pgd.objective, brute.objective + 1e-3) << "trial " << trial;
  }
}

TEST(Pgd, ReportsIterationsAndConvergence) {
  CappedBoxPolytope p({1.0});
  QuadraticObjective obj({0.5});
  auto result = minimize_projected_gradient(obj, p);
  EXPECT_GT(result.iterations, 0);
  EXPECT_TRUE(result.converged);
}

TEST(Pgd, ZeroIterationBudgetReturnsProjectedStart) {
  CappedBoxPolytope p({1.0});
  QuadraticObjective obj({0.5});
  PgdOptions options;
  options.max_iterations = 0;
  auto result = minimize_projected_gradient(obj, p, {5.0}, options);
  EXPECT_NEAR(result.x[0], 1.0, 1e-12);  // projected start
}

}  // namespace
}  // namespace grefar
