#include "solver/capped_box.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

double dist2(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += (a[i] - b[i]) * (a[i] - b[i]);
  return s;
}

TEST(CappedBox, RejectsNegativeBounds) {
  EXPECT_THROW(CappedBoxPolytope({1.0, -0.5}), ContractViolation);
}

TEST(CappedBox, RejectsOverlappingGroups) {
  CappedBoxPolytope p({1.0, 1.0, 1.0});
  p.add_group(0, 2, 1.0);
  EXPECT_THROW(p.add_group(1, 3, 1.0), ContractViolation);
}

// Groups are [begin, end) ranges: a range past dim(), a reversed range, or
// one that overlaps an existing group in any way is rejected, and a rejected
// group leaves the polytope unchanged.
TEST(CappedBox, RejectsGroupRangesOutsideDimOrOverlapping) {
  CappedBoxPolytope p({1.0, 1.0, 1.0, 1.0});
  EXPECT_THROW(p.add_group(2, 5, 1.0), ContractViolation);  // past dim()
  EXPECT_THROW(p.add_group(4, 5, 1.0), ContractViolation);
  EXPECT_THROW(p.add_group(3, 2, 1.0), ContractViolation);  // reversed
  p.add_group(1, 3, 0.5);
  EXPECT_THROW(p.add_group(0, 4, 1.0), ContractViolation);  // superset
  EXPECT_THROW(p.add_group(2, 3, 1.0), ContractViolation);  // subset
  EXPECT_THROW(p.add_group(0, 2, 1.0), ContractViolation);  // left overlap
  EXPECT_EQ(p.num_groups(), 1u);
  // The rejected ranges marked nothing: the free ends still form groups.
  p.add_group(0, 1, 1.0);
  p.add_group(3, 4, 1.0);
  EXPECT_EQ(p.num_groups(), 3u);
  EXPECT_TRUE(p.contains({1.0, 0.25, 0.25, 1.0}));
  EXPECT_FALSE(p.contains({1.0, 0.5, 0.25, 1.0}));  // cap 0.5 on [1, 3)
}

TEST(CappedBox, RejectsNegativeCap) {
  CappedBoxPolytope p({1.0});
  EXPECT_THROW(p.add_group(0, 1, -1.0), ContractViolation);
}

TEST(CappedBox, ContainsChecksBoxAndCap) {
  CappedBoxPolytope p({2.0, 2.0});
  p.add_group(0, 2, 3.0);
  EXPECT_TRUE(p.contains({1.0, 1.0}));
  EXPECT_TRUE(p.contains({2.0, 1.0}));
  EXPECT_FALSE(p.contains({2.0, 2.0}));  // cap 3 violated
  EXPECT_FALSE(p.contains({-0.1, 0.0}));
  EXPECT_FALSE(p.contains({2.5, 0.0}));
}

TEST(CappedBox, ProjectInsideIsIdentity) {
  CappedBoxPolytope p({2.0, 2.0});
  p.add_group(0, 2, 3.0);
  auto x = p.project({0.5, 1.0});
  EXPECT_DOUBLE_EQ(x[0], 0.5);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(CappedBox, ProjectClampsBoxOnly) {
  CappedBoxPolytope p({1.0, 1.0});
  auto x = p.project({-3.0, 5.0});
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(CappedBox, ProjectOntoCapIsSymmetric) {
  CappedBoxPolytope p({10.0, 10.0});
  p.add_group(0, 2, 2.0);
  auto x = p.project({3.0, 3.0});
  EXPECT_NEAR(x[0], 1.0, 1e-7);
  EXPECT_NEAR(x[1], 1.0, 1e-7);
}

TEST(CappedBox, ProjectRespectsUpperBoundDuringCapProjection) {
  // y = (5, 0.6), ub = (1, 1), cap = 1.2. Clamping first would give
  // (1, 0.6) -> lambda shift; the true projection is clamp(y - lambda).
  CappedBoxPolytope p({1.0, 1.0});
  p.add_group(0, 2, 1.2);
  auto x = p.project({5.0, 0.6});
  EXPECT_TRUE(p.contains(x, 1e-6));
  EXPECT_NEAR(x[0] + x[1], 1.2, 1e-6);
  // x0 should stay at its bound (y0 - lambda >= 1 for the solving lambda).
  EXPECT_NEAR(x[0], 1.0, 1e-6);
  EXPECT_NEAR(x[1], 0.2, 1e-6);
}

TEST(CappedBox, ProjectionIsClosestFeasiblePoint) {
  // Verify the projection property against random feasible points.
  Rng rng(7);
  CappedBoxPolytope p({1.5, 2.0, 1.0});
  p.add_group(0, 3, 2.5);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<double> y{rng.uniform(-1.0, 4.0), rng.uniform(-1.0, 4.0),
                          rng.uniform(-1.0, 4.0)};
    auto proj = p.project(y);
    ASSERT_TRUE(p.contains(proj, 1e-6));
    double proj_d = dist2(proj, y);
    for (int s = 0; s < 200; ++s) {
      std::vector<double> z{rng.uniform(0.0, 1.5), rng.uniform(0.0, 2.0),
                            rng.uniform(0.0, 1.0)};
      if (!p.contains(z, 0.0)) continue;
      EXPECT_GE(dist2(z, y) + 1e-6, proj_d)
          << "found a closer feasible point than the projection";
    }
  }
}

TEST(CappedBox, MinimizeLinearBoxOnly) {
  CappedBoxPolytope p({2.0, 3.0});
  auto x = p.minimize_linear({-1.0, 0.5});
  EXPECT_DOUBLE_EQ(x[0], 2.0);  // negative cost saturates
  EXPECT_DOUBLE_EQ(x[1], 0.0);  // positive cost stays at zero
}

TEST(CappedBox, MinimizeLinearFillsCheapestFirst) {
  CappedBoxPolytope p({2.0, 2.0, 2.0});
  p.add_group(0, 3, 3.0);
  auto x = p.minimize_linear({-3.0, -1.0, -2.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);  // most negative first
  EXPECT_DOUBLE_EQ(x[2], 1.0);  // then next, fractional at the cap
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(CappedBox, MinimizeLinearIgnoresNonNegativeCosts) {
  CappedBoxPolytope p({2.0, 2.0});
  p.add_group(0, 2, 3.0);
  auto x = p.minimize_linear({0.0, 1.0});
  EXPECT_DOUBLE_EQ(x[0], 0.0);
  EXPECT_DOUBLE_EQ(x[1], 0.0);
}

TEST(CappedBox, MinimizeLinearIsOptimalAgainstRandomFeasiblePoints) {
  Rng rng(21);
  CappedBoxPolytope p({1.0, 2.0, 0.5, 1.5});
  p.add_group(0, 2, 1.8);
  p.add_group(2, 4, 1.0);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> c{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                          rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)};
    auto x = p.minimize_linear(c);
    ASSERT_TRUE(p.contains(x, 1e-9));
    double fx = 0.0;
    for (std::size_t i = 0; i < 4; ++i) fx += c[i] * x[i];
    for (int s = 0; s < 300; ++s) {
      std::vector<double> z{rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0),
                            rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.5)};
      if (!p.contains(z, 0.0)) continue;
      double fz = 0.0;
      for (std::size_t i = 0; i < 4; ++i) fz += c[i] * z[i];
      EXPECT_GE(fz + 1e-9, fx);
    }
  }
}

TEST(CappedBox, ZeroCapGroupPinsToZero) {
  CappedBoxPolytope p({5.0, 5.0});
  p.add_group(0, 2, 0.0);
  auto x = p.project({3.0, 3.0});
  EXPECT_NEAR(x[0], 0.0, 1e-9);
  EXPECT_NEAR(x[1], 0.0, 1e-9);
  auto lmo = p.minimize_linear({-1.0, -1.0});
  EXPECT_DOUBLE_EQ(lmo[0] + lmo[1], 0.0);
}

TEST(CappedBox, DimensionMismatchIsContractViolation) {
  CappedBoxPolytope p({1.0, 1.0});
  EXPECT_THROW(p.project({1.0}), ContractViolation);
  EXPECT_THROW(p.minimize_linear({1.0, 2.0, 3.0}), ContractViolation);
  EXPECT_THROW(p.contains({1.0}), ContractViolation);
  EXPECT_THROW(p.add_group(5, 6, 1.0), ContractViolation);
}

}  // namespace
}  // namespace grefar
