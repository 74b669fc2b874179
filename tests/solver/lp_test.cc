#include "solver/lp.h"

#include <gtest/gtest.h>

#include "solver/brute_force.h"
#include "solver/capped_box.h"
#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj=36.
  LinearProgram lp(2);
  lp.set_objective(0, -3.0);  // minimize the negation
  lp.set_objective(1, -5.0);
  lp.add_constraint({1.0, 0.0}, ConstraintSense::kLessEqual, 4.0);
  lp.add_constraint({0.0, 2.0}, ConstraintSense::kLessEqual, 12.0);
  lp.add_constraint({3.0, 2.0}, ConstraintSense::kLessEqual, 18.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], 2.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 6.0, 1e-8);
  EXPECT_NEAR(sol.objective, -36.0, 1e-8);
}

TEST(Simplex, SolvesMinimizationWithGreaterEqual) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2 => x=8? No: cost favors x (2<3),
  // so x=10-y with y=0... but x >= 2 anyway. Optimum x=10, y=0, obj=20.
  LinearProgram lp(2);
  lp.set_objective(0, 2.0);
  lp.set_objective(1, 3.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kGreaterEqual, 10.0);
  lp.add_constraint({1.0, 0.0}, ConstraintSense::kGreaterEqual, 2.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 20.0, 1e-8);
  EXPECT_NEAR(sol.x[0], 10.0, 1e-8);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x + 2y s.t. x + y = 5, x <= 3 => x=3, y=2, obj=7.
  LinearProgram lp(2);
  lp.set_objective(0, 1.0);
  lp.set_objective(1, 2.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kEqual, 5.0);
  lp.add_constraint({1.0, 0.0}, ConstraintSense::kLessEqual, 3.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], 3.0, 1e-8);
  EXPECT_NEAR(sol.x[1], 2.0, 1e-8);
  EXPECT_NEAR(sol.objective, 7.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({1.0}, ConstraintSense::kLessEqual, 1.0);
  lp.add_constraint({1.0}, ConstraintSense::kGreaterEqual, 2.0);
  auto sol = solve_lp(lp);
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LinearProgram lp(1);
  lp.set_objective(0, -1.0);  // minimize -x with x unbounded above
  lp.add_constraint({1.0}, ConstraintSense::kGreaterEqual, 0.0);
  auto sol = solve_lp(lp);
  EXPECT_EQ(sol.status, LpStatus::kUnbounded);
}

TEST(Simplex, HandlesNegativeRhs) {
  // min x s.t. -x <= -3  (i.e. x >= 3).
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  lp.add_constraint({-1.0}, ConstraintSense::kLessEqual, -3.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], 3.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Klee-Minty-flavoured degeneracy: multiple constraints tight at optimum.
  LinearProgram lp(2);
  lp.set_objective(0, -1.0);
  lp.set_objective(1, -1.0);
  lp.add_constraint({1.0, 0.0}, ConstraintSense::kLessEqual, 1.0);
  lp.add_constraint({0.0, 1.0}, ConstraintSense::kLessEqual, 1.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kLessEqual, 2.0);
  lp.add_constraint({1.0, -1.0}, ConstraintSense::kLessEqual, 0.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -2.0, 1e-8);
}

TEST(Simplex, ZeroObjectiveReturnsFeasiblePoint) {
  LinearProgram lp(2);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kEqual, 4.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0] + sol.x[1], 4.0, 1e-8);
}

TEST(Simplex, RedundantEqualityRows) {
  // x + y = 2 stated twice: phase 1 must drive artificials out or mark the
  // duplicate row redundant.
  LinearProgram lp(2);
  lp.set_objective(0, 1.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kEqual, 2.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kEqual, 2.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, 0.0, 1e-8);  // put all mass on y
  EXPECT_NEAR(sol.x[1], 2.0, 1e-8);
}

TEST(Simplex, SparseConstraintBuilder) {
  LinearProgram lp(4);
  lp.set_objective(3, 1.0);
  lp.add_constraint_sparse({{0, 1.0}, {3, 1.0}}, ConstraintSense::kGreaterEqual, 2.0);
  lp.add_upper_bound(0, 1.5);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[3], 0.5, 1e-8);  // x0 maxes at 1.5, x3 covers the rest
}

TEST(Simplex, SparseBuilderAccumulatesDuplicateIndices) {
  LinearProgram lp(1);
  lp.set_objective(0, 1.0);
  // 0.5x + 0.5x >= 3  => x >= 3.
  lp.add_constraint_sparse({{0, 0.5}, {0, 0.5}}, ConstraintSense::kGreaterEqual, 3.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], 3.0, 1e-8);
}

TEST(Simplex, ConstraintShapeIsChecked) {
  LinearProgram lp(2);
  EXPECT_THROW(lp.add_constraint({1.0}, ConstraintSense::kLessEqual, 1.0),
               ContractViolation);
  EXPECT_THROW(lp.set_objective(2, 1.0), ContractViolation);
}

TEST(Simplex, TransportationProblem) {
  // 2 sources (supply 20, 30), 3 sinks (demand 10, 25, 15), known optimum.
  // cost matrix: [8 6 10; 9 12 13]
  LinearProgram lp(6);
  const double cost[2][3] = {{8, 6, 10}, {9, 12, 13}};
  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t d = 0; d < 3; ++d) lp.set_objective(s * 3 + d, cost[s][d]);
  }
  lp.add_constraint({1, 1, 1, 0, 0, 0}, ConstraintSense::kLessEqual, 20.0);
  lp.add_constraint({0, 0, 0, 1, 1, 1}, ConstraintSense::kLessEqual, 30.0);
  lp.add_constraint({1, 0, 0, 1, 0, 0}, ConstraintSense::kEqual, 10.0);
  lp.add_constraint({0, 1, 0, 0, 1, 0}, ConstraintSense::kEqual, 25.0);
  lp.add_constraint({0, 0, 1, 0, 0, 1}, ConstraintSense::kEqual, 15.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  // Optimal: x12=20 (src0->sink1), rest from src1: x20=10, x21=5, x22=15.
  // cost = 6*20 + 9*10 + 12*5 + 13*15 = 120+90+60+195 = 465.
  EXPECT_NEAR(sol.objective, 465.0, 1e-6);
}

TEST(Simplex, RandomLpsMatchBruteForceOverVertices) {
  // Random 2-var LPs with box + one coupling constraint; optimum must be at
  // a vertex, so compare against scanning the candidate vertex set.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    double c0 = rng.uniform(-2.0, 2.0);
    double c1 = rng.uniform(-2.0, 2.0);
    double ub0 = rng.uniform(0.5, 3.0);
    double ub1 = rng.uniform(0.5, 3.0);
    double cap = rng.uniform(0.5, ub0 + ub1);

    LinearProgram lp(2);
    lp.set_objective(0, c0);
    lp.set_objective(1, c1);
    lp.add_upper_bound(0, ub0);
    lp.add_upper_bound(1, ub1);
    lp.add_constraint({1.0, 1.0}, ConstraintSense::kLessEqual, cap);
    auto sol = solve_lp(lp);
    ASSERT_TRUE(sol.optimal());

    double best = 0.0;  // origin is feasible
    auto consider = [&](double x, double y) {
      if (x < -1e-9 || y < -1e-9 || x > ub0 + 1e-9 || y > ub1 + 1e-9) return;
      if (x + y > cap + 1e-9) return;
      best = std::min(best, c0 * x + c1 * y);
    };
    consider(ub0, 0.0);
    consider(0.0, ub1);
    consider(ub0, ub1);
    consider(std::min(ub0, cap), 0.0);
    consider(0.0, std::min(ub1, cap));
    consider(ub0, cap - ub0);
    consider(cap - ub1, ub1);
    EXPECT_NEAR(sol.objective, best, 1e-7) << "trial " << trial;
  }
}

TEST(Simplex, UpperBoundTightAtOptimum) {
  // max x + y with x <= 1.5 (bound), x + y <= 2: both the bound and the row
  // are tight at (1.5, 0.5).
  LinearProgram lp(2);
  lp.set_objective(0, -1.0);
  lp.set_objective(1, -1.0);
  lp.add_upper_bound(0, 1.5);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kLessEqual, 2.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -2.0, 1e-8);
  EXPECT_LE(sol.x[0], 1.5 + 1e-9);
}

TEST(Simplex, FixedVariableViaZeroUpperBound) {
  LinearProgram lp(2);
  lp.set_objective(0, -5.0);  // would love to grow x0, but it is fixed at 0
  lp.set_objective(1, -1.0);
  lp.add_upper_bound(0, 0.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kLessEqual, 3.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.x[0], 0.0, 1e-12);
  EXPECT_NEAR(sol.x[1], 3.0, 1e-8);
}

TEST(Simplex, NegativeUpperBoundIsInfeasible) {
  LinearProgram lp(1);
  lp.add_upper_bound(0, -1.0);  // 0 <= x <= -1 is empty
  auto sol = solve_lp(lp);
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
}

TEST(Simplex, BoundedVariablesTameUnboundedness) {
  LinearProgram lp(2);
  lp.set_objective(0, -1.0);
  lp.set_objective(1, -1.0);
  lp.add_upper_bound(0, 4.0);
  auto unbounded = solve_lp(lp);  // x1 still free upward
  EXPECT_EQ(unbounded.status, LpStatus::kUnbounded);
  lp.add_upper_bound(1, 6.0);
  auto sol = solve_lp(lp);
  ASSERT_TRUE(sol.optimal());
  EXPECT_NEAR(sol.objective, -10.0, 1e-8);
}

namespace {

/// Random LP over n variables: mixed-sense rows, ~40% structurally missing
/// coefficients, finite upper bounds on most variables (occasionally 0 =
/// fixed). Spans optimal, infeasible, and (when some variable stays
/// unbounded) unbounded instances.
LinearProgram random_lp(Rng& rng, std::size_t n, std::size_t m) {
  LinearProgram lp(n);
  for (std::size_t j = 0; j < n; ++j) {
    lp.set_objective(j, rng.uniform(-2.0, 2.0));
    double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.7) {
      lp.add_upper_bound(j, rng.uniform(0.0, 4.0));
    } else if (roll < 0.8) {
      lp.add_upper_bound(j, 0.0);
    }  // else unbounded above
  }
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<double> row(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.6) row[j] = rng.uniform(-3.0, 3.0);
    }
    double roll = rng.uniform(0.0, 1.0);
    ConstraintSense sense = roll < 0.6   ? ConstraintSense::kLessEqual
                            : roll < 0.85 ? ConstraintSense::kGreaterEqual
                                          : ConstraintSense::kEqual;
    lp.add_constraint(row, sense, rng.uniform(-2.0, 4.0));
  }
  return lp;
}

/// Checks that `x` satisfies every constraint and bound of `lp` to `tol`.
void expect_feasible(const LinearProgram& lp, const std::vector<double>& x,
                     double tol) {
  for (std::size_t j = 0; j < lp.num_vars(); ++j) {
    EXPECT_GE(x[j], -tol);
    EXPECT_LE(x[j], lp.upper_bounds()[j] + tol);
  }
  for (const auto& c : lp.constraints()) {
    double lhs = 0.0;
    for (const auto& [j, a] : c.terms) lhs += a * x[j];
    switch (c.sense) {
      case ConstraintSense::kLessEqual: EXPECT_LE(lhs, c.rhs + tol); break;
      case ConstraintSense::kGreaterEqual: EXPECT_GE(lhs, c.rhs - tol); break;
      case ConstraintSense::kEqual: EXPECT_NEAR(lhs, c.rhs, tol); break;
    }
  }
}

}  // namespace

TEST(Simplex, RandomLpsRevisedMatchesTableau) {
  // Property test: the bounded-variable revised simplex and the dense
  // tableau (which expands bounds into rows) must agree on status and, when
  // optimal, on the objective — the vertex reached may differ under ties.
  Rng rng(7);
  int optimal = 0, infeasible = 0, unbounded = 0;
  for (int trial = 0; trial < 250; ++trial) {
    std::size_t n = 2 + rng.uniform_int(0, 6);
    std::size_t m = 1 + rng.uniform_int(0, 5);
    LinearProgram lp = random_lp(rng, n, m);
    auto revised = solve_lp(lp);
    auto tableau = solve_lp_tableau(lp);
    ASSERT_EQ(revised.status, tableau.status)
        << "trial " << trial << ": revised=" << to_string(revised.status)
        << " tableau=" << to_string(tableau.status);
    switch (revised.status) {
      case LpStatus::kOptimal:
        ++optimal;
        EXPECT_NEAR(revised.objective, tableau.objective, 1e-6) << "trial " << trial;
        expect_feasible(lp, revised.x, 1e-7);
        break;
      case LpStatus::kInfeasible: ++infeasible; break;
      case LpStatus::kUnbounded: ++unbounded; break;
      default: FAIL() << "trial " << trial << ": " << to_string(revised.status);
    }
  }
  // The generator must actually exercise all three outcomes.
  EXPECT_GE(optimal, 50);
  EXPECT_GE(infeasible, 10);
  EXPECT_GE(unbounded, 10);
}

TEST(Simplex, RandomCappedBoxLpsMatchBruteForce) {
  // On box + capacity instances the LP optimum is grid-reachable, so a
  // brute-force scan bounds it from above.
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<double> ub{rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0),
                           rng.uniform(0.5, 2.0)};
    double cap = rng.uniform(0.5, ub[0] + ub[1] + ub[2]);
    std::vector<double> c{rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
                          rng.uniform(-2.0, 2.0)};
    LinearProgram lp(3);
    for (std::size_t j = 0; j < 3; ++j) {
      lp.set_objective(j, c[j]);
      lp.add_upper_bound(j, ub[j]);
    }
    lp.add_constraint({1.0, 1.0, 1.0}, ConstraintSense::kLessEqual, cap);
    auto sol = solve_lp(lp);
    ASSERT_TRUE(sol.optimal());

    CappedBoxPolytope p(ub);
    p.add_group(0, 3, cap);
    auto brute = minimize_brute_force(
        [&](const std::vector<double>& x) {
          return c[0] * x[0] + c[1] * x[1] + c[2] * x[2];
        },
        p, 21);
    EXPECT_LE(sol.objective, brute.objective + 1e-7) << "trial " << trial;
  }
}

TEST(Simplex, WarmStartMatchesColdAfterObjectivePerturbation) {
  // The FW/LMO pattern: polytope fixed, objective changes every call. The
  // warm solve re-enters phase 2 from the previous basis and must land on
  // the same optimum a cold solve finds.
  Rng rng(13);
  for (int trial = 0; trial < 60; ++trial) {
    std::size_t n = 3 + rng.uniform_int(0, 5);
    LinearProgram lp(n);
    for (std::size_t j = 0; j < n; ++j) {
      lp.set_objective(j, rng.uniform(-2.0, 2.0));
      lp.add_upper_bound(j, rng.uniform(0.5, 3.0));
    }
    std::vector<double> row(n, 1.0);
    lp.add_constraint(row, ConstraintSense::kLessEqual, rng.uniform(1.0, 2.0 * n));
    auto first = solve_lp(lp);
    ASSERT_TRUE(first.optimal());
    ASSERT_TRUE(first.basis.valid());

    SimplexBasis basis = first.basis;
    for (int step = 0; step < 4; ++step) {
      for (std::size_t j = 0; j < n; ++j) {
        lp.set_objective(j, rng.uniform(-2.0, 2.0));
      }
      auto warm = solve_lp(lp, basis);
      auto cold = solve_lp(lp);
      ASSERT_TRUE(warm.optimal());
      ASSERT_TRUE(cold.optimal());
      EXPECT_NEAR(warm.objective, cold.objective, 1e-7)
          << "trial " << trial << " step " << step;
      expect_feasible(lp, warm.x, 1e-7);
      basis = warm.basis;
    }
  }
}

TEST(Simplex, WarmStartFallsBackWhenRhsShiftBreaksFeasibility) {
  // MPC pattern: same structure, shifted data. A rhs shift can make the old
  // basis primal infeasible; solve_lp must fall back to a cold solve rather
  // than fail or return garbage.
  LinearProgram lp(2);
  lp.set_objective(0, -2.0);
  lp.set_objective(1, -1.0);
  lp.add_upper_bound(0, 5.0);
  lp.add_upper_bound(1, 5.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kLessEqual, 8.0);
  lp.add_constraint({1.0, 0.0}, ConstraintSense::kGreaterEqual, 1.0);
  auto first = solve_lp(lp);
  ASSERT_TRUE(first.optimal());

  LinearProgram shifted(2);
  shifted.set_objective(0, -2.0);
  shifted.set_objective(1, -1.0);
  shifted.add_upper_bound(0, 5.0);
  shifted.add_upper_bound(1, 5.0);
  shifted.add_constraint({1.0, 1.0}, ConstraintSense::kLessEqual, 3.0);
  shifted.add_constraint({1.0, 0.0}, ConstraintSense::kGreaterEqual, 2.5);
  auto warm = solve_lp(shifted, first.basis);
  auto cold = solve_lp(shifted);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
}

TEST(Simplex, WarmStartRejectsMalformedBasis) {
  LinearProgram lp(2);
  lp.set_objective(0, 1.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kGreaterEqual, 2.0);
  auto cold = solve_lp(lp);
  ASSERT_TRUE(cold.optimal());

  SimplexBasis junk;
  junk.basic = {0, 0};  // duplicate and wrong row count for this LP
  junk.at_upper = {0};
  auto warm = solve_lp(lp, junk);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective, 1e-8);
}

TEST(Simplex, WarmStartSurvivesDegenerateVertices) {
  // Degenerate optimum (more tight constraints than dimensions): warm
  // re-entry must not cycle or lose the optimum.
  LinearProgram lp(2);
  lp.set_objective(0, -1.0);
  lp.set_objective(1, -1.0);
  lp.add_upper_bound(0, 1.0);
  lp.add_upper_bound(1, 1.0);
  lp.add_constraint({1.0, 1.0}, ConstraintSense::kLessEqual, 2.0);
  lp.add_constraint({1.0, -1.0}, ConstraintSense::kLessEqual, 0.0);
  lp.add_constraint({-1.0, 1.0}, ConstraintSense::kLessEqual, 0.0);
  auto first = solve_lp(lp);
  ASSERT_TRUE(first.optimal());
  EXPECT_NEAR(first.objective, -2.0, 1e-8);

  // The coupling rows force x0 = x1; re-cost so the optimum moves to the
  // (doubly degenerate) origin.
  lp.set_objective(0, 1.0);
  lp.set_objective(1, -0.5);
  auto warm = solve_lp(lp, first.basis);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, 0.0, 1e-8);
  EXPECT_NEAR(warm.x[0], 0.0, 1e-8);
  EXPECT_NEAR(warm.x[1], 0.0, 1e-8);
}

}  // namespace
}  // namespace grefar
