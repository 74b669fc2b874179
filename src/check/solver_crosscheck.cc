#include "check/solver_crosscheck.h"

#include <cmath>
#include <sstream>

#include "solver/brute_force.h"
#include "util/check.h"

namespace grefar {

namespace {

InvariantViolation make_violation(InvariantKind kind, std::size_t dc,
                                  std::size_t job_type, double observed, double bound,
                                  std::string detail) {
  InvariantViolation v;
  v.kind = kind;
  v.slot = 0;
  v.dc = dc;
  v.job_type = job_type;
  v.observed = observed;
  v.bound = bound;
  v.detail = std::move(detail);
  return v;
}

}  // namespace

std::vector<InvariantViolation> crosscheck_solution(
    const PerSlotProblem& problem, const std::vector<double>& u,
    const std::string& solver_name, const SolverCrosscheckOptions& options) {
  constexpr std::size_t kNone = InvariantViolation::kNoIndex;
  // Variables are (DC, live column) pairs; violations report the job type
  // the column stands for.
  const std::size_t A = problem.num_types_effective();
  const auto dc_of = [A](std::size_t v) { return v / A; };
  const auto type_of = [&problem, A](std::size_t v) {
    return static_cast<std::size_t>(problem.active_type_ids()[v % A]);
  };
  std::vector<InvariantViolation> violations;

  if (u.size() != problem.num_vars()) {
    violations.push_back(make_violation(
        InvariantKind::kActionShape, kNone, kNone, static_cast<double>(u.size()),
        static_cast<double>(problem.num_vars()),
        solver_name + ": solution has the wrong dimension"));
    return violations;
  }
  for (std::size_t v = 0; v < u.size(); ++v) {
    if (!std::isfinite(u[v])) {
      violations.push_back(make_violation(InvariantKind::kNonFinite, dc_of(v), type_of(v),
                                          u[v], 0.0,
                                          solver_name + ": NaN/Inf in solution"));
      return violations;
    }
  }
  if (!problem.polytope().contains(u, options.feasibility_tol)) {
    // Pin down which bound broke for the record.
    const auto& ub = problem.polytope().upper_bounds();
    for (std::size_t v = 0; v < u.size(); ++v) {
      if (u[v] < -options.feasibility_tol || u[v] > ub[v] + options.feasibility_tol) {
        violations.push_back(make_violation(
            InvariantKind::kCapacityChain, dc_of(v), type_of(v), u[v], ub[v],
            solver_name + ": variable outside its [0, ub] box"));
      }
    }
    if (violations.empty()) {
      violations.push_back(make_violation(
          InvariantKind::kCapacityChain, kNone, kNone, 0.0, 0.0,
          solver_name + ": solution violates a per-DC capacity group cap"));
    }
    return violations;
  }

  // Grid over a tightened copy of the polytope: queue-clamped upper bounds
  // can far exceed the DC capacity cap, and a coarse grid over [0, ub] would
  // then step straight over the feasible interior (leaving all-zeros as the
  // only grid point — a useless oracle). No group member can exceed its cap.
  const std::size_t N = problem.config().num_data_centers();
  std::vector<double> grid_ub = problem.polytope().upper_bounds();
  for (std::size_t i = 0; i < N; ++i) {
    const double cap = problem.curve(i).capacity();
    for (std::size_t a = 0; a < A; ++a) {
      const std::size_t v = problem.index(i, a);
      grid_ub[v] = std::min(grid_ub[v], cap);
    }
  }
  CappedBoxPolytope grid(std::move(grid_ub));
  for (std::size_t i = 0; i < N; ++i) {
    std::vector<std::size_t> members;
    members.reserve(A);
    for (std::size_t a = 0; a < A; ++a) members.push_back(problem.index(i, a));
    grid.add_group(std::move(members), problem.curve(i).capacity());
  }
  const auto brute = minimize_brute_force(
      [&problem](const std::vector<double>& x) { return problem.value(x); },
      grid, options.points_per_dim);
  const double achieved = problem.value(u);
  const double slack =
      options.objective_tol * (1.0 + std::abs(brute.objective));
  if (achieved > brute.objective + slack) {
    std::ostringstream os;
    os << solver_name << ": objective " << achieved
       << " is beaten by the brute-force grid optimum " << brute.objective << " ("
       << brute.evaluated << " feasible grid points, " << options.points_per_dim
       << " per dim) by more than " << slack;
    violations.push_back(make_violation(InvariantKind::kSolverOptimality, kNone, kNone,
                                        achieved, brute.objective, os.str()));
  }
  return violations;
}

std::vector<InvariantViolation> crosscheck_per_slot_solver(
    const PerSlotProblem& problem, PerSlotSolver solver,
    const SolverCrosscheckOptions& options) {
  const std::vector<double> u = solve_per_slot(problem, solver);
  return crosscheck_solution(problem, u, to_string(solver), options);
}

}  // namespace grefar
