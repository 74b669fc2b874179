// The GreFar per-slot optimization problem (paper eq. (14)).
//
// At slot t GreFar minimizes, over the action z(t),
//
//   V*g(t) - sum_j Q_j [sum_{i in D_j} r_{i,j}] + sum_{i,j} q_{i,j} (r_{i,j} - h_{i,j})
//
// The r- and h-parts separate:
//   * r_{i,j} has linear coefficient (q_{i,j} - Q_j): route maximally where
//     the DC queue is shorter than the central queue (handled in
//     GreFarScheduler directly);
//   * the h/b-part, in work variables u_{i,j} = h_{i,j} * d_j, is the convex
//     program built here:
//
//       min  sum_i [ V*phi_i*C_i(sum_j u_{i,j}) - sum_j (q_{i,j}/d_j) u_{i,j} ]
//            + V*beta * sum_m (r_m(u)/R - gamma_m)^2
//       s.t. 0 <= u_{i,j} <= ub_{i,j},  sum_j u_{i,j} <= cap_i,
//
// with C_i the minimum-energy curve and r_m(u) the per-account work. This
// file exposes the problem as a ConvexObjective over a CappedBoxPolytope so
// any first-order solver can run on it.
//
// Live type columns — DESIGN.md §12. At million-type / million-account
// scale almost every column is dead in any given slot: a type with nothing
// queued anywhere has queue value 0 and (with clamp_to_queue) upper bound
// 0, so no solver can put work on it. The problem is therefore defined over
// an ascending list of A live types (live_type_ids() below): variables are
// flattened as i * A + a with a indexing that list, every per-type array is
// gathered to length A, and the fairness state covers only the accounts
// those types reference. Without the observation's active-type hint the
// list is the identity [0, J) — the full program, and the reference the
// hinted problem is tested against. With it, per-slot cost is
// O(N*A + A log A) instead of O(N*J), and — by the exact-zero kernel
// argument in sim/fairness.h plus the dead-column gradient rule below — the
// solve is *bit-identical* to the identity-list solve.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/problem_view.h"
#include "sim/cluster.h"
#include "sim/energy.h"
#include "sim/fairness.h"
#include "sim/scheduler.h"
#include "solver/capped_box.h"
#include "solver/objective.h"
#include "util/annotations.h"
#include "util/check.h"

namespace grefar {

/// Tuning knobs shared by the per-slot problem and the GreFar scheduler.
struct GreFarParams {
  double V = 1.0;      // cost-delay parameter (>= 0)
  double beta = 0.0;   // energy-fairness parameter (>= 0)
  double r_max = 1e9;  // per-(i,j) routing bound r^max (eq. (4))
  double h_max = 1e9;  // per-(i,j) processing bound h^max (eq. (5))
  /// Cap processing by the work actually queued (and routing by the jobs
  /// actually queued). Disable to reproduce the literal dynamics (12)-(13)
  /// where "null" work is permitted.
  bool clamp_to_queue = true;
  /// Evaluate the processing decision against the post-routing queues
  /// q_{i,j} + r_{i,j} (the state service actually sees, since routing
  /// executes first within a slot). Disable for the literal eq. (13)
  /// ordering, which adds one slot of service lag.
  bool process_after_routing = true;
  /// Start the iterative per-slot solvers (Frank-Wolfe / PGD) from the
  /// previous slot's solution (projected onto the current capacity box)
  /// instead of the greedy point. Queues and prices move slowly slot to
  /// slot, so the previous optimum is usually a few iterations from the new
  /// one. Disable for A/B comparison against the historical cold start;
  /// ignored by the greedy and LP solvers, which are not iterative.
  bool warm_start_across_slots = true;
};

/// The one rule for which job-type columns are live this slot (DESIGN.md
/// §12), shared by the per-slot problem and the scheduler's routing sweep.
/// With the observation's active-type hint and params.clamp_to_queue set,
/// it is the hint: every unlisted type has Q_j = q_{i,j} = 0, so it can
/// neither route nor (clamped) process. Otherwise — no hint, or the literal
/// unclamped dynamics where an empty type keeps ub = h_max * d_j — it is the
/// identity [0, J). Writes the ascending ids into `out`, reusing its
/// capacity; a hint that is out of range or not strictly ascending is a
/// contract violation.
GREFAR_HOT_PATH GREFAR_DETERMINISTIC
void live_type_ids(const SlotObservation& obs, const GreFarParams& params,
                   std::size_t num_types, std::vector<std::uint32_t>& out);

/// The per-slot convex program in work units u (flattened N*A vector over
/// the live type columns — see the header comment).
///
/// Hot-path note: a long-lived scheduler constructs one PerSlotProblem on
/// its first slot and calls reset() on every later slot — curves, polytope,
/// and all internal vectors are then updated in place, so steady-state
/// problem construction is allocation-free (the per-column buffers reach
/// their high-water size after a few slots and are reused thereafter). An
/// instance is single-threaded (concurrent runs each own their problem).
class PerSlotProblem final : public ConvexObjective {
 public:
  PerSlotProblem(const ClusterConfig& config, const SlotObservation& obs,
                 const GreFarParams& params);

  /// Deferred variant: bakes the config-derived state but performs no
  /// initial reset — the caller must reset() before any other use. Lets a
  /// scheduler that builds the problem on its first decide pay for and
  /// count exactly one reset, the same as every later slot.
  PerSlotProblem(const ClusterConfig& config, const GreFarParams& params);

  /// Re-targets the problem at a new observation of the *same* cluster and
  /// params, reusing all internal storage. `obs` must outlive the problem's
  /// next use (the problem keeps a pointer, not a copy).
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void reset(const SlotObservation& obs);

  /// Re-targets the problem at new GreFar parameters for the *same* cluster
  /// (sweep-leg reuse). Safe because the constructor bakes only
  /// config-derived state; everything parameter-dependent is recomputed from
  /// params_ inside the next reset(). Runs the constructor's param checks.
  void rebind_params(const GreFarParams& params) {
    GREFAR_CHECK(params.V >= 0.0);
    GREFAR_CHECK(params.beta >= 0.0);
    GREFAR_CHECK(params.r_max >= 0.0);
    GREFAR_CHECK(params.h_max >= 0.0);
    params_ = params;
  }

  /// Ascending live type ids the problem is defined over (column a is job
  /// type active_type_ids()[a]); see live_type_ids().
  const std::vector<std::uint32_t>& active_type_ids() const { return active_types_; }

  /// Number of type columns A of the current problem. num_vars() and all
  /// flattened arrays use this stride.
  std::size_t num_types_effective() const { return active_types_.size(); }

  std::size_t num_vars() const { return num_dcs_ * active_types_.size(); }
  /// Flat index of (DC i, column a), a < num_types_effective().
  std::size_t index(DataCenterId i, std::size_t a) const {
    return i * active_types_.size() + a;
  }

  /// Feasible region: box [0, ub] with one capacity group per data center.
  const CappedBoxPolytope& polytope() const { return polytope_; }

  /// Energy curves per data center for this slot's availability.
  const EnergyCostCurve& curve(DataCenterId i) const { return curves_[i]; }

  /// Total compute resource R(t) (work units across all DCs).
  double total_resource() const { return total_resource_; }

  /// Flat structure-of-arrays borrow of the current slot's problem data
  /// (see problem_view.h). Invalidated by the next reset(). The per-type
  /// arrays are the gathered length-A versions and view().type_ids maps
  /// columns back to job types.
  PerSlotView view() const;

  // ConvexObjective: the h-part of eq. (14) as described above.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  double value(const std::vector<double>& x) const override;
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void gradient(const std::vector<double>& x, std::vector<double>& out) const override;

  const GreFarParams& params() const { return params_; }
  const ClusterConfig& config() const { return *config_; }
  const SlotObservation& observation() const { return *obs_; }

 private:
  /// Shared first half of value()/gradient(): per-DC row reductions of x
  /// (work, queue-value dot, account partials) plus the per-DC energy term,
  /// written to the dc_*_ / account_partial_ slots.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void accumulate_rows(const std::vector<double>& x, bool need_value,
                       bool need_marginal, bool need_accounts) const;

  /// Merges account_partial_ into account_scratch_ in DC order.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void merge_account_work() const;

  const ClusterConfig* config_;
  const SlotObservation* obs_;
  GreFarParams params_;
  std::size_t num_dcs_;
  std::size_t num_types_;      // J: full-space type count
  std::size_t num_accounts_;   // M: full-space account count
  std::vector<EnergyCostCurve> curves_;
  std::vector<double> smoothing_band_;  // per-DC kink-blend half-width (work)
  std::vector<double> energy_band_;     // per-DC tariff-blend half-width (energy)
  double total_resource_ = 0.0;
  FairnessFunction fairness_;
  CappedBoxPolytope polytope_;
  std::vector<double> queue_value_;  // q/d, flattened [N * A]

  // Static full-space SoA arrays, built once at construction; reset()
  // gathers the live columns out of them.
  std::vector<std::uint8_t> eligible_;   // [N*J] 1 iff i in D_j
  std::vector<double> work_;             // [J] d_j
  std::vector<std::uint32_t> account_of_;  // [J]
  std::vector<double> max_rate_;           // [J] work one job absorbs per slot
  std::vector<std::uint8_t> rate_capped_;  // [J] 1 iff max_rate_ is finite
  std::vector<double> speed_;            // [K]
  std::vector<double> busy_power_;       // [K]
  std::vector<double> energy_per_work_;  // [K]
  bool any_rate_cap_ = false;            // any finite JobType::max_rate?

  // Per-slot live-column state, gathered by reset().
  std::vector<std::uint32_t> active_types_;     // [A] ascending type ids
  std::vector<double> work_eff_;                // [A] gathered d_j
  // Account compaction: the fairness accumulators never span all M
  // accounts, only the ascending set the live types reference. Accounts
  // outside it provably accumulate exactly 0.0 work, and
  // fairness_kernel::term(0, g, inv) is an exact float zero, so the
  // compacted sums are bitwise equal to the full-M sum.
  std::vector<std::uint32_t> active_accounts_;  // ascending account ids
  std::vector<std::uint32_t> account_slot_eff_; // [A] -> active-account slot

  // Per-slot SoA arrays refreshed by reset().
  std::vector<double> dc_capacity_;      // [N] curve capacity per DC
  /// Dead-column mask for the fairness gradient (built when beta > 0):
  /// active_col_[a] == 0 iff ub_{i,a} == 0 for every DC i. Such a column's
  /// fairness term is zeroed in the gradient — the column cannot move, its
  /// account received no work through it, and (crucially) zeroing keeps the
  /// dead entries' gradient >= 0 so they never perturb the projection
  /// bisection bracket. That is what makes PGD over the identity list
  /// (dead columns present) bit-identical to PGD over the hint (dead
  /// columns absent).
  mutable std::vector<std::uint8_t> active_col_;  // [A]

  // Reused scratch: value()/gradient() run every solver iteration and must
  // not touch the heap. Account rows are active_accounts_.size() wide,
  // never M — an O(N*M) account_partial_ buffer would be the
  // million-account scaling wall.
  mutable std::vector<double> account_scratch_;    // [slots] merged account work
  mutable std::vector<double> account_partial_;    // [N*slots] per-DC account work
  mutable std::vector<double> marginal_scratch_;   // [N] per-DC marginal cost
  mutable std::vector<double> dc_value_;           // [N] per-DC objective part
  mutable std::vector<double> account_term_;       // [slots] fairness grad term
  mutable std::vector<double> type_term_;          // [A]
};

}  // namespace grefar
