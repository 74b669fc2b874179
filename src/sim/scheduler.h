// Scheduler interface: the per-slot decision contract (paper §III-C2).
//
// At the beginning of slot t the scheduler observes the data-center state
// x(t) = {n(t), phi(t)} and the queue state Theta(t) = {Q_j(t), q_{i,j}(t)},
// and returns the action z(t) = {r_{i,j}(t), h_{i,j}(t)}. The busy-server
// allocation b_{i,k}(t) is derived from the served work via the shared
// minimum-energy curve, so schedulers decide *what* to process and the
// energy model decides *which servers* run it.
#pragma once

#include <cstdint>
#include <string>

#include "price/price_model.h"
#include "sim/cluster.h"
#include "util/matrix.h"

namespace grefar {

/// Everything a (purely online) scheduler may look at for slot t.
struct SlotObservation {
  std::int64_t slot = 0;
  std::vector<double> prices;             // phi_i(t), length N
  Matrix<std::int64_t> availability;      // n_{i,k}(t), N x K
  std::vector<double> central_queue;      // Q_j(t) in jobs, length J
  MatrixD dc_queue;                       // q_{i,j}(t) in jobs (fractional), N x J

  /// Optional sparsity hint for million-type instances (DESIGN.md §12).
  /// When `active_types_valid`, `active_types` lists — ascending, no
  /// duplicates — every job type j with Q_j(t) > 0 or q_{i,j}(t) > 0 for
  /// some i; any type not listed is guaranteed empty everywhere this slot.
  /// Schedulers may use the hint to touch only active columns; the engine
  /// maintains it from its queues, and a producer that sets the flag owns
  /// the guarantee. An invalid flag (default) means "no information" and
  /// must make a scheduler treat every type as active, not none.
  bool active_types_valid = false;
  std::vector<std::uint32_t> active_types;
};

/// The action z(t). Ineligible (i,j) pairs must stay zero; the engine clamps
/// desires against actual queue contents and capacity (see DESIGN.md §2).
///
/// Integer-routing contract: jobs are indivisible, so every route entry must
/// be integral up to floating-point noise (|r - round(r)| <= 1e-6). The
/// engine *verifies* this and rounds to the nearest integer — it never
/// silently floors a fractional ask, because a scheduler that emits r = 2.4
/// has a relaxation-rounding bug the simulation must surface, not paper
/// over. Process entries are genuinely fractional (fluid service).
struct SlotAction {
  MatrixD route;    // r_{i,j}(t): jobs moved central -> DC i (integral values)
  MatrixD process;  // h_{i,j}(t): jobs' worth of work served at DC i (fractional)
};

struct TraceScope;  // obs/trace_scope.h

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Decides the action for one slot. Called exactly once per slot in
  /// increasing slot order.
  virtual SlotAction decide(const SlotObservation& obs) = 0;

  /// Like decide(), but writes into a caller-owned action so hot loops can
  /// reuse the matrices across slots. The default delegates to decide();
  /// schedulers with per-slot state (GreFar) override both to share one
  /// allocation-free implementation.
  virtual void decide_into(const SlotObservation& obs, SlotAction& out) {
    out = decide(obs);
  }

  /// Traced variant: `scope` (owned by the engine, cleared each slot, nullptr
  /// when no inspector is attached) collects scheduler-internal annotations
  /// for the slot trace. The default ignores the scope and delegates to the
  /// two-argument overload, so only schedulers with something to annotate
  /// (GreFar's tie-break bookkeeping) override this.
  virtual void decide_into(const SlotObservation& obs, SlotAction& out,
                           TraceScope* scope) {
    (void)scope;
    decide_into(obs, out);
  }

  /// Display name for reports ("GreFar(V=7.5, beta=100)", "Always", ...).
  virtual std::string name() const = 0;
};

}  // namespace grefar
