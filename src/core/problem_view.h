// PerSlotView: flat structure-of-arrays snapshot of the per-slot problem.
//
// AoS-ish access (`config().job_types[j].eligible(i)`,
// `polytope().upper_bounds()[idx]`) is fine at paper scale, but at 100+
// DCs x 64+ job types the per-(i,j) call overhead — and especially
// JobType::eligible()'s linear scan over D_j — turns the per-slot rebuild
// into an O(N^2 J) wall. This view exposes every array the hot kernels
// iterate as a contiguous pointer so solver loops are branch-light,
// stride-1 and autovectorizable.
//
// Layout. The problem is defined over A live type columns (DESIGN.md §12;
// A == J when the observation carries no active-type hint). All (i, a)
// arrays are row-major N x A flattened as i * A + a — the same `index()`
// the problem uses everywhere. Per-type arrays have length A (the live
// columns gathered out of the full per-type data), per-server-type arrays
// length K, per-DC arrays length N.
//
// Lifetime. A view is a *borrow*: pointers alias PerSlotProblem internals
// (and the SlotObservation it currently targets) and are invalidated by the
// next reset(). Take the view after reset, use it within the slot, drop it.
// The server-constant arrays additionally never change between resets of
// the same problem.
#pragma once

#include <cstddef>
#include <cstdint>

namespace grefar {

struct PerSlotView {
  std::size_t num_dcs = 0;       // N
  std::size_t num_types = 0;     // A live type columns
  std::size_t num_servers = 0;   // K
  std::size_t num_accounts = 0;  // M

  /// Column map: type_ids[a] is the job type column a stands for. Null
  /// when A == 0 (an idle slot), so only index it under a < num_types.
  const std::uint32_t* type_ids = nullptr;

  // Per-column array (gathered by reset(); valid until the next reset).
  const double* work = nullptr;             // [A] d_j

  // Static per-cluster arrays (built once per problem, never invalidated).
  const double* speed = nullptr;            // [K] s_k
  const double* busy_power = nullptr;       // [K] p_k
  const double* energy_per_work = nullptr;  // [K] p_k / s_k

  // Per-slot arrays (rebuilt by reset(); valid until the next reset).
  const double* prices = nullptr;           // [N] phi_i(t)
  const std::int64_t* availability = nullptr;  // [N*K] n_{i,k}(t), row-major
  const double* queue_value = nullptr;      // [N*A] q_{i,j}/d_j (0 if ineligible)
  const double* upper_bounds = nullptr;     // [N*A] work ub per (i,j)
  const double* dc_capacity = nullptr;      // [N] sum_k n_{i,k} s_k
};

}  // namespace grefar
