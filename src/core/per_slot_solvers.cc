#include "core/per_slot_solvers.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

std::string to_string(PerSlotSolver solver) {
  switch (solver) {
    case PerSlotSolver::kGreedy: return "greedy";
    case PerSlotSolver::kFrankWolfe: return "frank-wolfe";
    case PerSlotSolver::kProjectedGradient: return "pgd";
    case PerSlotSolver::kLp: return "lp";
  }
  return "unknown";
}

namespace {

/// Rebuilds the sorted energy-cost piece list for DC `i` if (and only if)
/// its availability row changed since the pieces were last built. Pieces
/// store the price-free base cost, so price movement never invalidates.
/// Returns true when the list was actually rebuilt.
bool refresh_pieces(const PerSlotProblem& problem, const PerSlotView& v,
                    std::size_t i, PerSlotSolverScratch& scratch) {
  const auto& config = problem.config();
  const std::size_t K = v.num_servers;
  const std::int64_t* avail_row = v.availability + i * K;
  auto& cached = scratch.cached_avail[i];
  if (cached.size() == K &&
      std::memcmp(cached.data(), avail_row, K * sizeof(std::int64_t)) == 0) {
    return false;
  }
  cached.assign(avail_row, avail_row + K);

  // Filling cheapest energy-per-work servers first minimizes E(W), hence
  // also tariff(E(W)) (tariff increasing); subdividing each curve segment at
  // the tariff's tier boundaries yields pieces whose unit cost —
  // V*phi * rate(E) * energy_per_work — is non-decreasing in fill order, so
  // the two-list greedy stays exact. V*phi > 0 scales all of a DC's pieces
  // equally, which is why the cache can store price-free base costs.
  const TieredTariff& tariff = config.tariff(i);
  auto& pieces = scratch.pieces[i];
  pieces.clear();
  double cum_energy = 0.0;
  for (const auto& seg : problem.curve(i).segments()) {
    double seg_work_left = seg.capacity;
    while (seg_work_left > 1e-12) {
      double rate = tariff.marginal(cum_energy);
      // Work until the next tier boundary (or the segment end).
      double work_to_boundary = seg_work_left;
      for (const auto& tier : tariff.tiers()) {
        if (cum_energy < tier.upto) {
          double energy_left = tier.upto - cum_energy;
          if (std::isfinite(energy_left)) {
            work_to_boundary =
                std::min(work_to_boundary, energy_left / seg.energy_per_work);
          }
          break;
        }
      }
      // Guard against zero-progress when sitting exactly on a boundary.
      work_to_boundary = std::max(work_to_boundary, 1e-12);
      work_to_boundary = std::min(work_to_boundary, seg_work_left);
      pieces.push_back({work_to_boundary, rate * seg.energy_per_work});
      cum_energy += work_to_boundary * seg.energy_per_work;
      seg_work_left -= work_to_boundary;
    }
  }
  return true;
}

/// Chooses the x0 for an iterative (FW/PGD) solve: the previous slot's
/// solution when the scratch holds one, otherwise the greedy point. Steady
/// state allocates nothing — the copy, the remap scratch and the projection
/// all reuse existing capacity.
///
/// The previous solution is remapped by job type id from its live-type list
/// to the current one and clamped onto the current bound box entry-wise
/// (coordinates whose bound collapsed to 0 — a type whose queue drained —
/// start at exactly 0). The clamp is what keeps the hinted and identity-list
/// x0 bitwise aligned: a hinted warm start simply has no slot for a
/// now-inactive type, and the identity-list one clamps the stale value to
/// the same 0.0.
void prepare_iterative_warm_start(const PerSlotProblem& problem,
                                  std::vector<double>& warm,
                                  PerSlotSolverScratch* scratch) {
  // prev_valid, not prev.empty(): an idle slot legitimately saves a
  // zero-variable solution, and the slot after it must still warm-start
  // (from all zeros) exactly like the identity-list run does.
  if (scratch != nullptr && scratch->prev_valid) {
    const std::size_t N = problem.config().num_data_centers();
    const std::size_t J_prev = scratch->prev_types.size();
    if (scratch->prev.size() == N * J_prev) {
      const std::size_t J_now = problem.num_types_effective();
      const double* ub = problem.polytope().upper_bounds().data();
      const double* prev = scratch->prev.data();
      warm.assign(problem.num_vars(), 0.0);
      // Align the two ascending type lists once, then remap rows through
      // the merged index (UINT32_MAX = newly live).
      const std::uint32_t* ids = problem.active_type_ids().data();
      const std::uint32_t* prev_ids = scratch->prev_types.data();
      constexpr std::uint32_t kNone = 0xffffffffu;
      scratch->warm_map.assign(J_now, kNone);
      for (std::size_t a = 0, ap = 0; a < J_now && ap < J_prev;) {
        if (prev_ids[ap] < ids[a]) {
          ++ap;
        } else if (prev_ids[ap] > ids[a]) {
          ++a;
        } else {
          scratch->warm_map[a] = static_cast<std::uint32_t>(ap);
          ++a;
          ++ap;
        }
      }
      for (std::size_t i = 0; i < N; ++i) {
        const double* prev_row = prev + i * J_prev;
        const double* ub_row = ub + i * J_now;
        double* warm_row = warm.data() + i * J_now;
        for (std::size_t a = 0; a < J_now; ++a) {
          const std::uint32_t ap = scratch->warm_map[a];
          if (ap != kNone) warm_row[a] = std::clamp(prev_row[ap], 0.0, ub_row[a]);
        }
      }
      obs::count("per_slot.cross_slot_warm_starts");
      return;
    }
  }
  obs::count("per_slot.greedy_starts");
  solve_per_slot_greedy_into(problem, warm, scratch);
}

/// Records an iterative solution for the next slot's warm start, tagged
/// with the live-type list it lives in.
void save_iterative_solution(const PerSlotProblem& problem,
                             const std::vector<double>& u,
                             PerSlotSolverScratch& scratch) {
  scratch.prev = u;
  scratch.prev_valid = true;
  scratch.prev_types = problem.active_type_ids();
}

}  // namespace

std::vector<double> solve_per_slot_greedy(const PerSlotProblem& problem) {
  std::vector<double> u;
  solve_per_slot_greedy_into(problem, u, nullptr);
  return u;
}

void solve_per_slot_greedy_into(const PerSlotProblem& problem, std::vector<double>& u,
                                PerSlotSolverScratch* scratch) {
  const PerSlotView v = problem.view();
  const std::size_t N = v.num_dcs;
  const std::size_t J = v.num_types;
  const double V = problem.params().V;

  // An idle slot has zero live types: nothing can be routed, and the
  // (qv, ub) demand-cache keys degenerate to empty rows that compare equal
  // to a *cleared* key (size 0 == J), which would serve the previous busy
  // slot's demand list against a zero-variable u. Return the empty action
  // before touching any scratch so the caches keep describing the last
  // nonzero-column slot.
  if (J == 0) {
    u.assign(problem.num_vars(), 0.0);
    return;
  }

  // NOLINTBEGIN(grefar-hot-path-alloc): per-DC scratch rows are sized on the
  // first solve (N is fixed per cluster) and reused in place afterwards.
  PerSlotSolverScratch local;
  PerSlotSolverScratch& ws = scratch ? *scratch : local;
  ws.pieces.resize(N);
  ws.cached_avail.resize(N);
  ws.demand_cache.resize(N);
  ws.cached_qv.resize(N);
  ws.cached_ub.resize(N);
  // NOLINTEND(grefar-hot-path-alloc)

  // Demand caches are keyed on raw (qv, ub) rows, and column a means job
  // type v.type_ids[a], so a changed live-type list must clear the keys
  // even when the bytes happen to match (same A, same values, different
  // types).
  const std::vector<std::uint32_t>& active_ids = problem.active_type_ids();
  if (ws.cache_types != active_ids) {
    for (auto& key : ws.cached_qv) key.clear();
    ws.cache_types = active_ids;
  }

  u.assign(problem.num_vars(), 0.0);
  std::uint64_t demand_sorts = 0;
  std::uint64_t demand_reuses = 0;
  std::uint64_t piece_rebuilds = 0;
  std::uint64_t piece_reuses = 0;
  auto& demands = ws.demands;
  for (std::size_t i = 0; i < N; ++i) {
    // Job demands with positive queue value, most valuable first. The
    // sorted list is cached per DC, keyed on the (queue-value, bound)
    // rows: a slot where only prices moved leaves both rows untouched and
    // reuses the order outright (prices rescale every piece of a DC
    // equally, so neither list can reorder — see DESIGN.md §11).
    const double* qv_row = v.queue_value + i * J;
    const double* ub_row = v.upper_bounds + i * J;
    auto& key_qv = ws.cached_qv[i];
    auto& key_ub = ws.cached_ub[i];
    auto& cache = ws.demand_cache[i];
    const bool fresh =
        key_qv.size() == J &&
        std::memcmp(key_qv.data(), qv_row, J * sizeof(double)) == 0 &&
        std::memcmp(key_ub.data(), ub_row, J * sizeof(double)) == 0;
    if (!fresh) {
      key_qv.assign(qv_row, qv_row + J);
      key_ub.assign(ub_row, ub_row + J);
      cache.clear();
      for (std::size_t j = 0; j < J; ++j) {
        if (ub_row[j] > 0.0 && qv_row[j] > 0.0) cache.push_back({j, qv_row[j], ub_row[j]});
      }
      std::sort(cache.begin(), cache.end(),
                [](const PerSlotSolverScratch::Demand& a,
                   const PerSlotSolverScratch::Demand& b) { return a.value > b.value; });
      ++demand_sorts;
    } else {
      ++demand_reuses;
    }
    // The cache entry stays immutable (it must survive the fill for the
    // next slot's key check); the merge consumes a working copy.
    demands.assign(cache.begin(), cache.end());

    // Server pieces, cheapest marginal-cost-per-work first (cached across
    // slots; see refresh_pieces).
    if (refresh_pieces(problem, v, i, ws)) ++piece_rebuilds; else ++piece_reuses;
    const double price_scale = V * v.prices[i];

    double* u_row = u.data() + i * J;
    std::size_t d_idx = 0;
    for (const auto& piece : ws.pieces[i]) {
      double piece_remaining = piece.capacity;
      double unit_cost = price_scale * piece.base_cost;
      while (piece_remaining > 1e-12 && d_idx < demands.size()) {
        PerSlotSolverScratch::Demand& d = demands[d_idx];
        if (d.value <= unit_cost) {
          // Demands are sorted descending and pieces are non-decreasing in
          // cost, so no remaining pair is profitable.
          d_idx = demands.size();
          break;
        }
        double take = std::min(piece_remaining, d.remaining);
        u_row[d.j] += take;
        piece_remaining -= take;
        d.remaining -= take;
        if (d.remaining <= 1e-12) ++d_idx;
      }
      if (d_idx >= demands.size()) break;
    }
  }

  if (demand_sorts != 0) obs::count("per_slot.demand_sorts", demand_sorts);
  if (demand_reuses != 0) obs::count("per_slot.demand_sort_reuses", demand_reuses);
  if (piece_rebuilds != 0) obs::count("per_slot.piece_rebuilds", piece_rebuilds);
  if (piece_reuses != 0) obs::count("per_slot.piece_reuses", piece_reuses);
}

std::vector<double> solve_per_slot_frank_wolfe(const PerSlotProblem& problem,
                                               const FrankWolfeOptions& options) {
  std::vector<double> warm = solve_per_slot_greedy(problem);
  auto result = minimize_frank_wolfe(problem, problem.polytope(), std::move(warm),
                                     options);
  return std::move(result.x);
}

std::vector<double> solve_per_slot_pgd(const PerSlotProblem& problem,
                                       const PgdOptions& options) {
  std::vector<double> warm = solve_per_slot_greedy(problem);
  auto result = minimize_projected_gradient(problem, problem.polytope(),
                                            std::move(warm), options);
  return std::move(result.x);
}

LinearProgram build_per_slot_lp(const PerSlotProblem& problem) {
  const auto& config = problem.config();
  GREFAR_CHECK_MSG(!config.has_nonlinear_billing(),
                   "the per-slot LP models linear billing only; use the greedy "
                   "or a convex solver with tiered tariffs");
  const PerSlotView v = problem.view();
  const std::size_t N = v.num_dcs;
  const std::size_t J = v.num_types;
  const std::size_t K = v.num_servers;
  const double V = problem.params().V;

  // Variables: u_{i,a} at i*A+a (the problem's own index), then w_{i,k} at
  // N*A + i*K + k.
  LinearProgram lp(N * J + N * K);
  auto w_idx = [&](std::size_t i, std::size_t k) { return N * J + i * K + k; };

  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < J; ++j) {
      const std::size_t idx = problem.index(i, j);
      lp.set_objective(idx, -v.queue_value[idx]);
      lp.add_upper_bound(idx, v.upper_bounds[idx]);
    }
    std::vector<std::pair<std::size_t, double>> balance;
    for (std::size_t j = 0; j < J; ++j) balance.emplace_back(problem.index(i, j), 1.0);
    for (std::size_t k = 0; k < K; ++k) {
      lp.set_objective(w_idx(i, k), V * v.prices[i] * v.busy_power[k] / v.speed[k]);
      lp.add_upper_bound(w_idx(i, k),
                         static_cast<double>(v.availability[i * K + k]) * v.speed[k]);
      balance.emplace_back(w_idx(i, k), -1.0);
    }
    lp.add_constraint_sparse(balance, ConstraintSense::kLessEqual, 0.0);
  }
  return lp;
}

std::vector<double> solve_per_slot_lp(const PerSlotProblem& problem) {
  LinearProgram lp = build_per_slot_lp(problem);
  LpSolution sol = solve_lp(lp);
  GREFAR_CHECK_MSG(sol.optimal(), "per-slot LP not optimal: " << to_string(sol.status));
  std::vector<double> u(problem.num_vars());
  std::copy_n(sol.x.begin(), problem.num_vars(), u.begin());
  return u;
}

std::vector<double> solve_per_slot(const PerSlotProblem& problem, PerSlotSolver solver) {
  std::vector<double> u;
  solve_per_slot_into(problem, solver, u, nullptr);
  return u;
}

void solve_per_slot_into(const PerSlotProblem& problem, PerSlotSolver solver,
                         std::vector<double>& u, PerSlotSolverScratch* scratch) {
  switch (solver) {
    case PerSlotSolver::kGreedy:
      solve_per_slot_greedy_into(problem, u, scratch);
      return;
    case PerSlotSolver::kFrankWolfe: {
      std::vector<double>& warm = scratch ? scratch->warm : u;
      prepare_iterative_warm_start(problem, warm, scratch);
      auto result = minimize_frank_wolfe(problem, problem.polytope(), warm);
      u = std::move(result.x);
      if (scratch != nullptr) save_iterative_solution(problem, u, *scratch);
      return;
    }
    case PerSlotSolver::kProjectedGradient: {
      std::vector<double>& warm = scratch ? scratch->warm : u;
      prepare_iterative_warm_start(problem, warm, scratch);
      auto result = minimize_projected_gradient(problem, problem.polytope(), warm);
      u = std::move(result.x);
      if (scratch != nullptr) save_iterative_solution(problem, u, *scratch);
      return;
    }
    case PerSlotSolver::kLp:
      u = solve_per_slot_lp(problem);
      return;
  }
  GREFAR_CHECK_MSG(false, "unreachable per-slot solver");
}

}  // namespace grefar
