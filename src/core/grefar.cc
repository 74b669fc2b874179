#include "core/grefar.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/trace_scope.h"
#include "util/check.h"
#include "util/strings.h"

namespace grefar {

namespace {
void check_params(const GreFarParams& params, PerSlotSolver solver) {
  GREFAR_CHECK(params.V >= 0.0);
  GREFAR_CHECK(params.beta >= 0.0);
  GREFAR_CHECK_MSG(!(params.beta > 0.0 &&
                     (solver == PerSlotSolver::kGreedy || solver == PerSlotSolver::kLp)),
                   "greedy/lp per-slot solvers ignore the fairness term; "
                   "use Frank-Wolfe or PGD when beta > 0");
}
}  // namespace

GreFarScheduler::GreFarScheduler(ClusterConfig config, GreFarParams params)
    : GreFarScheduler(std::make_shared<const ClusterConfig>(std::move(config)),
                      params) {}

GreFarScheduler::GreFarScheduler(ClusterConfig config, GreFarParams params,
                                 PerSlotSolver solver)
    : GreFarScheduler(std::make_shared<const ClusterConfig>(std::move(config)),
                      params, solver) {}

GreFarScheduler::GreFarScheduler(std::shared_ptr<const ClusterConfig> config,
                                 GreFarParams params)
    : GreFarScheduler(std::move(config), params,
                      params.beta == 0.0 ? PerSlotSolver::kGreedy
                                         : PerSlotSolver::kProjectedGradient) {}

GreFarScheduler::GreFarScheduler(std::shared_ptr<const ClusterConfig> config,
                                 GreFarParams params, PerSlotSolver solver)
    : config_(std::move(config)), params_(params), solver_(solver) {
  GREFAR_CHECK_MSG(config_ != nullptr, "GreFarScheduler needs a cluster config");
  config_->validate();
  check_params(params_, solver_);
  for (const JobType& jt : config_->job_types) eligible_pairs_ += jt.eligible_dcs.size();
}

void GreFarScheduler::begin_run(const GreFarParams& params, PerSlotSolver solver) {
  check_params(params, solver);
  params_ = params;
  solver_ = solver;
  if (problem_.has_value()) problem_->rebind_params(params_);

  // The live-column bookkeeping covered an action matrix from the previous
  // leg; the next decide must start from the unknown-invariant (full-clear)
  // state a fresh scheduler would. The scheduler-owned routed queues are
  // re-zeroed here, so prev_live_ can start empty.
  cleared_route_data_ = nullptr;
  cleared_proc_data_ = nullptr;
  routed_obs_.dc_queue.fill(0.0);
  prev_live_.clear();

  solver_scratch_.prev_valid = false;
  // Drop the content-keyed per-DC caches so a reused scheduler sorts
  // demands and rebuilds pieces exactly where a fresh one would. The caches
  // never change decisions (they are keyed on the raw rows), but carrying
  // them across legs would make the per_slot.* efficiency counters depend
  // on which arena a leg landed on — and the leg→arena mapping under the
  // dynamic ticket scheduler is not deterministic.
  for (auto& key : solver_scratch_.cached_qv) key.clear();
  for (auto& key : solver_scratch_.cached_avail) key.clear();
  solver_scratch_.cache_types.clear();
}

std::string GreFarScheduler::name() const {
  return "GreFar(V=" + format_fixed(params_.V, 2) +
         ", beta=" + format_fixed(params_.beta, 1) + ")";
}

SlotAction GreFarScheduler::decide(const SlotObservation& obs) {
  SlotAction action;
  decide_into(obs, action);
  return action;
}

void GreFarScheduler::decide_into(const SlotObservation& obs, SlotAction& action) {
  decide_into(obs, action, nullptr);
}

void GreFarScheduler::decide_into(const SlotObservation& obs, SlotAction& action,
                                  TraceScope* scope) {
  const std::size_t N = config_->num_data_centers();
  const std::size_t J = config_->num_job_types();
  GREFAR_CHECK(obs.prices.size() == N);
  GREFAR_CHECK(obs.central_queue.size() == J);
  GREFAR_CHECK(obs.dc_queue.rows() == N && obs.dc_queue.cols() == J);

  // Live columns (DESIGN.md §12): a job type outside live_ has Q_j == 0 and
  // q_{i,j} == 0 everywhere, so it can neither route (no queued jobs, and
  // q < Q is impossible at Q == 0) nor process (nothing to serve). Every
  // O(N*J) sweep below runs over the live columns only; without the hint
  // they are all J types.
  live_type_ids(obs, params_, J, live_);

  const bool shapes_ok = action.route.rows() == N && action.route.cols() == J;
  if (!shapes_ok) {
    action.route = MatrixD(N, J);  // fresh matrices are zero-initialized
    action.process = MatrixD(N, J);
  }
  double* route_data = action.route.data().data();
  double* proc_data = action.process.data().data();
  if (shapes_ok) {
    if (cleared_route_data_ == route_data && cleared_proc_data_ == proc_data) {
      // Only columns written last slot can be non-zero; clear exactly those.
      for (std::uint32_t j : prev_live_) {
        for (std::size_t i = 0; i < N; ++i) {
          route_data[i * J + j] = 0.0;
          proc_data[i * J + j] = 0.0;
        }
      }
    } else {
      action.route.fill(0.0);
      action.process.fill(0.0);
    }
  }
  cleared_route_data_ = route_data;
  cleared_proc_data_ = proc_data;

  // Per-DC total capacity sum_k n_{i,k} s_k for this slot, computed once up
  // front (the routing tie-break below used to recompute it per tie group
  // per job type).
  const std::size_t K = config_->num_server_types();
  const std::int64_t* avail = obs.availability.data().data();
  const double* dcq = obs.dc_queue.data().data();
  dc_capacity_.assign(N, 0.0);
  for (std::size_t i = 0; i < N; ++i) {
    const std::int64_t* avail_row = avail + i * K;
    for (std::size_t k = 0; k < K; ++k) {
      dc_capacity_[i] += static_cast<double>(avail_row[k]) *
                         config_->server_types[k].speed;
    }
  }

  // -- Routing: minimize sum (q_{i,j} - Q_j) r_{i,j} ------------------------
  std::size_t live_pairs = 0;
  for (const std::uint32_t j : live_) {
    const double Q = obs.central_queue[j];
    std::vector<std::size_t>& beneficial = beneficial_;
    beneficial.clear();
    const std::vector<DataCenterId>& eligible = config_->job_types[j].eligible_dcs;
    live_pairs += eligible.size();
    for (DataCenterId i : eligible) {
      const bool negative_weight = dcq[i * J + j] < Q;
      if (scope != nullptr) {
        if (negative_weight) {
          ++scope->drift_weights_negative;
        } else {
          ++scope->drift_weights_nonnegative;
        }
      }
      // Amortized: beneficial_ reaches its high-water size after a few slots
      // and is clear()+refilled thereafter (DESIGN.md §7).
      if (negative_weight) beneficial.push_back(i);  // NOLINT(grefar-hot-path-alloc)
    }
    if (beneficial.empty()) continue;
    std::sort(beneficial.begin(), beneficial.end(), [&](std::size_t a, std::size_t b) {
      return dcq[a * J + j] < dcq[b * J + j];
    });
    if (params_.clamp_to_queue) {
      // Distribute the queued jobs, shortest destination queue first. DCs
      // whose queues tie (the common case is q == 0 at small V) are equally
      // optimal for the linear routing term of eq. (14); split the batch
      // across the tie group proportionally to capacity, so the policy
      // degrades gracefully to Always-style load spreading as V -> 0.
      // Members with no capacity this slot are excluded from the split: a
      // dead DC can only bank jobs it cannot serve, so its share goes to a
      // worse-queue group instead (or stays central when every beneficial
      // DC is dead).
      double available = std::floor(Q);
      std::size_t g = 0;
      while (g < beneficial.size() && available > 0.0) {
        std::size_t g_end = g + 1;
        while (g_end < beneficial.size() &&
               dcq[beneficial[g_end] * J + j] <= dcq[beneficial[g] * J + j] + 1e-9) {
          ++g_end;
        }
        tie_members_.clear();
        for (std::size_t s = g; s < g_end; ++s) {
          if (dc_capacity_[beneficial[s]] > 0.0)
            tie_members_.push_back(beneficial[s]);  // NOLINT(grefar-hot-path-alloc)
        }
        double assigned = 0.0;
        if (!tie_members_.empty()) {
          assigned = split_tie_group(j, available, action);
          available -= assigned;
        }
        if (scope != nullptr) {
          TraceScope::TieSplit split;
          split.job_type = j;
          split.group_size = g_end - g;
          split.jobs = assigned;
          split.zero_capacity_skipped = (g_end - g) - tie_members_.size();
          // Traced slots only (scope != nullptr): tracing is explicitly off
          // the allocation-free contract, the tracer owns the growth.
          scope->tie_splits.push_back(split);  // NOLINT(grefar-hot-path-alloc)
        }
        g = g_end;
      }
    } else {
      // Literal eq.-(14) optimum: saturate every beneficial destination.
      for (std::size_t i : beneficial) action.route(i, j) = params_.r_max;
    }
  }
  if (scope != nullptr) {
    // The census covers every eligible (i, j) pair. A type off the live list
    // has q == Q == 0, so each of its pairs is nonnegative.
    scope->drift_weights_nonnegative += eligible_pairs_ - live_pairs;
  }

  // -- Processing: solve the convex program of eq. (14) ---------------------
  // Routing executes before service within a slot, so the processing
  // decision is evaluated against the post-routing queue state q + r (the
  // queues service will actually see). Eq. (13)'s literal ordering (h serves
  // only the pre-routing queue) is recovered with process_after_routing =
  // false; both are valid drift-minimizing policies, the default just avoids
  // a structural one-slot service lag.
  const SlotObservation* problem_obs = &obs;
  if (params_.process_after_routing) {
    routed_obs_.slot = obs.slot;
    routed_obs_.prices = obs.prices;
    routed_obs_.availability = obs.availability;
    if (routed_obs_.dc_queue.rows() != N || routed_obs_.dc_queue.cols() != J) {
      routed_obs_.dc_queue = MatrixD(N, J);  // zero-initialized
    }
    // Incremental post-routing queues q + r: columns off the live list are
    // 0 + 0 = 0, and the previous slot left non-zeros only in its own live
    // columns. Zero those, then fill this slot's live columns.
    const double* route = action.route.data().data();
    double* routed_q = routed_obs_.dc_queue.data().data();
    for (std::uint32_t j : prev_live_) {
      for (std::size_t i = 0; i < N; ++i) routed_q[i * J + j] = 0.0;
    }
    for (std::uint32_t j : live_) {
      for (std::size_t i = 0; i < N; ++i) {
        routed_q[i * J + j] = dcq[i * J + j] + route[i * J + j];
      }
    }
    // Routing only ever adds jobs to types with Q_j > 0, which are active
    // already, so the hint stays valid for the post-routing queues. The
    // per-slot problem never reads the central queue, so it is not copied.
    routed_obs_.active_types_valid = obs.active_types_valid;
    if (obs.active_types_valid) routed_obs_.active_types = obs.active_types;
    problem_obs = &routed_obs_;
  }
  // Deferred construction: slot 0 runs (and counts) exactly one reset on
  // the same path as every later slot — a freshly built scheduler must be
  // indistinguishable, counters included, from a reused one.
  if (!problem_.has_value()) problem_.emplace(*config_, params_);
  problem_->reset(*problem_obs);
  solve_per_slot_into(*problem_, solver_, u_, &solver_scratch_);

  // Scatter the A solved columns back to full coordinates (everything else
  // is already zero by the clearing invariant above).
  const PerSlotView v = problem_->view();
  double* proc = action.process.data().data();
  const double h_max = params_.h_max;
  const std::size_t A = v.num_types;
  for (std::size_t i = 0; i < N; ++i) {
    const double* u_row = u_.data() + i * A;
    double* proc_row = proc + i * J;
    for (std::size_t a = 0; a < A; ++a) {
      // Keep the division by d_j (not a reciprocal multiply): the engine
      // and auditor recompute h * d_j and expect the exact same values.
      proc_row[v.type_ids[a]] = std::min(u_row[a] / v.work[a], h_max);
    }
  }
  prev_live_.swap(live_);
}

double GreFarScheduler::split_tie_group(std::size_t j, double jobs,
                                        SlotAction& action) {
  // Largest-remainder apportionment, capacity-weighted. Exactly conserving
  // (the return value equals min(jobs, m * floor(r_max))) and independent of
  // the member ordering: quotas depend only on capacities, and remainder
  // ties break by DC index.
  const double cap_r = std::floor(params_.r_max);
  const std::size_t m = tie_members_.size();
  if (cap_r <= 0.0) return 0.0;
  jobs = std::min(jobs, cap_r * static_cast<double>(m));
  if (jobs <= 0.0) return 0.0;
  if (m == 1) {
    // Singleton group: the whole (capped) batch goes to the one member; the
    // apportionment machinery below would grind through quota rounds and a
    // sort to conclude the same.
    action.route(tie_members_[0], j) = jobs;
    return jobs;
  }

  // Proportional quotas with per-member cap: members whose quota reaches
  // floor(r_max) are pinned there and the rest re-split among the remaining
  // capacity. Each round pins at least one member, so this runs at most m
  // rounds; `remaining` stays an exact integer throughout.
  tie_quota_.assign(m, 0.0);
  tie_pinned_.assign(m, 0);
  double remaining = jobs;
  bool changed = true;
  while (changed && remaining > 0.0) {
    changed = false;
    double free_cap = 0.0;
    for (std::size_t s = 0; s < m; ++s) {
      if (!tie_pinned_[s]) free_cap += dc_capacity_[tie_members_[s]];
    }
    if (free_cap <= 0.0) break;
    for (std::size_t s = 0; s < m; ++s) {
      if (tie_pinned_[s]) continue;
      tie_quota_[s] = remaining * dc_capacity_[tie_members_[s]] / free_cap;
    }
    for (std::size_t s = 0; s < m; ++s) {
      if (!tie_pinned_[s] && tie_quota_[s] >= cap_r) {
        tie_quota_[s] = cap_r;
        tie_pinned_[s] = 1;
        remaining -= cap_r;
        changed = true;
      }
    }
  }

  double base_total = 0.0;
  // Amortized: tie scratch tracks the largest tie group seen, then reuses.
  tie_base_.resize(m);  // NOLINT(grefar-hot-path-alloc)
  for (std::size_t s = 0; s < m; ++s) {
    tie_base_[s] = std::floor(tie_quota_[s]);
    base_total += tie_base_[s];
  }
  auto leftover = static_cast<std::int64_t>(std::llround(jobs - base_total));

  // Hand the leftover jobs out one each by descending fractional remainder;
  // remainder ties (and the float-noise backstop below) go to the lowest DC
  // index first.
  tie_rank_.resize(m);  // NOLINT(grefar-hot-path-alloc)
  std::iota(tie_rank_.begin(), tie_rank_.end(), std::size_t{0});
  std::sort(tie_rank_.begin(), tie_rank_.end(), [&](std::size_t a, std::size_t b) {
    const double ra = tie_quota_[a] - tie_base_[a];
    const double rb = tie_quota_[b] - tie_base_[b];
    if (ra != rb) return ra > rb;
    return tie_members_[a] < tie_members_[b];
  });
  for (std::size_t r = 0; r < m && leftover > 0; ++r) {
    const std::size_t s = tie_rank_[r];
    if (tie_base_[s] < cap_r) {
      tie_base_[s] += 1.0;
      --leftover;
    }
  }
  for (std::size_t s = 0; s < m && leftover > 0; ++s) {
    if (tie_base_[s] < cap_r) {
      tie_base_[s] += 1.0;
      --leftover;
    }
  }

  double assigned = 0.0;
  for (std::size_t s = 0; s < m; ++s) {
    action.route(tie_members_[s], j) = tie_base_[s];
    assigned += tie_base_[s];
  }
  return assigned;
}

}  // namespace grefar
