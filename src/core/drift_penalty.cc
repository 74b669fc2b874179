#include "core/drift_penalty.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "obs/counters.h"
#include "util/check.h"

namespace grefar {

PerSlotProblem::PerSlotProblem(const ClusterConfig& config, const SlotObservation& obs,
                               const GreFarParams& params)
    : PerSlotProblem(config, params) {
  reset(obs);
}

PerSlotProblem::PerSlotProblem(const ClusterConfig& config, const GreFarParams& params)
    : config_(&config),
      obs_(nullptr),
      params_(params),
      num_dcs_(config.num_data_centers()),
      num_types_(config.num_job_types()),
      num_accounts_(config.num_accounts()),
      curves_(num_dcs_),
      smoothing_band_(num_dcs_, 0.0),
      energy_band_(num_dcs_, 0.0),
      fairness_(config.gammas()),
      polytope_(std::vector<double>{}) {
  GREFAR_CHECK(params_.V >= 0.0);
  GREFAR_CHECK(params_.beta >= 0.0);
  GREFAR_CHECK(params_.r_max >= 0.0);
  GREFAR_CHECK(params_.h_max >= 0.0);

  // Static SoA arrays: eligibility as a bitmap (JobType::eligible() is a
  // linear scan over D_j — calling it per (i, j) per reset made the rebuild
  // O(N^2 J)), plus flat per-type columns so the hot loops never chase
  // job_types[j] through three indirections.
  eligible_.assign(num_dcs_ * num_types_, 0);
  work_.resize(num_types_);
  account_of_.resize(num_types_);
  max_rate_.resize(num_types_);
  rate_capped_.resize(num_types_);
  for (std::size_t j = 0; j < num_types_; ++j) {
    const JobType& jt = config.job_types[j];
    // Guard the fairness scatter below: an out-of-range account index would
    // corrupt the account accumulators silently. ClusterConfig::validate()
    // checks this too, but hand-built configs (tests, tools) reach here
    // without passing through validate().
    GREFAR_CHECK_MSG(jt.account < num_accounts_,
                     "job type " << j << " ('" << jt.name << "') references account "
                                 << jt.account << " but the cluster has only "
                                 << num_accounts_ << " accounts");
    work_[j] = jt.work;
    account_of_[j] = static_cast<std::uint32_t>(jt.account);
    max_rate_[j] = jt.max_rate;
    rate_capped_[j] = std::isfinite(jt.max_rate) ? 1 : 0;
    any_rate_cap_ = any_rate_cap_ || rate_capped_[j] != 0;
    for (DataCenterId i : jt.eligible_dcs) eligible_[i * num_types_ + j] = 1;
  }

  const std::size_t K = config.num_server_types();
  speed_.resize(K);
  busy_power_.resize(K);
  energy_per_work_.resize(K);
  for (std::size_t k = 0; k < K; ++k) {
    speed_[k] = config.server_types[k].speed;
    busy_power_[k] = config.server_types[k].busy_power;
    energy_per_work_[k] = config.server_types[k].busy_power / config.server_types[k].speed;
  }

  polytope_.rebuild_contiguous(num_dcs_, 0);  // reset() sizes the groups

  dc_capacity_.resize(num_dcs_);
  marginal_scratch_.resize(num_dcs_);
  dc_value_.resize(num_dcs_);
}

void live_type_ids(const SlotObservation& obs, const GreFarParams& params,
                   std::size_t num_types, std::vector<std::uint32_t>& out) {
  // Amortized: `out` is a persistent per-scheduler / per-problem buffer that
  // reaches its high-water size after a few slots.
  if (obs.active_types_valid && params.clamp_to_queue) {
    out.assign(obs.active_types.begin(),  // NOLINT(grefar-hot-path-alloc)
               obs.active_types.end());
    for (std::size_t a = 0; a < out.size(); ++a) {
      GREFAR_CHECK_MSG(out[a] < num_types, "active type id " << out[a] << " out of range");
      GREFAR_CHECK_MSG(a == 0 || out[a] > out[a - 1],
                       "active type hint must be strictly ascending");
    }
  } else {
    out.resize(num_types);  // NOLINT(grefar-hot-path-alloc)
    std::iota(out.begin(), out.end(), std::uint32_t{0});
  }
}

void PerSlotProblem::reset(const SlotObservation& obs) {
  const ClusterConfig& config = *config_;
  const std::size_t K = config.num_server_types();
  GREFAR_CHECK(obs.availability.rows() == num_dcs_ && obs.availability.cols() == K);
  GREFAR_CHECK(obs.dc_queue.rows() == num_dcs_ && obs.dc_queue.cols() == num_types_);
  obs_ = &obs;

  // NOLINTBEGIN(grefar-hot-path-alloc): every resize below re-shapes a
  // persistent buffer that reaches its high-water size after a few slots and
  // is reused in place thereafter (the header's allocation-free contract is
  // about the steady state, DESIGN.md §7/§12).
  live_type_ids(obs, params_, num_types_, active_types_);
  const std::size_t A = active_types_.size();
  work_eff_.resize(A);
  active_accounts_.resize(A);
  for (std::size_t a = 0; a < A; ++a) {
    const std::uint32_t id = active_types_[a];
    work_eff_[a] = work_[id];
    active_accounts_[a] = account_of_[id];
  }
  std::sort(active_accounts_.begin(), active_accounts_.end());
  active_accounts_.erase(std::unique(active_accounts_.begin(), active_accounts_.end()),
                         active_accounts_.end());
  account_slot_eff_.resize(A);
  for (std::size_t a = 0; a < A; ++a) {
    account_slot_eff_[a] = static_cast<std::uint32_t>(
        std::lower_bound(active_accounts_.begin(), active_accounts_.end(),
                         account_of_[active_types_[a]]) -
        active_accounts_.begin());
  }
  const std::size_t S = active_accounts_.size();
  account_scratch_.resize(S);
  account_partial_.resize(num_dcs_ * S);
  account_term_.resize(S);
  type_term_.resize(A);

  // Re-shape the polytope when the column count moved. Group structure is
  // always N contiguous runs, so only the size matters; bounds and caps are
  // fully rewritten by the pass below either way.
  if (polytope_.dim() != num_dcs_ * A) polytope_.rebuild_contiguous(num_dcs_, A);
  queue_value_.resize(num_dcs_ * A);
  // NOLINTEND(grefar-hot-path-alloc)

  const std::int64_t* avail = obs.availability.data().data();
  const double* dc_queue = obs.dc_queue.data().data();
  double* ub = polytope_.mutable_upper_bounds();
  const std::size_t J = num_types_;
  const bool clamp = params_.clamp_to_queue;
  const double h_max = params_.h_max;

  // One fused pass per DC: curve rebuild, bands, group cap, queue values and
  // work upper bounds, reading the full queue row through the gather
  // indices, so each DC touches O(A) columns.
  total_resource_ = 0.0;
  for (std::size_t i = 0; i < num_dcs_; ++i) {
    curves_[i].rebuild(config.server_types, avail + i * K, K);
    const double cap = curves_[i].capacity();
    dc_capacity_[i] = cap;
    total_resource_ += cap;
    smoothing_band_[i] = 1e-3 * cap;
    energy_band_[i] = 1e-3 * curves_[i].energy_for_work(cap);
    polytope_.set_group_cap(i, cap);

    const double* q = dc_queue + i * J;
    const std::uint8_t* el = eligible_.data() + i * J;
    double* qv = queue_value_.data() + i * A;
    double* ub_row = ub + i * A;
    for (std::size_t a = 0; a < A; ++a) {
      const std::uint32_t j = active_types_[a];
      const std::uint8_t e = el[j];
      qv[a] = e != 0 ? q[j] / work_eff_[a] : 0.0;
      double h_cap = clamp ? std::min(h_max, q[j]) : h_max;
      double work_ub = std::max(h_cap, 0.0) * work_eff_[a];
      // Parallelism constraint (guarded: max_rate * ceil(q) with an
      // infinite rate and an empty queue would be inf * 0 = NaN).
      if (any_rate_cap_ && rate_capped_[j] != 0) {
        work_ub = std::min(work_ub, max_rate_[j] * std::ceil(q[j]));
      }
      ub_row[a] = e != 0 ? work_ub : 0.0;
    }
  }

  // Dead-column mask for the fairness gradient (see the header): a column
  // with ub == 0 in every DC gets a zero fairness term, which keeps its
  // gradient non-negative and hence the hinted and identity-list solves
  // bitwise equal under PGD.
  if (params_.beta > 0.0) {
    active_col_.assign(A, 0);
    const double* bounds = polytope_.upper_bounds().data();
    for (std::size_t i = 0; i < num_dcs_; ++i) {
      const double* row = bounds + i * A;
      for (std::size_t a = 0; a < A; ++a) {
        if (row[a] > 0.0) active_col_[a] = 1;
      }
    }
  }

  if (obs::counting()) {
    const std::uint64_t act = S;
    obs::count("fairness.active_accounts", act);
    obs::count("fairness.sparse_skips",
               static_cast<std::uint64_t>(num_accounts_) - act);
  }
}

PerSlotView PerSlotProblem::view() const {
  PerSlotView v;
  v.num_dcs = num_dcs_;
  v.num_types = active_types_.size();
  v.num_servers = speed_.size();
  v.num_accounts = num_accounts_;
  v.type_ids = active_types_.data();
  v.work = work_eff_.data();
  v.speed = speed_.data();
  v.busy_power = busy_power_.data();
  v.energy_per_work = energy_per_work_.data();
  v.prices = obs_->prices.data();
  v.availability = obs_->availability.data().data();
  v.queue_value = queue_value_.data();
  v.upper_bounds = polytope_.upper_bounds().data();
  v.dc_capacity = dc_capacity_.data();
  return v;
}

void PerSlotProblem::accumulate_rows(const std::vector<double>& x, bool need_value,
                                     bool need_marginal, bool need_accounts) const {
  const std::size_t A = active_types_.size();
  const std::size_t S = active_accounts_.size();
  const std::uint32_t* acct_slot = account_slot_eff_.data();
  const double V = params_.V;
  for (std::size_t i = 0; i < num_dcs_; ++i) {
    const double* xr = x.data() + i * A;
    const double* qv = queue_value_.data() + i * A;
    double dc_work = 0.0;
    double queue_dot = 0.0;
    if (need_accounts) {
      double* ap = account_partial_.data() + i * S;
      std::fill(ap, ap + S, 0.0);
      for (std::size_t a = 0; a < A; ++a) {
        const double u = xr[a];
        dc_work += u;
        queue_dot += qv[a] * u;
        ap[acct_slot[a]] += u;
      }
    } else {
      for (std::size_t a = 0; a < A; ++a) {
        const double u = xr[a];
        dc_work += u;
        queue_dot += qv[a] * u;
      }
    }
    const double energy = curves_[i].smoothed_energy(dc_work, smoothing_band_[i]);
    const double v_phi = V * obs_->prices[i];
    const TieredTariff& tariff = config_->tariff(i);
    if (need_value) {
      dc_value_[i] = v_phi * tariff.smoothed_cost(energy, energy_band_[i]) - queue_dot;
    }
    if (need_marginal) {
      // Chain rule through the tariff: d cost/dW = tariff'(E(W)) * E'(W).
      marginal_scratch_[i] = v_phi * tariff.smoothed_marginal(energy, energy_band_[i]) *
                             curves_[i].smoothed_marginal(dc_work, smoothing_band_[i]);
    }
  }
}

void PerSlotProblem::merge_account_work() const {
  const std::size_t S = active_accounts_.size();
  std::fill(account_scratch_.begin(), account_scratch_.end(), 0.0);
  for (std::size_t i = 0; i < num_dcs_; ++i) {
    const double* ap = account_partial_.data() + i * S;
    for (std::size_t s = 0; s < S; ++s) account_scratch_[s] += ap[s];
  }
}

double PerSlotProblem::value(const std::vector<double>& x) const {
  GREFAR_CHECK(x.size() == num_vars());
  const bool fair = params_.beta > 0.0 && total_resource_ > 0.0;
  accumulate_rows(x, /*need_value=*/true, /*need_marginal=*/false,
                  /*need_accounts=*/fair);
  double total = 0.0;
  for (std::size_t i = 0; i < num_dcs_; ++i) total += dc_value_[i];
  if (fair) {
    merge_account_work();
    // -V*beta*f(u): f is the (negative) fairness score, evaluated sparsely
    // over the account slots — bitwise equal to the full-M evaluation (see
    // sim/fairness.h).
    total -= params_.V * params_.beta *
             fairness_.score_active(active_accounts_.data(), account_scratch_.data(),
                                    active_accounts_.size(), total_resource_);
  }
  return total;
}

void PerSlotProblem::gradient(const std::vector<double>& x,
                              std::vector<double>& out) const {
  GREFAR_CHECK(x.size() == num_vars());
  const bool fair = params_.beta > 0.0 && total_resource_ > 0.0;
  accumulate_rows(x, /*need_value=*/false, /*need_marginal=*/true,
                  /*need_accounts=*/fair);
  // Amortized: the caller's gradient buffer is sized once per shape change.
  out.resize(num_vars());  // NOLINT(grefar-hot-path-alloc)
  const std::size_t A = active_types_.size();
  if (fair) {
    merge_account_work();
    const double inv = fairness_.inv_total(total_resource_);
    const double vb = params_.V * params_.beta;
    const std::uint32_t* ids = active_accounts_.data();
    const double* gam = fairness_.gamma().data();
    for (std::size_t s = 0; s < active_accounts_.size(); ++s) {
      // d/du of -V*beta*f = -V*beta * d f/d r.
      account_term_[s] =
          vb * fairness_kernel::gradient(account_scratch_[s], gam[ids[s]], inv);
    }
    // Scatter the account terms to the type columns once, so the fill below
    // is a pure stride-1 triad. Dead columns (no positive bound anywhere)
    // get 0 — see active_col_ in the header.
    for (std::size_t a = 0; a < A; ++a) {
      type_term_[a] = active_col_[a] != 0 ? account_term_[account_slot_eff_[a]] : 0.0;
    }
  }
  for (std::size_t i = 0; i < num_dcs_; ++i) {
    const double m_i = marginal_scratch_[i];
    const double* qv = queue_value_.data() + i * A;
    double* out_row = out.data() + i * A;
    if (fair) {
      for (std::size_t a = 0; a < A; ++a) out_row[a] = m_i - qv[a] - type_term_[a];
    } else {
      for (std::size_t a = 0; a < A; ++a) out_row[a] = m_i - qv[a];
    }
  }
}

}  // namespace grefar
