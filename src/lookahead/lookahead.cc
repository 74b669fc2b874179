#include "lookahead/lookahead.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "parallel/sim_runner.h"
#include "sim/fairness.h"
#include "util/check.h"

namespace grefar {

namespace {

/// One frame's worth of model data, pre-materialized serially so frame
/// solves can run on worker threads without touching the price /
/// availability / arrival models (whose implementations carry lazily
/// extended mutable caches and are not safe to share across threads).
struct FrameData {
  std::int64_t frame_start = 0;
  std::vector<std::vector<double>> prices;           // [t][i]
  std::vector<Matrix<std::int64_t>> avail;           // [t]
  std::vector<std::vector<std::int64_t>> arrivals;   // [t][j]
};

FrameData gather_frame(const ClusterConfig& config, const PriceModel& prices,
                       const AvailabilityModel& availability,
                       const ArrivalProcess& arrivals, std::int64_t frame_start,
                       std::int64_t T) {
  const std::size_t N = config.num_data_centers();
  const auto F = static_cast<std::size_t>(T);
  FrameData data;
  data.frame_start = frame_start;
  data.prices.resize(F);
  data.avail.reserve(F);
  data.arrivals.reserve(F);
  for (std::size_t t = 0; t < F; ++t) {
    const std::int64_t slot = frame_start + static_cast<std::int64_t>(t);
    data.prices[t].reserve(N);
    for (std::size_t i = 0; i < N; ++i) {
      data.prices[t].push_back(prices.price(i, slot));
    }
    data.avail.push_back(availability.availability(slot));
    data.arrivals.push_back(arrivals.arrivals(slot));
  }
  return data;
}

LinearProgram build_frame_lp_from_data(const ClusterConfig& config,
                                       const FrameData& data,
                                       const LookaheadParams& params) {
  const std::size_t N = config.num_data_centers();
  const std::size_t J = config.num_job_types();
  const std::size_t K = config.num_server_types();
  const auto F = static_cast<std::size_t>(params.T);

  const std::size_t r_block = N * J * F;
  const std::size_t u_block = N * J * F;
  LinearProgram lp(r_block + u_block + N * K * F);
  auto r_idx = [&](std::size_t t, std::size_t i, std::size_t j) {
    return (t * N + i) * J + j;
  };
  auto u_idx = [&](std::size_t t, std::size_t i, std::size_t j) {
    return r_block + (t * N + i) * J + j;
  };
  auto w_idx = [&](std::size_t t, std::size_t i, std::size_t k) {
    return r_block + u_block + (t * N + i) * K + k;
  };

  // Objective: total energy over the frame (beta = 0 => g = e).
  for (std::size_t t = 0; t < F; ++t) {
    for (std::size_t i = 0; i < N; ++i) {
      double phi = data.prices[t][i];
      for (std::size_t k = 0; k < K; ++k) {
        const auto& st = config.server_types[k];
        lp.set_objective(w_idx(t, i, k), phi * st.busy_power / st.speed);
      }
    }
  }

  // (16): all frame arrivals must be routed within the frame.
  for (std::size_t j = 0; j < J; ++j) {
    double total_arrivals = 0.0;
    std::vector<std::pair<std::size_t, double>> terms;
    for (std::size_t t = 0; t < F; ++t) {
      total_arrivals += static_cast<double>(data.arrivals[t][j]);
      for (DataCenterId i : config.job_types[j].eligible_dcs) {
        terms.emplace_back(r_idx(t, i, j), 1.0);
      }
    }
    lp.add_constraint_sparse(terms, ConstraintSense::kGreaterEqual, total_arrivals);
  }

  // (17): everything routed within the frame is processed within the frame.
  for (std::size_t j = 0; j < J; ++j) {
    const double d = config.job_types[j].work;
    for (DataCenterId i : config.job_types[j].eligible_dcs) {
      std::vector<std::pair<std::size_t, double>> terms;
      for (std::size_t t = 0; t < F; ++t) {
        terms.emplace_back(u_idx(t, i, j), 1.0 / d);  // h = u/d
        terms.emplace_back(r_idx(t, i, j), -1.0);
      }
      lp.add_constraint_sparse(terms, ConstraintSense::kGreaterEqual, 0.0);
    }
  }

  // (18) + per-variable bounds, per slot.
  for (std::size_t t = 0; t < F; ++t) {
    const auto& avail = data.avail[t];
    for (std::size_t i = 0; i < N; ++i) {
      std::vector<std::pair<std::size_t, double>> balance;
      for (std::size_t j = 0; j < J; ++j) {
        balance.emplace_back(u_idx(t, i, j), 1.0);
        const bool eligible = config.job_types[j].eligible(i);
        lp.add_upper_bound(r_idx(t, i, j), eligible ? params.r_max : 0.0);
        lp.add_upper_bound(u_idx(t, i, j),
                           eligible ? params.h_max * config.job_types[j].work : 0.0);
      }
      for (std::size_t k = 0; k < K; ++k) {
        balance.emplace_back(w_idx(t, i, k), -1.0);
        lp.add_upper_bound(w_idx(t, i, k), static_cast<double>(avail(i, k)) *
                                               config.server_types[k].speed);
      }
      lp.add_constraint_sparse(balance, ConstraintSense::kLessEqual, 0.0);
    }
  }
  return lp;
}

}  // namespace

LinearProgram build_frame_lp(const ClusterConfig& config, const PriceModel& prices,
                             const AvailabilityModel& availability,
                             const ArrivalProcess& arrivals, std::int64_t frame_start,
                             const LookaheadParams& params) {
  GREFAR_CHECK(params.T > 0);
  return build_frame_lp_from_data(
      config, gather_frame(config, prices, availability, arrivals, frame_start,
                           params.T),
      params);
}

LookaheadResult solve_lookahead(const ClusterConfig& config, const PriceModel& prices,
                                const AvailabilityModel& availability,
                                const ArrivalProcess& arrivals,
                                const LookaheadParams& params) {
  config.validate();
  GREFAR_CHECK(params.T > 0 && params.R > 0);
  GREFAR_CHECK_MSG(!config.has_nonlinear_billing(),
                   "the lookahead frame LP models linear billing only");
  const auto R = static_cast<std::size_t>(params.R);
  // Serial prefetch of every frame's model data (see FrameData), then the
  // independent frame LPs fan out over SimRunner. Each worker performs the
  // exact same floating-point work regardless of job count and results land
  // in per-frame slots, so the reduction is bit-identical at any --jobs.
  std::vector<FrameData> frames;
  frames.reserve(R);
  for (std::size_t r = 0; r < R; ++r) {
    frames.push_back(gather_frame(config, prices, availability, arrivals,
                                  static_cast<std::int64_t>(r) * params.T,
                                  params.T));
  }
  LookaheadResult result;
  result.frame_costs.assign(R, 0.0);
  SimRunner(params.jobs).for_each_index(R, [&](std::size_t r) {
    LinearProgram lp = build_frame_lp_from_data(config, frames[r], params);
    LpSolution sol = solve_lp(lp);
    GREFAR_CHECK_MSG(sol.optimal(), "frame " << r << " LP " << to_string(sol.status)
                                             << " — slackness (20)-(22) violated?");
    result.frame_costs[r] = sol.objective / static_cast<double>(params.T);
  });
  double sum = 0.0;
  for (double c : result.frame_costs) sum += c;
  result.average_cost = sum / static_cast<double>(params.R);
  return result;
}

namespace {

/// Objective pieces for the fairness-aware frame problem, in the variable
/// layout of build_frame_lp. Reads only pre-materialized frame data (total
/// slot resource), so it is safe to evaluate on a worker thread.
struct FrameObjective {
  const ClusterConfig* config;
  std::size_t T;
  double beta;
  std::vector<double> energy_cost;  // linear coefficients (w block only)
  std::vector<double> resource;     // per-slot total resource, [t]
  FairnessFunction fairness;

  std::size_t u_offset() const {
    return config->num_data_centers() * config->num_job_types() * T;
  }
  std::size_t u_index(std::size_t t, std::size_t i, std::size_t j) const {
    return u_offset() +
           (t * config->num_data_centers() + i) * config->num_job_types() + j;
  }

  /// Per-account work in slot t.
  std::vector<double> account_work(const std::vector<double>& x, std::size_t t) const {
    std::vector<double> r_m(config->num_accounts(), 0.0);
    for (std::size_t i = 0; i < config->num_data_centers(); ++i) {
      for (std::size_t j = 0; j < config->num_job_types(); ++j) {
        r_m[config->job_types[j].account] += x[u_index(t, i, j)];
      }
    }
    return r_m;
  }

  /// Frame total cost sum_t [e(t) - beta f(t)] (not divided by T).
  double value(const std::vector<double>& x) const {
    double total = 0.0;
    for (std::size_t v = 0; v < x.size(); ++v) total += energy_cost[v] * x[v];
    if (beta > 0.0) {
      for (std::size_t t = 0; t < T; ++t) {
        if (resource[t] <= 0.0) continue;
        total -= beta * fairness.score(account_work(x, t), resource[t]);
      }
    }
    return total;
  }

  std::vector<double> gradient(const std::vector<double>& x) const {
    std::vector<double> g = energy_cost;
    if (beta > 0.0) {
      for (std::size_t t = 0; t < T; ++t) {
        if (resource[t] <= 0.0) continue;
        auto r_m = account_work(x, t);
        for (std::size_t i = 0; i < config->num_data_centers(); ++i) {
          for (std::size_t j = 0; j < config->num_job_types(); ++j) {
            AccountId m = config->job_types[j].account;
            g[u_index(t, i, j)] -=
                beta * fairness.score_gradient(r_m[m], m, resource[t]);
          }
        }
      }
    }
    return g;
  }
};

}  // namespace

LookaheadResult solve_lookahead_fair(const ClusterConfig& config,
                                     const PriceModel& prices,
                                     const AvailabilityModel& availability,
                                     const ArrivalProcess& arrivals,
                                     const FairLookaheadParams& params) {
  config.validate();
  GREFAR_CHECK(params.base.T > 0 && params.base.R > 0);
  GREFAR_CHECK(params.beta >= 0.0);
  GREFAR_CHECK(params.fw_iterations >= 1);
  GREFAR_CHECK_MSG(!config.has_nonlinear_billing(),
                   "the lookahead frame LP models linear billing only");

  const auto R = static_cast<std::size_t>(params.base.R);
  const auto F = static_cast<std::size_t>(params.base.T);
  std::vector<FrameData> frames;
  frames.reserve(R);
  for (std::size_t r = 0; r < R; ++r) {
    frames.push_back(gather_frame(config, prices, availability, arrivals,
                                  static_cast<std::int64_t>(r) * params.base.T,
                                  params.base.T));
  }

  LookaheadResult result;
  result.frame_costs.assign(R, 0.0);
  SimRunner(params.base.jobs).for_each_index(R, [&](std::size_t r) {
    const FrameData& data = frames[r];
    LinearProgram lp = build_frame_lp_from_data(config, data, params.base);

    FrameObjective objective{&config,
                             F,
                             params.beta,
                             lp.objective(),  // energy coefficients
                             std::vector<double>(F, 0.0),
                             FairnessFunction(config.gammas())};
    for (std::size_t t = 0; t < F; ++t) {
      double total = 0.0;
      for (std::size_t i = 0; i < config.num_data_centers(); ++i) {
        for (std::size_t k = 0; k < config.num_server_types(); ++k) {
          total += static_cast<double>(data.avail[t](i, k)) *
                   config.server_types[k].speed;
        }
      }
      objective.resource[t] = total;
    }

    // Start from the energy-only optimum (also a feasibility certificate).
    LpSolution start = solve_lp(lp);
    GREFAR_CHECK_MSG(start.optimal(), "frame " << r << " LP "
                                               << to_string(start.status)
                                               << " — slackness violated?");
    std::vector<double> x = std::move(start.x);
    SimplexBasis basis = std::move(start.basis);

    // Frank-Wolfe with the frame LP as the LMO. The polytope is fixed
    // within the frame: only the objective changes per iteration, so the
    // previous vertex's basis stays primal feasible and every LMO call
    // re-enters phase 2 warm instead of re-solving from scratch.
    for (int iter = 0; iter < params.fw_iterations; ++iter) {
      auto grad = objective.gradient(x);
      for (std::size_t v = 0; v < grad.size(); ++v) lp.set_objective(v, grad[v]);
      LpSolution vertex = solve_lp(lp, basis);
      GREFAR_CHECK_MSG(vertex.optimal(), "frame LMO " << to_string(vertex.status));
      basis = std::move(vertex.basis);

      double gap = 0.0;
      for (std::size_t v = 0; v < grad.size(); ++v) {
        gap += grad[v] * (x[v] - vertex.x[v]);
      }
      if (gap <= 1e-7) break;

      // Ternary line search along the segment (objective convex).
      auto value_at = [&](double step) {
        std::vector<double> trial(x.size());
        for (std::size_t v = 0; v < x.size(); ++v) {
          trial[v] = x[v] + step * (vertex.x[v] - x[v]);
        }
        return objective.value(trial);
      };
      double lo = 0.0, hi = 1.0;
      for (int ls = 0; ls < 40; ++ls) {
        double m1 = lo + (hi - lo) / 3.0;
        double m2 = hi - (hi - lo) / 3.0;
        if (value_at(m1) <= value_at(m2)) hi = m2;
        else lo = m1;
      }
      double step = 0.5 * (lo + hi);
      if (step < 1e-12) step = 2.0 / (iter + 2.0);
      for (std::size_t v = 0; v < x.size(); ++v) {
        x[v] += step * (vertex.x[v] - x[v]);
      }
    }
    result.frame_costs[r] = objective.value(x) / static_cast<double>(F);
  });
  double sum = 0.0;
  for (double c : result.frame_costs) sum += c;
  result.average_cost = sum / static_cast<double>(params.base.R);
  return result;
}

}  // namespace grefar
