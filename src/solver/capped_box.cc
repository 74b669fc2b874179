#include "solver/capped_box.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace grefar {

CappedBoxPolytope::CappedBoxPolytope(std::vector<double> ub)
    : ub_(std::move(ub)), grouped_(ub_.size(), false) {
  for (double u : ub_) GREFAR_CHECK_MSG(u >= 0.0, "upper bound must be >= 0");
}

void CappedBoxPolytope::add_group(std::size_t begin, std::size_t end, double cap) {
  GREFAR_CHECK_MSG(cap >= 0.0, "group cap must be >= 0");
  GREFAR_CHECK_MSG(begin <= end && end <= ub_.size(),
                   "group [" << begin << ", " << end << ") outside dim " << ub_.size());
  const auto first = grouped_.begin() + static_cast<std::ptrdiff_t>(begin);
  const auto last = grouped_.begin() + static_cast<std::ptrdiff_t>(end);
  const auto taken = std::find(first, last, true);
  GREFAR_CHECK_MSG(taken == last, "variable " << (taken - grouped_.begin())
                                              << " already in a group");
  std::fill(first, last, true);
  groups_.push_back(Group{begin, end, cap});
}

void CappedBoxPolytope::rebuild_contiguous(std::size_t n_groups,
                                           std::size_t group_size) {
  const std::size_t n = n_groups * group_size;
  ub_.assign(n, 0.0);
  grouped_.assign(n, true);
  groups_.resize(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    groups_[g] = Group{g * group_size, (g + 1) * group_size, 0.0};
  }
}

void CappedBoxPolytope::set_upper_bound(std::size_t j, double ub) {
  GREFAR_CHECK(j < ub_.size());
  GREFAR_CHECK_MSG(ub >= 0.0, "upper bound must be >= 0");
  ub_[j] = ub;
}

void CappedBoxPolytope::set_group_cap(std::size_t g, double cap) {
  GREFAR_CHECK(g < groups_.size());
  GREFAR_CHECK_MSG(cap >= 0.0, "group cap must be >= 0");
  groups_[g].cap = cap;
}

bool CappedBoxPolytope::contains(const std::vector<double>& x, double tol) const {
  GREFAR_CHECK(x.size() == ub_.size());
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (x[j] < -tol || x[j] > ub_[j] + tol) return false;
  }
  for (const auto& g : groups_) {
    double sum = 0.0;
    for (std::size_t j = g.begin; j < g.end; ++j) sum += x[j];
    if (sum > g.cap + tol) return false;
  }
  return true;
}

void CappedBoxPolytope::project_group(const Group& g, std::vector<double>& x) const {
  // KKT: the projection is clamp(y - lambda, 0, ub) for the smallest
  // lambda >= 0 satisfying the cap. The group's x entries still hold the
  // *original* y values (project_into clamps only ungrouped variables), and
  // every pass below reads before it writes, so the bisection can run
  // straight off x — no staging copy. Stride-1 loops over raw pointers with
  // branch-free clamps: these are the inner loops of every PGD iteration at
  // N*J variables.
  double* xs = x.data() + g.begin;
  const double* ub = ub_.data() + g.begin;
  const std::size_t count = g.end - g.begin;
  double sum0 = 0.0;
  double hi = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    sum0 += std::clamp(xs[k], 0.0, ub[k]);
    hi = std::max(hi, xs[k]);
  }
  if (sum0 <= g.cap) {
    for (std::size_t k = 0; k < count; ++k) xs[k] = std::clamp(xs[k], 0.0, ub[k]);
    return;
  }
  // sum(lambda) is non-increasing and reaches 0 at max(y); bisect, exiting
  // early once the bracket is resolved to ~1e-12 relative (the historical
  // fixed 100 rounds kept bisecting long past double resolution).
  double lo = 0.0;
  for (int iter = 0; iter < 100; ++iter) {
    const double mid = 0.5 * (lo + hi);
    double s = 0.0;
    for (std::size_t k = 0; k < count; ++k) s += std::clamp(xs[k] - mid, 0.0, ub[k]);
    if (s > g.cap) lo = mid;
    else hi = mid;
    if (hi - lo <= 1e-12 * (1.0 + hi)) break;
  }
  const double lambda = 0.5 * (lo + hi);
  for (std::size_t k = 0; k < count; ++k) {
    xs[k] = std::clamp(xs[k] - lambda, 0.0, ub[k]);
  }
}

std::vector<double> CappedBoxPolytope::project(const std::vector<double>& y) const {
  std::vector<double> x;
  project_into(y, x);
  return x;
}

void CappedBoxPolytope::project_into(const std::vector<double>& y,
                                     std::vector<double>& out) const {
  GREFAR_CHECK(y.size() == ub_.size());
  GREFAR_CHECK_MSG(&y != &out, "project_into aliasing y and out");
  out.assign(y.begin(), y.end());
  // Box-only variables.
  for (std::size_t j = 0; j < out.size(); ++j) {
    if (!grouped_[j]) out[j] = std::clamp(out[j], 0.0, ub_[j]);
  }
  for (const auto& g : groups_) project_group(g, out);
}

std::vector<double> CappedBoxPolytope::minimize_linear(const std::vector<double>& c) const {
  std::vector<double> x;
  minimize_linear_into(c, x);
  return x;
}

void CappedBoxPolytope::minimize_linear_into(const std::vector<double>& c,
                                             std::vector<double>& out) const {
  GREFAR_CHECK(c.size() == ub_.size());
  out.assign(ub_.size(), 0.0);
  // Box-only variables: saturate those with negative cost.
  for (std::size_t j = 0; j < out.size(); ++j) {
    if (!grouped_[j] && c[j] < 0.0) out[j] = ub_[j];
  }
  for (const auto& g : groups_) {
    // Fractional greedy: fill by ascending cost while cost < 0 and cap
    // remains. Only negative-cost variables can enter the solution, so
    // first scan for them — and if their bounds cannot even reach the cap,
    // the fill order is irrelevant and the sort is skipped entirely.
    std::vector<std::size_t>& order = lmo_order_;
    order.clear();
    double neg_ub = 0.0;
    // Amortized: lmo_order_ is clear()+refilled, high-water capacity reused.
    for (std::size_t j = g.begin; j < g.end; ++j) {
      if (c[j] < 0.0) {
        order.push_back(j);  // NOLINT(grefar-hot-path-alloc)
        neg_ub += ub_[j];
      }
    }
    if (neg_ub <= g.cap) {
      for (std::size_t j : order) out[j] = ub_[j];
      continue;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return c[a] < c[b]; });
    double remaining = g.cap;
    for (std::size_t j : order) {
      if (remaining <= 0.0) break;
      double take = std::min(ub_[j], remaining);
      out[j] = take;
      remaining -= take;
    }
  }
}

}  // namespace grefar
