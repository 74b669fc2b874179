#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

namespace {

void fnv_mix(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (bits >> (8 * byte)) & 0xffU;
    h *= 1099511628211ULL;
  }
}

double series_sum(const std::vector<grefar::TimeSeries>& per_dc) {
  double total = 0.0;
  for (const auto& s : per_dc) total += s.sum();
  return total;
}

}  // namespace

std::uint64_t fnv_series(const grefar::SimMetrics& m, std::uint64_t h) {
  for (std::size_t t = 0; t < m.slots(); ++t) {
    fnv_mix(h, m.energy_cost.at(t));
    fnv_mix(h, m.fairness.at(t));
  }
  return h;
}

double average_cost(const grefar::SimMetrics& m, double beta) {
  return m.final_average_energy_cost() - beta * m.final_average_fairness();
}

QueueSnapshot queued_in(const grefar::SimulationEngine& engine) {
  QueueSnapshot q;
  const grefar::ClusterConfig& config = engine.config();
  for (std::size_t j = 0; j < config.num_job_types(); ++j) {
    double jobs = engine.central_queue_length(j);
    for (std::size_t i = 0; i < config.num_data_centers(); ++i) {
      jobs += engine.dc_queue_length(i, j);
    }
    q.jobs += jobs;
    q.work += jobs * config.job_types[j].work;
  }
  return q;
}

std::string check_outputs(const grefar::SimMetrics& m, std::int64_t expected_slots,
                          double beta, const QueueSnapshot& queued) {
  std::ostringstream why;
  if (static_cast<std::int64_t>(m.slots()) != expected_slots) {
    why << "ran " << m.slots() << " of " << expected_slots << " slots";
    return why.str();
  }
  const double cost = average_cost(m, beta);
  const double delay = m.mean_delay();
  if (!std::isfinite(cost) || !std::isfinite(delay)) {
    why << "non-finite output: avg_cost " << cost << ", avg_delay " << delay;
    return why.str();
  }
  const double offered = m.offered_jobs.sum();
  const double admitted = m.arrived_jobs.sum();
  const double rejected = m.rejected_jobs.sum();
  if (offered != admitted + rejected) {
    why << "offered " << offered << " != admitted " << admitted << " + rejected "
        << rejected;
    return why.str();
  }
  const double completed = series_sum(m.dc_completions);
  const double abandoned = m.abandoned_jobs.sum();
  const double in_system = admitted - completed - abandoned;
  const double job_tol = 1e-9 * std::max(1.0, admitted);
  if (std::fabs(in_system - std::round(in_system)) > job_tol ||
      in_system < queued.jobs - job_tol) {
    why << "jobs not conserved: admitted " << admitted << " - completed "
        << completed << " - abandoned " << abandoned << " = " << in_system
        << ", but " << queued.jobs << " jobs' worth is still queued";
    return why.str();
  }
  const double admitted_work = m.arrived_work.sum();
  const double accounted =
      series_sum(m.dc_work) + queued.work + m.abandoned_work.sum();
  if (std::fabs(admitted_work - accounted) > 1e-9 * std::max(1.0, admitted_work)) {
    why << "work not conserved: admitted " << admitted_work
        << " != served + queued + abandoned " << accounted;
    return why.str();
  }
  return {};
}

grefar::SlotAction TimedScheduler::decide(const grefar::SlotObservation& obs) {
  const auto start = Clock::now();
  grefar::SlotAction action = inner_->decide(obs);
  record(start, obs);
  return action;
}

void TimedScheduler::decide_into(const grefar::SlotObservation& obs,
                                 grefar::SlotAction& out) {
  const auto start = Clock::now();
  inner_->decide_into(obs, out);
  record(start, obs);
}

void TimedScheduler::decide_into(const grefar::SlotObservation& obs,
                                 grefar::SlotAction& out, grefar::TraceScope* scope) {
  const auto start = Clock::now();
  inner_->decide_into(obs, out, scope);
  record(start, obs);
}

void TimedScheduler::record(Clock::time_point start,
                            const grefar::SlotObservation& obs) {
  const double s = seconds_between(start, Clock::now());
  decide_us_.push_back(s * 1e6);
  decide_total_s_ += s;
  const std::size_t types = obs.central_queue.size();
  active_frac_sum_ += obs.active_types_valid && types > 0
                          ? static_cast<double>(obs.active_types.size()) /
                                static_cast<double>(types)
                          : 1.0;
}

double TimedScheduler::mean_active_frac() const {
  return decide_us_.empty() ? 0.0
                            : active_frac_sum_ / static_cast<double>(decide_us_.size());
}

void TimedScheduler::clear() {
  decide_us_.clear();
  decide_total_s_ = 0.0;
  active_frac_sum_ = 0.0;
}

void TimedInspector::inspect(const grefar::SlotRecord& record) {
  const auto start = Clock::now();
  inner_->inspect(record);
  const double s = seconds_between(start, Clock::now());
  inspect_us_.push_back(s * 1e6);
  total_s_ += s;
}

void RunResult::fail(std::string message, std::int64_t ops) {
  failed += ops;
  if (failures.size() < 8) failures.push_back(std::move(message));
}

void RoundStats::add_round(const std::vector<double>& slot_ms,
                           const std::vector<double>& leg_ms, double slots,
                           double busy_s, double wall_s) {
  slots_per_s_.push_back(slots / busy_s);
  legs_per_s_.push_back(static_cast<double>(leg_ms.size()) / wall_s);
  slot_p50_ms_.push_back(median(slot_ms));
  slot_p99_ms_.push_back(quantile(slot_ms, 0.99));
  leg_p50_ms_.push_back(median(leg_ms));
  leg_p95_ms_.push_back(quantile(leg_ms, 0.95));
}

void RoundStats::report(RunResult& result) const {
  result.set("setup_s", median(setup_s_));
  result.set("slots_per_s", median(slots_per_s_));
  result.set("legs_per_s", median(legs_per_s_));
  result.set("slot_p50_ms", median(slot_p50_ms_));
  result.set("slot_p99_ms", median(slot_p99_ms_));
  result.set("leg_p50_ms", median(leg_p50_ms_));
  result.set("leg_p95_ms", median(leg_p95_ms_));
  result.set("peak_rss_mb", peak_rss_mb());
}

bool Reference::match(std::uint64_t fp, double cost, double delay) {
  if (!have) {
    have = true;
    fingerprint = fp;
    avg_cost = cost;
    avg_delay = delay;
    return true;
  }
  return fp == fingerprint;
}

std::uint64_t fingerprint_of(const std::vector<Reference>& inputs) {
  std::uint64_t digest = kFnvOffset;
  for (const Reference& r : inputs) digest = fnv_combine(digest, r.fingerprint);
  return digest;
}

void report_outputs(const std::vector<Reference>& inputs, RunResult& result) {
  double cost = 0.0, delay = 0.0;
  bool all = !inputs.empty();
  for (const Reference& r : inputs) {
    cost += r.avg_cost;
    delay += r.avg_delay;
    all = all && r.have;
  }
  result.fingerprint = fingerprint_of(inputs);
  if (!all) return;
  const auto n = static_cast<double>(inputs.size());
  result.set("avg_cost", cost / n);
  result.set("avg_delay_slots", delay / n);
}

}  // namespace perfbench
