// Shared pieces of the benchmark driver: options, timing helpers, order
// statistics, the output checks every workload applies to its SimMetrics,
// and the result record the driver prints.
//
// The driver only calls the grefar library's public API. Everything timed
// here is timed from outside the library, around public calls; the traced
// run adds decorators (Scheduler, SlotInspector) and reads the library's
// own obs counters and profile phases, never tracing inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"
#include "sim/slot_inspector.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for generated traces and the slot log (created if missing).
  std::string scratch_dir;
  /// Shrinks every workload to a few slots/legs (the self-test's size).
  bool tiny = false;
  /// Fault injection for the self-test: "bad_price" writes a non-positive
  /// price into the serve trace after generation.
  std::string inject;
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `v`; NaN when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// getrusage peak resident set size of this process, MB.
double peak_rss_mb();

/// FNV-1a over the raw bits of the per-slot energy-cost and fairness
/// series, continuing from `h` (start with kFnvOffset). Equal digests mean
/// bitwise-equal series.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
std::uint64_t fnv_series(const grefar::SimMetrics& m, std::uint64_t h = kFnvOffset);

/// Folds one digest into another (order-sensitive).
inline std::uint64_t fnv_combine(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ULL;
}

/// Time-average g(t) = e(t) - beta * f(t) over the run.
double average_cost(const grefar::SimMetrics& m, double beta);

/// Remaining work in the queues after the last slot, plus the fractional
/// job count it corresponds to. Sources: the engine (scale_1m, sweep) or
/// the last slot record (serve).
struct QueueSnapshot {
  double work = 0.0;
  double jobs = 0.0;
};

/// What is still queued in `engine`, central and per-DC queues together.
QueueSnapshot queued_in(const grefar::SimulationEngine& engine);

/// Output checks on one finished run of `expected_slots` slots. Returns
/// the empty string when every check passes, otherwise the first failure:
///   * the run completed every slot;
///   * the time-average cost and the mean delay are finite;
///   * offered jobs = admitted + rejected (exact);
///   * admitted - completed - abandoned is a whole number of jobs, at least
///     the queues' fractional job count (partly served jobs count whole);
///   * admitted work = served + still-queued + abandoned work (1e-9 rel).
std::string check_outputs(const grefar::SimMetrics& m, std::int64_t expected_slots,
                          double beta, const QueueSnapshot& queued);

/// Scheduler decorator for the traced run: forwards all three decide
/// overloads to the wrapped scheduler and records each call's duration and
/// the observation's active-type share.
class TimedScheduler final : public grefar::Scheduler {
 public:
  explicit TimedScheduler(std::shared_ptr<grefar::Scheduler> inner)
      : inner_(std::move(inner)) {}

  grefar::SlotAction decide(const grefar::SlotObservation& obs) override;
  void decide_into(const grefar::SlotObservation& obs,
                   grefar::SlotAction& out) override;
  void decide_into(const grefar::SlotObservation& obs, grefar::SlotAction& out,
                   grefar::TraceScope* scope) override;
  std::string name() const override { return inner_->name(); }

  const std::vector<double>& decide_us() const { return decide_us_; }
  double decide_total_s() const { return decide_total_s_; }
  double mean_active_frac() const;
  /// Forgets every call recorded so far (e.g. a warm-up slot).
  void clear();

 private:
  void record(Clock::time_point start, const grefar::SlotObservation& obs);

  std::shared_ptr<grefar::Scheduler> inner_;
  std::vector<double> decide_us_;
  double decide_total_s_ = 0.0;
  double active_frac_sum_ = 0.0;
};

/// SlotInspector decorator for the traced run: times each inspect() call
/// of the wrapped inspector.
class TimedInspector final : public grefar::SlotInspector {
 public:
  explicit TimedInspector(std::shared_ptr<grefar::SlotInspector> inner)
      : inner_(std::move(inner)) {}

  void inspect(const grefar::SlotRecord& record) override;

  const std::vector<double>& inspect_us() const { return inspect_us_; }
  double total_s() const { return total_s_; }

 private:
  std::shared_ptr<grefar::SlotInspector> inner_;
  std::vector<double> inspect_us_;
  double total_s_ = 0.0;
};

/// What one workload run reports. `metrics` holds either the end-to-end
/// set (untraced run) or the per-layer set (traced run), by name; units and
/// better-directions live in BENCHMARK.json and are attached by run.py.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few failure messages
  std::uint64_t fingerprint = kFnvOffset;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> notes;  // human-readable context lines

  /// Counts `ops` failed operations and keeps the message.
  void fail(std::string message, std::int64_t ops = 1);
  void set(const std::string& name, double value) { metrics.emplace_back(name, value); }
};

/// The first successful run of one input; later runs must match it bitwise.
struct Reference {
  bool have = false;
  std::uint64_t fingerprint = kFnvOffset;
  double avg_cost = 0.0;
  double avg_delay = 0.0;

  /// Records the first run, or compares a later one. False on a mismatch.
  bool match(std::uint64_t fp, double cost, double delay);
};

/// Digest of the inputs' fingerprints, in input order.
std::uint64_t fingerprint_of(const std::vector<Reference>& inputs);

/// Sets avg_cost / avg_delay_slots to their means over `inputs` (only when
/// every input ran successfully) and the fingerprint to fingerprint_of().
void report_outputs(const std::vector<Reference>& inputs, RunResult& result);

/// The end-to-end timing figures every workload reports, built round by
/// round. A round runs each of the workload's inputs once; every figure is
/// the median over rounds of a per-round figure, so one slow stretch of a
/// run (a busy neighbour, the cold first round) does not move it.
class RoundStats {
 public:
  void add_setup(double seconds) { setup_s_.push_back(seconds); }
  /// One round: per-slot latencies and per-leg wall times (ms), the slots
  /// it completed, the wall of its timed part and the wall including
  /// set-up (slots_per_s and legs_per_s use them respectively).
  void add_round(const std::vector<double>& slot_ms, const std::vector<double>& leg_ms,
                 double slots, double busy_s, double wall_s);
  std::size_t rounds() const { return slots_per_s_.size(); }
  double slots_per_s() const { return median(slots_per_s_); }

  /// Sets setup_s, slots_per_s, legs_per_s, slot_p50_ms, slot_p99_ms,
  /// leg_p50_ms, leg_p95_ms and peak_rss_mb.
  void report(RunResult& result) const;

 private:
  std::vector<double> setup_s_;
  std::vector<double> slots_per_s_, legs_per_s_;
  std::vector<double> slot_p50_ms_, slot_p99_ms_, leg_p50_ms_, leg_p95_ms_;
};

/// Runs `round` until the next round would likely end past `budget_s`
/// (always at least once).
template <class Round>
void repeat_rounds(double budget_s, Round&& round) {
  const auto start = Clock::now();
  for (double n = 1;; ++n) {
    round();
    const double spent = seconds_between(start, Clock::now());
    if (spent + spent / n > budget_s) return;
  }
}

RunResult run_serve(const Options& options);
RunResult run_scale_1m(const Options& options);
RunResult run_paper_sweep(const Options& options);

}  // namespace perfbench
