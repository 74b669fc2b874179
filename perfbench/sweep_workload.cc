// paper_sweep: the paper scenario (3 DCs, 8 job types, 4 accounts) at the
// paper's 2000-slot horizon, as a seeds x V x beta cross product through
// SweepEngine — cold (no warm starts, so every leg is bitwise reproducible),
// no audit, a fixed worker count of two. A round is one SweepEngine::run over the
// whole cross product on a fresh SweepEngine; rounds repeat until the time
// is up and must reproduce the first round bitwise.
//
// V is log-spaced over [0.1, 20]. Leg time is bimodal in beta (greedy at
// beta = 0, PGD at beta = 100), so the leg-time median falls between the
// two modes; small-V PGD legs are about as fast as greedy ones, and log
// spacing puts more legs there, around the median.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/grefar.h"
#include "harness.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "parallel/thread_pool.h"
#include "scenario/paper_scenario.h"
#include "sim/engine.h"
#include "sweep/sweep_engine.h"
#include "sweep/sweep_spec.h"

namespace perfbench {

namespace {

using namespace grefar;

constexpr std::size_t kSeeds = 4;
constexpr std::size_t kVs = 8;
constexpr std::int64_t kHorizon = 2000;
constexpr std::int64_t kTinyHorizon = 50;
constexpr double kBetas[] = {0.0, 100.0};
// Fewer workers than the driver's pinned CPUs (main.cc), so the calling
// thread and other work on the machine do not compete with the legs.
constexpr std::size_t kMaxJobs = 2;

/// Per-leg observations, each written only by the worker running the leg.
struct LegRecord {
  Clock::time_point start;
  double ms = 0.0;
  std::thread::id worker;
  std::string failure;
  std::uint64_t fingerprint = 0;
  double cost = 0.0;
  double delay = 0.0;
  // traced only
  double decide_ns_before = 0.0;
  double engine_ns_before = 0.0;
  double decide_ns = 0.0;
  double engine_ns = 0.0;
  double active_frac = 0.0;
};

/// Per-layer observations of the traced phase, summed over its rounds.
struct Layers {
  std::int64_t rounds = 0;
  std::int64_t legs = 0;
  double run_s = 0.0;  // sum of SweepEngine::run walls
  std::size_t workers = 0;
  std::vector<double> materialize_s;
  std::vector<double> decide_us;  // per-leg mean decide time per slot
  std::vector<double> step_us;    // per-leg mean engine time per slot
  double decide_s = 0.0;
  double engine_s = 0.0;
  double active_frac_sum = 0.0;
  double busy_s = 0.0;  // sum of leg times
  double imbalance_sum = 0.0;
  std::uint64_t artifact_hits = 0;
  std::uint64_t artifact_lookups = 0;
  obs::CounterRegistry counters;
  obs::ProfileRegistry profile;
};

double phase_ns(const char* name) {
  const obs::ProfileRegistry* registry = obs::active_profile();
  if (registry == nullptr) return 0.0;
  const auto it = registry->phases().find(name);
  return it == registry->phases().end() ? 0.0 : it->second.total_ns;
}

double engine_phases_ns() {
  const obs::ProfileRegistry* registry = obs::active_profile();
  if (registry == nullptr) return 0.0;
  double total = 0.0;
  for (const auto& [name, phase] : registry->phases()) {
    if (name.rfind("engine.", 0) == 0) total += phase.total_ns;
  }
  return total;
}

std::size_t worker_count() {
  return std::min(kMaxJobs, ThreadPool::default_concurrency());
}

sweep::SweepSpec make_spec(const Options& options) {
  const std::uint64_t base_seed = options.seed * 1000;
  const std::size_t seeds = options.tiny ? 1 : kSeeds;
  const std::size_t vs = options.tiny ? 2 : kVs;
  sweep::SweepAxis seed_axis{.name = "seed", .values = {}, .labels = {}};
  for (std::size_t s = 0; s < seeds; ++s) {
    seed_axis.values.push_back(static_cast<double>(base_seed + s));
  }
  sweep::SweepAxis v_axis{.name = "V", .values = {}, .labels = {}};
  for (std::size_t i = 0; i < vs; ++i) {
    v_axis.values.push_back(0.1 * std::pow(200.0, static_cast<double>(i) /
                                                   static_cast<double>(vs - 1)));
  }
  sweep::SweepAxis beta_axis{.name = "beta", .values = {kBetas[0], kBetas[1]},
                             .labels = {}};
  sweep::SweepSpec spec;
  spec.axes = {seed_axis, v_axis, beta_axis};
  spec.horizon = options.tiny ? kTinyHorizon : kHorizon;
  spec.scenario = [](const sweep::SweepPoint& p) {
    return make_paper_scenario(static_cast<std::uint64_t>(p.value(0)));
  };
  spec.plan = [](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key =
        "paper/seed=" + std::to_string(static_cast<std::uint64_t>(p.value(0)));
    plan.grefar = sweep::GreFarLegSpec{paper_grefar_params(p.value(1), p.value(2)), {}};
    return plan;
  };
  return spec;
}

void run_round(const Options& options, RoundStats& stats, RunResult& result,
               Reference& reference, Layers* layers) {
  const bool traced = layers != nullptr;
  const auto setup_start = Clock::now();
  sweep::SweepSpec spec = make_spec(options);
  const std::size_t legs = spec.num_legs();
  result.attempted += static_cast<std::int64_t>(legs);
  try {
    sweep::SweepOptions sweep_options;
    sweep_options.jobs = worker_count();
    sweep_options.audit = AuditMode::kOff;
    sweep_options.warm_start = false;
    sweep::SweepEngine engine(sweep_options);

    std::vector<LegRecord> records(legs);
    std::atomic<bool> started{false};
    Clock::time_point first_leg;
    Clock::time_point run_entry;
    auto pre_run = [&](std::size_t leg, SimulationEngine&) {
      LegRecord& r = records[leg];
      if (!started.exchange(true)) first_leg = Clock::now();
      if (traced) {
        r.decide_ns_before = phase_ns("engine.decide");
        r.engine_ns_before = engine_phases_ns();
      }
      r.start = Clock::now();
    };
    auto collect = [&](std::size_t leg, SimulationEngine& e) {
      LegRecord& r = records[leg];
      r.ms = seconds_between(r.start, Clock::now()) * 1e3;
      r.worker = std::this_thread::get_id();
      if (traced) {
        r.decide_ns = phase_ns("engine.decide") - r.decide_ns_before;
        r.engine_ns = engine_phases_ns() - r.engine_ns_before;
        const SlotObservation obs = e.observe();
        r.active_frac = obs.active_types_valid && !obs.central_queue.empty()
                            ? static_cast<double>(obs.active_types.size()) /
                                  static_cast<double>(obs.central_queue.size())
                            : 1.0;
      }
      const SimMetrics& m = e.metrics();
      const double beta = spec.point(leg).value(2);
      r.failure = check_outputs(m, spec.horizon, beta, queued_in(e));
      r.fingerprint = fnv_series(m);
      r.cost = average_cost(m, beta);
      r.delay = m.mean_delay();
    };

    sweep::SweepRunStats run_stats;
    {
      obs::CountersScope counters(traced ? &layers->counters : nullptr);
      obs::ProfileScope profile(traced ? &layers->profile : nullptr);
      run_entry = Clock::now();
      run_stats = engine.run(spec, collect, pre_run);
    }
    const double run_s = seconds_between(run_entry, Clock::now());

    stats.add_setup(seconds_between(setup_start, first_leg));

    std::uint64_t round_fp = kFnvOffset;
    double cost = 0.0, delay = 0.0;
    std::map<std::thread::id, double> per_worker;
    std::vector<double> leg_ms, slot_ms;
    for (std::size_t leg = 0; leg < legs; ++leg) {
      const LegRecord& r = records[leg];
      if (!r.failure.empty()) {
        result.fail("paper_sweep leg " + std::to_string(leg) + ": " + r.failure);
      }
      round_fp = fnv_combine(round_fp, r.fingerprint);
      cost += r.cost;
      delay += r.delay;
      leg_ms.push_back(r.ms);
      slot_ms.push_back(r.ms / static_cast<double>(spec.horizon));
      per_worker[r.worker] += r.ms * 1e-3;
      if (traced) {
        const double slots = static_cast<double>(spec.horizon);
        layers->decide_us.push_back(r.decide_ns * 1e-3 / slots);
        layers->step_us.push_back(r.engine_ns * 1e-3 / slots);
        layers->decide_s += r.decide_ns * 1e-9;
        layers->engine_s += r.engine_ns * 1e-9;
        layers->active_frac_sum += r.active_frac;
        layers->busy_s += r.ms * 1e-3;
      }
    }
    stats.add_round(slot_ms, leg_ms, static_cast<double>(legs * spec.horizon), run_s, run_s);
    if (traced) {
      layers->rounds += 1;
      layers->legs += static_cast<std::int64_t>(legs);
      layers->run_s += run_s;
      layers->workers = run_stats.workers;
      layers->materialize_s.push_back(seconds_between(run_entry, first_leg));
      double max_busy = 0.0, sum_busy = 0.0;
      for (const auto& [id, busy] : per_worker) {
        max_busy = std::max(max_busy, busy);
        sum_busy += busy;
      }
      layers->imbalance_sum +=
          max_busy / (sum_busy / static_cast<double>(std::max<std::size_t>(
                                     per_worker.size(), 1)));
      layers->artifact_hits += engine.artifacts().hits();
      layers->artifact_lookups += engine.artifacts().hits() + engine.artifacts().misses();
    }
    const double n = static_cast<double>(legs);
    if (!reference.match(round_fp, cost / n, delay / n)) {
      result.fail("paper_sweep round is not deterministic: fingerprint changed",
                  static_cast<std::int64_t>(legs));
    }
  } catch (const std::exception& e) {
    result.fail(std::string("paper_sweep round threw: ") + e.what(),
                static_cast<std::int64_t>(legs));
  }
}

}  // namespace

RunResult run_paper_sweep(const Options& options) {
  RunResult result;
  const sweep::SweepSpec spec = make_spec(options);
  result.notes.push_back("paper_sweep: " + std::to_string(spec.num_legs()) +
                         " legs per round (seeds x V in [0.1, 20] x beta in {0, 100}), " +
                         std::to_string(spec.horizon) + " slots per leg, cold, no audit, jobs=" +
                         std::to_string(worker_count()));
  std::vector<Reference> reference(1);
  RoundStats plain;
  repeat_rounds(options.trace ? options.seconds / 2 : options.seconds,
                [&] { run_round(options, plain, result, reference[0], nullptr); });
  result.notes.push_back("paper_sweep: " + std::to_string(plain.rounds()) + " rounds");
  if (!options.trace) {
    report_outputs(reference, result);
    plain.report(result);
    return result;
  }

  Layers layers;
  RoundStats traced;
  repeat_rounds(options.seconds / 2,
                [&] { run_round(options, traced, result, reference[0], &layers); });
  result.fingerprint = fingerprint_of(reference);
  const double legs = static_cast<double>(layers.legs);
  const double slots = legs * static_cast<double>(spec.horizon);
  const double workers = static_cast<double>(std::max<std::size_t>(layers.workers, 1));
  const double pgd_solves = static_cast<double>(layers.counters.counter("pgd.solves"));
  const double pgd_iters = static_cast<double>(layers.counters.counter("pgd.iterations"));
  const double reuses = static_cast<double>(layers.counters.counter("sweep.engine_reuses"));
  const double builds = static_cast<double>(layers.counters.counter("sweep.engine_builds"));
  double materialize_total = 0.0;
  for (double s : layers.materialize_s) materialize_total += s;

  result.set("core.decide_us_p50", median(layers.decide_us));
  result.set("core.decide_us_p99", quantile(layers.decide_us, 0.99));
  result.set("core.decide_frac", layers.decide_s / (workers * layers.run_s));
  result.set("core.pgd_iters_per_solve", pgd_solves > 0 ? pgd_iters / pgd_solves : 0.0);
  result.set("core.active_types_frac", layers.active_frac_sum / legs);
  result.set("sim.step_us_p50", median(layers.step_us));
  result.set("sim.engine_self_us_per_slot", (layers.engine_s - layers.decide_s) / slots * 1e6);
  result.set("scenario.materialize_s", median(layers.materialize_s));
  result.set("sweep.artifact_hit_frac",
             static_cast<double>(layers.artifact_hits) /
                 static_cast<double>(std::max<std::uint64_t>(layers.artifact_lookups, 1)));
  result.set("sweep.engine_reuse_frac", reuses / std::max(reuses + builds, 1.0));
  result.set("parallel.worker_busy_frac", layers.busy_s / (workers * layers.run_s));
  result.set("parallel.worker_imbalance",
             layers.imbalance_sum / static_cast<double>(layers.rounds));
  // Materialization runs before the workers start; afterwards the legs'
  // engine phases cover the workers' time.
  result.set("layers.attributed_frac",
             (materialize_total + layers.engine_s / workers) / layers.run_s);
  result.set("tracing_overhead_frac", plain.slots_per_s() * (layers.run_s / slots) - 1.0);
  return result;
}

}  // namespace perfbench
