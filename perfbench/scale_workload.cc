// scale_1m: the default million-account scenario (10^6 accounts and job
// types, 2 DCs, 1000 Zipf draws per slot) on the sparse production path —
// PGD, V = 2, beta = 0.5, no inspector. The benchmark drives
// SimulationEngine::step() itself, so every step is timed on its own.
//
// A leg builds the scenario for one seed and steps a fresh engine kSteps
// times; a round runs one leg per scenario seed (kSeeds of them, derived
// from --seed), one at a time, so peak RSS is one live stack. Later rounds
// must reproduce the first bitwise.
//
// Set-up ends after the first step: that step also allocates the engine's
// and the solver's O(J) per-slot scratch (about three steady steps' worth
// at J = 10^6), a one-off per engine like construction. Moving work
// between construction and the first step therefore leaves setup_s
// unchanged, and the slot latencies describe the steady state.
#include <memory>
#include <string>
#include <vector>

#include "core/grefar.h"
#include "harness.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "scenario/large_scale.h"
#include "sim/engine.h"

namespace perfbench {

namespace {

using namespace grefar;

constexpr double kV = 2.0;
constexpr double kBeta = 0.5;
constexpr std::size_t kSeeds = 2;
constexpr std::int64_t kSteps = 12;
constexpr std::int64_t kTinySteps = 5;

struct Layers {
  std::int64_t slots = 0;
  double step_s = 0.0;
  std::vector<double> build_s;
  std::vector<double> step_us;
  std::vector<double> decide_us;
  double decide_s = 0.0;
  double active_frac_sum = 0.0;
  obs::CounterRegistry counters;
  obs::ProfileRegistry profile;
};

class ScaleWorkload {
 public:
  explicit ScaleWorkload(const Options& options)
      : options_(options),
        steps_(options.tiny ? kTinySteps : kSteps),
        references_(options.tiny ? 1 : kSeeds) {}

  void round(RoundStats& stats, RunResult& result, Layers* layers) {
    std::vector<double> step_ms, leg_ms;
    double steps = 0.0, busy_s = 0.0, wall_s = 0.0;
    for (std::size_t k = 0; k < references_.size(); ++k) {
      result.attempted += steps_;
      try {
        LargeScaleOptions scenario_options;
        scenario_options.seed = options_.seed * kSeeds + k;
        if (options_.tiny) scenario_options.branching = {10, 10, 10};

        const auto setup_start = Clock::now();
        LargeScaleScenario scenario = make_large_scale_scenario(scenario_options);
        const double build_s = seconds_between(setup_start, Clock::now());
        std::shared_ptr<Scheduler> scheduler = std::make_shared<GreFarScheduler>(
            scenario.config, large_scale_grefar_params(kV, kBeta),
            PerSlotSolver::kProjectedGradient);
        std::shared_ptr<TimedScheduler> timed;
        if (layers != nullptr) {
          timed = std::make_shared<TimedScheduler>(scheduler);
          scheduler = timed;
        }
        SimulationEngine engine(scenario.config, scenario.prices, scenario.availability,
                                scenario.arrivals, scheduler);
        engine.step();
        if (timed != nullptr) timed->clear();
        const auto steady_start = Clock::now();
        const double setup_s = seconds_between(setup_start, steady_start);
        stats.add_setup(setup_s);

        std::vector<double> leg_steps;
        {
          obs::CountersScope counters(layers != nullptr ? &layers->counters : nullptr);
          obs::ProfileScope profile(layers != nullptr ? &layers->profile : nullptr);
          for (std::int64_t t = 1; t < steps_; ++t) {
            const auto t0 = Clock::now();
            engine.step();
            leg_steps.push_back(seconds_between(t0, Clock::now()) * 1e3);
          }
        }
        const double steady_s = seconds_between(steady_start, Clock::now());

        const SimMetrics& metrics = engine.metrics();
        const std::string why = check_outputs(metrics, steps_, kBeta, queued_in(engine));
        if (!why.empty()) {
          result.fail("scale_1m output check: " + why, steps_);
          continue;
        }
        if (!references_[k].match(fnv_series(metrics), average_cost(metrics, kBeta),
                                  metrics.mean_delay())) {
          result.fail("scale_1m leg is not deterministic: fingerprint changed", steps_);
          continue;
        }
        step_ms.insert(step_ms.end(), leg_steps.begin(), leg_steps.end());
        leg_ms.push_back((setup_s + steady_s) * 1e3);
        steps += static_cast<double>(leg_steps.size());
        busy_s += steady_s;
        wall_s += setup_s + steady_s;
        if (layers != nullptr) {
          layers->slots += static_cast<std::int64_t>(leg_steps.size());
          layers->step_s += steady_s;
          layers->build_s.push_back(build_s);
          for (double ms : leg_steps) layers->step_us.push_back(ms * 1e3);
          const auto& decide = timed->decide_us();
          layers->decide_us.insert(layers->decide_us.end(), decide.begin(), decide.end());
          layers->decide_s += timed->decide_total_s();
          layers->active_frac_sum +=
              timed->mean_active_frac() * static_cast<double>(decide.size());
        }
      } catch (const std::exception& e) {
        result.fail(std::string("scale_1m leg threw: ") + e.what(), steps_);
      }
    }
    if (!leg_ms.empty()) stats.add_round(step_ms, leg_ms, steps, busy_s, wall_s);
  }

  const std::vector<Reference>& references() const { return references_; }
  std::int64_t steps() const { return steps_; }

 private:
  const Options& options_;
  std::int64_t steps_;
  std::vector<Reference> references_;
};

void report_layers(const Layers& layers, const RoundStats& plain, RunResult& result) {
  double engine_s = 0.0;
  for (const auto& [name, phase] : layers.profile.phases()) {
    if (name.rfind("engine.", 0) == 0) engine_s += phase.total_ns * 1e-9;
  }
  const double slots = static_cast<double>(layers.slots);
  const double pgd_solves = static_cast<double>(layers.counters.counter("pgd.solves"));
  const double pgd_iters = static_cast<double>(layers.counters.counter("pgd.iterations"));

  result.set("core.decide_us_p50", median(layers.decide_us));
  result.set("core.decide_us_p99", quantile(layers.decide_us, 0.99));
  result.set("core.decide_frac", layers.decide_s / layers.step_s);
  result.set("core.pgd_iters_per_solve", pgd_solves > 0 ? pgd_iters / pgd_solves : 0.0);
  result.set("core.active_types_frac",
             layers.active_frac_sum / static_cast<double>(layers.decide_us.size()));
  result.set("sim.step_us_p50", median(layers.step_us));
  result.set("sim.engine_self_us_per_slot", (layers.step_s - layers.decide_s) / slots * 1e6);
  result.set("scenario.build_s", median(layers.build_s));
  // Share of the stepping wall the engine's own profile phases cover.
  result.set("layers.attributed_frac", engine_s / layers.step_s);
  result.set("tracing_overhead_frac", plain.slots_per_s() * (layers.step_s / slots) - 1.0);
}

}  // namespace

RunResult run_scale_1m(const Options& options) {
  RunResult result;
  ScaleWorkload workload(options);
  result.notes.push_back(std::string("scale_1m: ") +
                         (options.tiny ? "10x10x10" : "10x100x1000") +
                         " account tree, 2 DCs, 1000 Zipf draws/slot, V=2, beta=0.5 (PGD), " +
                         std::to_string(workload.references().size()) + " seeds x " +
                         std::to_string(workload.steps()) + " steps per round");
  RoundStats plain;
  repeat_rounds(options.trace ? options.seconds / 2 : options.seconds,
                [&] { workload.round(plain, result, nullptr); });
  result.notes.push_back("scale_1m: " + std::to_string(plain.rounds()) + " rounds");
  if (!options.trace) {
    report_outputs(workload.references(), result);
    plain.report(result);
    return result;
  }

  Layers layers;
  RoundStats traced;
  repeat_rounds(options.seconds / 2, [&] { workload.round(traced, result, &layers); });
  result.fingerprint = fingerprint_of(workload.references());
  report_layers(layers, plain, result);
  return result;
}

}  // namespace perfbench
