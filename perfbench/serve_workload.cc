// serve: a generated trace replayed through ServiceLoop with default
// ServiceLoopOptions, the JSONL slot log on (a TracingInspector writing
// into the scratch directory) and no auditor. Closed loop, one trace in
// flight, run as fast as the program goes.
//
// The trace is the serve run of ROADMAP.md: kSlots = 6000 slots from the
// scenario seed --seed. At about 20 KB of slot log per slot the
// TraceSink ring (256 records) is full after the first 256 slots, so
// nearly all of a replay runs in the ring's steady state. A round builds
// a fresh loop over the trace and replays it to the end; later rounds
// must reproduce the first bitwise.
#include <sched.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/grefar.h"
#include "harness.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "obs/trace_sink.h"
#include "obs/tracing_inspector.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"
#include "serve/service_loop.h"

namespace perfbench {

namespace {

using namespace grefar;

// The serve shape of ROADMAP.md: 6 DCs x 64 job types, V = 4, beta = 0.5
// with the projected-gradient per-slot solver.
constexpr std::size_t kDcs = 6;
constexpr std::size_t kTypes = 64;
constexpr double kV = 4.0;
constexpr double kBeta = 0.5;
constexpr std::int64_t kSlots = 6000;
constexpr std::int64_t kTinySlots = 40;
/// Set-up-only passes per run, on top of one set-up per replay.
constexpr int kSetUps = 24;

/// Where the pipeline's stages run. ServiceLoop solves on the calling
/// thread and starts its ingest and flush workers from it, so they inherit
/// its CPU mask. Left to the kernel, the flush stage (the slot log, the
/// busiest stage) is at times woken onto the solve thread's CPU and the
/// two share it for seconds, which moved serve throughput by a third
/// between identical replays on a shared 4-CPU virtual machine. So the
/// caller narrows its mask to the first two CPUs before run() (solve and
/// ingest share them; ingest is light) and the flush stage moves itself to
/// the third on its first slot.
class StagePlacement {
 public:
  StagePlacement() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
    if (cpus_.size() < 3) cpus_.clear();
  }

  /// Narrows the calling thread to the solve CPUs; restore() undoes it.
  void place_solve() const { pin({0, 1}); }
  void place_flush() const { pin({2}); }
  void restore() const {
    std::vector<std::size_t> all(cpus_.size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    pin(all);
  }
  std::string describe() const {
    if (cpus_.empty()) return "stages not placed (fewer than 3 CPUs)";
    return "solve+ingest on CPUs " + std::to_string(cpus_[0]) + "," +
           std::to_string(cpus_[1]) + ", flush on CPU " + std::to_string(cpus_[2]);
  }

 private:
  void pin(const std::vector<std::size_t>& which) const {
    if (cpus_.empty()) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (std::size_t i : which) CPU_SET(cpus_[i], &set);
    sched_setaffinity(0, sizeof(set), &set);  // 0: the calling thread
  }

  std::vector<int> cpus_;
};

/// The one-clock-read flush inspector, attached after the slot log: the
/// time at which each slot finished its flush stage. On the last slot it
/// also keeps the post-slot queue contents for the conservation check.
class FlushClock final : public SlotInspector {
 public:
  FlushClock(std::int64_t slots, std::shared_ptr<const ClusterConfig> config,
             const StagePlacement& placement)
      : last_slot_(slots - 1), config_(std::move(config)), placement_(placement) {
    done_.reserve(static_cast<std::size_t>(slots));
  }

  void inspect(const SlotRecord& record) override {
    done_.push_back(Clock::now());
    if (done_.size() == 1) placement_.place_flush();
    if (record.slot == last_slot_) snapshot(record);
  }

  const std::vector<Clock::time_point>& done() const { return done_; }
  const QueueSnapshot& queued() const { return queued_; }

 private:
  void snapshot(const SlotRecord& record) {
    queued_ = {};
    const auto& types = config_->job_types;
    for (std::size_t j = 0; j < types.size(); ++j) {
      double jobs = (*record.central_after)[j];
      for (std::size_t i = 0; i < record.dc_after->rows(); ++i) {
        jobs += (*record.dc_after)(i, j);
      }
      queued_.jobs += jobs;
      queued_.work += jobs * types[j].work;
    }
  }

  std::int64_t last_slot_;
  std::shared_ptr<const ClusterConfig> config_;
  const StagePlacement& placement_;
  std::vector<Clock::time_point> done_;
  QueueSnapshot queued_;
};

struct Trace {
  std::uint64_t seed = 0;
  std::string jobs_path;
  std::string prices_path;
  Reference reference;
};

/// Per-layer observations of the traced phase, summed over its replays.
struct Layers {
  std::int64_t slots = 0;
  double run_s = 0.0;
  std::vector<double> build_s;  // make_serve_scenario share of set-up
  std::vector<double> decide_us;
  double decide_s = 0.0;
  double active_frac_sum = 0.0;
  std::vector<double> log_us;
  double log_s = 0.0;
  double flush_s = 0.0;
  double log_bytes = 0.0;
  std::uint64_t stalls = 0;
  std::uint64_t blocks = 0;
  std::size_t flush_high_water = 0;
  obs::CounterRegistry counters;
  obs::ProfileRegistry profile;
};

/// Replaces the price of the first row of `slot` with -1 (self-test fault).
void inject_bad_price(const std::string& path, std::int64_t slot) {
  std::ifstream in(path);
  std::ostringstream out;
  std::string line;
  bool done = false;
  const std::string prefix = std::to_string(slot) + ",";
  while (std::getline(in, line)) {
    if (!done && line.rfind(prefix, 0) == 0) {
      line = line.substr(0, line.rfind(',')) + ",-1";
      done = true;
    }
    out << line << "\n";
  }
  in.close();
  std::ofstream(path, std::ios::trunc) << out.str();
}

class ServeWorkload {
 public:
  explicit ServeWorkload(const Options& options)
      : options_(options),
        slots_(options.tiny ? kTinySlots : kSlots),
        log_path_(options.scratch_dir + "/slots.jsonl") {
    trace_.seed = options.seed;
  }

  /// Writes the trace before any timing starts: trace generation is the
  /// load generator, not the program.
  bool generate(RunResult& result) {
    const std::string dir = options_.scratch_dir + "/trace";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    PaperScenario generator = make_serve_scenario(kDcs, kTypes, trace_.seed);
    Status st = write_serve_traces(generator, slots_, dir, trace_.jobs_path,
                                   trace_.prices_path);
    if (ec || !st.ok()) {
      result.attempted += slots_;
      result.fail("trace generation failed in " + dir, slots_);
      return false;
    }
    if (options_.inject == "bad_price") inject_bad_price(trace_.prices_path, slots_ / 2);
    return true;
  }

  /// One round: a fresh loop replays the whole trace. `layers` is non-null
  /// in the traced phase.
  void round(RoundStats& stats, RunResult& result, Layers* layers) {
    result.attempted += slots_;
    try {
      replay(stats, result, layers);
    } catch (const std::exception& e) {
      result.fail(std::string("serve replay threw: ") + e.what(), slots_);
    }
    placement_.restore();
    // The loop, and with it the sink, is gone here, so the log is flushed.
    // Removing it keeps the next replay's set-up from truncating ~100 MB.
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(log_path_, ec);
    if (layers != nullptr && !ec) layers->log_bytes += static_cast<double>(bytes);
    std::filesystem::remove(log_path_, ec);
  }

  /// Builds and drops one loop without replaying, so that setup_s is a
  /// median over many set-ups, not only the few a run's replays give. A
  /// set-up that throws is left to the replays to report.
  void set_up_only(RoundStats& stats) {
    try {
      const auto start = Clock::now();
      Setup setup = set_up(false);
      stats.add_setup(seconds_between(start, Clock::now()));
    } catch (const std::exception&) {
    }
    std::error_code ec;
    std::filesystem::remove(log_path_, ec);
  }

  std::int64_t slots() const { return slots_; }
  const Trace& trace() const { return trace_; }
  const StagePlacement& placement() const { return placement_; }

 private:
  /// Everything a replay builds before its first slot; the decorators are
  /// set only in the traced phase.
  struct Setup {
    double build_s = 0.0;  // make_serve_scenario share
    std::shared_ptr<const ClusterConfig> config;
    std::shared_ptr<TimedScheduler> timed_scheduler;
    std::shared_ptr<FlushClock> clock;
    std::shared_ptr<TimedInspector> timed_log, timed_clock;
    std::unique_ptr<ServiceLoop> loop;
  };

  Setup set_up(bool traced) {
    Setup s;
    const auto start = Clock::now();
    PaperScenario scenario = make_serve_scenario(kDcs, kTypes, trace_.seed);
    s.build_s = seconds_between(start, Clock::now());
    s.config = std::make_shared<const ClusterConfig>(scenario.config);
    std::shared_ptr<Scheduler> scheduler = std::make_shared<GreFarScheduler>(
        s.config, paper_grefar_params(kV, kBeta), PerSlotSolver::kProjectedGradient);
    if (traced) {
      s.timed_scheduler = std::make_shared<TimedScheduler>(scheduler);
      scheduler = s.timed_scheduler;
    }
    s.loop = std::make_unique<ServiceLoop>(
        s.config, scenario.availability, scheduler,
        std::make_unique<StreamingJobTraceSource>(trace_.jobs_path, kTypes),
        std::make_unique<StreamingPriceTraceSource>(trace_.prices_path, kDcs));
    obs::TraceSink::Options sink_options;
    sink_options.path = log_path_;
    std::shared_ptr<SlotInspector> slot_log = std::make_shared<obs::TracingInspector>(
        std::make_shared<obs::TraceSink>(sink_options));
    s.clock = std::make_shared<FlushClock>(slots_, s.config, placement_);
    if (traced) {
      s.timed_log = std::make_shared<TimedInspector>(slot_log);
      s.timed_clock = std::make_shared<TimedInspector>(s.clock);
      s.loop->add_flush_inspector(s.timed_log);
      s.loop->add_flush_inspector(s.timed_clock);
    } else {
      s.loop->add_flush_inspector(slot_log);
      s.loop->add_flush_inspector(s.clock);
    }
    return s;
  }

  void replay(RoundStats& stats, RunResult& result, Layers* layers) {
    const auto setup_start = Clock::now();
    Setup setup = set_up(layers != nullptr);
    ServiceLoop& loop = *setup.loop;
    const auto& clock = setup.clock;
    const auto& timed_scheduler = setup.timed_scheduler;
    const auto& timed_log = setup.timed_log;
    const auto& timed_clock = setup.timed_clock;
    const double build_s = setup.build_s;
    const auto run_start = Clock::now();
    const double setup_s = seconds_between(setup_start, run_start);
    placement_.place_solve();

    Result<ServiceStats> run = [&] {
      if (layers == nullptr) return loop.run();
      obs::CountersScope counters(&layers->counters);
      obs::ProfileScope profile(&layers->profile);
      return loop.run();
    }();
    const double run_s = seconds_between(run_start, Clock::now());
    stats.add_setup(setup_s);

    if (!run.ok()) {
      result.fail("serve loop error: " + run.error().message,
                  slots_ - loop.slots_processed());
      return;
    }
    const std::string why = check_outputs(loop.metrics(), slots_, kBeta, clock->queued());
    if (!why.empty()) {
      result.fail("serve output check: " + why, slots_);
      return;
    }
    if (!trace_.reference.match(fnv_series(loop.metrics()),
                                average_cost(loop.metrics(), kBeta),
                                loop.metrics().mean_delay())) {
      result.fail("serve replay is not deterministic: fingerprint changed", slots_);
      return;
    }
    std::vector<double> slot_ms;
    slot_ms.reserve(clock->done().size());
    auto prev = run_start;
    for (const auto& t : clock->done()) {
      slot_ms.push_back(seconds_between(prev, t) * 1e3);
      prev = t;
    }
    stats.add_round(slot_ms, {run_s * 1e3}, static_cast<double>(slots_), run_s,
                    setup_s + run_s);

    if (layers != nullptr) {
      const ServiceStats& s = run.value();
      layers->slots += slots_;
      layers->run_s += run_s;
      layers->build_s.push_back(build_s);
      const auto& decide = timed_scheduler->decide_us();
      layers->decide_us.insert(layers->decide_us.end(), decide.begin(), decide.end());
      layers->decide_s += timed_scheduler->decide_total_s();
      layers->active_frac_sum +=
          timed_scheduler->mean_active_frac() * static_cast<double>(decide.size());
      const auto& log = timed_log->inspect_us();
      layers->log_us.insert(layers->log_us.end(), log.begin(), log.end());
      layers->log_s += timed_log->total_s();
      layers->flush_s += timed_log->total_s() + timed_clock->total_s();
      layers->stalls += s.ingest_stalls;
      layers->blocks += s.backpressure_blocks;
      layers->flush_high_water = std::max(layers->flush_high_water, s.flush_queue_high_water);
    }
  }

  const Options& options_;
  StagePlacement placement_;
  std::int64_t slots_;
  std::string log_path_;
  Trace trace_;
};

/// Standalone ingest pass: pull every slot of the trace through both
/// streaming sources. Returns seconds.
double time_ingest(const Trace& trace) {
  const auto start = Clock::now();
  StreamingJobTraceSource jobs(trace.jobs_path, kTypes);
  StreamingPriceTraceSource prices(trace.prices_path, kDcs);
  std::vector<std::int64_t> counts;
  std::vector<double> price_row;
  while (true) {
    auto j = jobs.next_slot_into(counts);
    auto p = prices.next_slot_into(price_row);
    if (!j.ok() || !p.ok() || !j.value() || !p.value()) break;
  }
  return seconds_between(start, Clock::now());
}

void report_layers(const ServeWorkload& workload, const Layers& layers,
                   const RoundStats& plain, RunResult& result) {
  const Trace& trace = workload.trace();
  const double ingest_s = time_ingest(trace);
  std::error_code ec;
  const double trace_bytes =
      static_cast<double>(std::filesystem::file_size(trace.jobs_path, ec) +
                          std::filesystem::file_size(trace.prices_path, ec));
  const double ingest_per_slot_s = ingest_s / static_cast<double>(workload.slots());

  // The engine's own profile phases, without engine.inspect: in serve mode
  // that phase is the flush handoff, which includes waiting on a full flush
  // queue, so it measures the flush stage rather than engine work.
  double engine_s = 0.0;
  for (const auto& [name, phase] : layers.profile.phases()) {
    if (name.rfind("engine.", 0) == 0 && name != "engine.inspect") {
      engine_s += phase.total_ns * 1e-9;
    }
  }
  const double slots = static_cast<double>(layers.slots);
  const double wall = layers.run_s;
  const double pgd_solves = static_cast<double>(layers.counters.counter("pgd.solves"));
  const double pgd_iters = static_cast<double>(layers.counters.counter("pgd.iterations"));
  // The three pipeline stages overlap, so wall time follows the busiest.
  const double stage_busy = std::max({ingest_per_slot_s * slots, engine_s, layers.flush_s});

  result.set("trace.ingest_us_per_slot", ingest_per_slot_s * 1e6);
  result.set("trace.ingest_mb_per_s", trace_bytes / 1e6 / ingest_s);
  result.set("core.decide_us_p50", median(layers.decide_us));
  result.set("core.decide_us_p99", quantile(layers.decide_us, 0.99));
  result.set("core.decide_frac", layers.decide_s / wall);
  result.set("core.pgd_iters_per_solve", pgd_solves > 0 ? pgd_iters / pgd_solves : 0.0);
  result.set("core.active_types_frac",
             layers.active_frac_sum / static_cast<double>(layers.decide_us.size()));
  // ServiceLoop drives step() itself, so the engine's time per slot comes
  // from its own profile phases (a mean, not a per-slot median).
  result.set("sim.step_us_p50", engine_s / slots * 1e6);
  result.set("sim.engine_self_us_per_slot", (engine_s - layers.decide_s) / slots * 1e6);
  result.set("obs.slot_log_us_p50", median(layers.log_us));
  result.set("obs.slot_log_us_p99", quantile(layers.log_us, 0.99));
  result.set("obs.slot_log_frac", layers.log_s / wall);
  result.set("obs.slot_log_bytes_per_slot", layers.log_bytes / slots);
  result.set("serve.flush_busy_frac", layers.flush_s / wall);
  result.set("serve.ingest_stalls_per_slot", static_cast<double>(layers.stalls) / slots);
  result.set("serve.backpressure_blocks_per_slot", static_cast<double>(layers.blocks) / slots);
  result.set("serve.flush_queue_high_water", static_cast<double>(layers.flush_high_water));
  result.set("scenario.build_s", median(layers.build_s));
  result.set("layers.attributed_frac", stage_busy / wall);
  result.set("tracing_overhead_frac", plain.slots_per_s() * (wall / slots) - 1.0);
}

}  // namespace

RunResult run_serve(const Options& options) {
  RunResult result;
  ServeWorkload workload(options);
  if (!workload.generate(result)) return result;
  result.notes.push_back("serve: " + std::to_string(kDcs) + " DCs x " +
                         std::to_string(kTypes) + " types, V=4, beta=0.5 (PGD), a " +
                         std::to_string(workload.slots()) +
                         "-slot trace, pipelined ServiceLoop, slot log on");
  result.notes.push_back("serve: " + workload.placement().describe());

  RoundStats plain;
  for (int i = 0; i < kSetUps; ++i) workload.set_up_only(plain);
  repeat_rounds(options.trace ? options.seconds / 2 : options.seconds,
                [&] { workload.round(plain, result, nullptr); });
  result.notes.push_back("serve: " + std::to_string(plain.rounds()) + " replays");
  if (!options.trace) {
    report_outputs({workload.trace().reference}, result);
    plain.report(result);
    return result;
  }

  Layers layers;
  RoundStats traced;
  repeat_rounds(options.seconds / 2, [&] { workload.round(traced, result, &layers); });
  result.fingerprint = fingerprint_of({workload.trace().reference});
  report_layers(workload, layers, plain, result);
  return result;
}

}  // namespace perfbench
