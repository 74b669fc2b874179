#include "common/experiment.h"

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <utility>

#include "obs/tracing_inspector.h"
#include "parallel/sim_runner.h"
#include "util/ascii_chart.h"
#include "util/csv.h"
#include "util/svg_chart.h"

namespace grefar::bench {

void add_common_options(CliParser& cli, const std::string& default_horizon) {
  cli.add_option("horizon", default_horizon, "simulated hours");
  cli.add_option("seed", "42", "scenario seed (all randomness derives from it)");
  cli.add_option("csv-dir", "", "directory to drop raw series CSVs into");
  cli.add_option("svg-dir", "", "directory to drop SVG renderings into");
  cli.add_option("chart-width", "72", "ASCII chart width in columns");
  cli.add_option("jobs", "0",
                 "parallel simulation runs (0 = all hardware threads, 1 = serial)");
  cli.add_option("audit", "auto",
                 "per-slot invariant auditing: auto|off|throw|record "
                 "(auto = throw in Debug builds, off in Release)");
  cli.add_option("trace", "",
                 "write structured per-slot JSONL records to this path "
                 "(traces leg 0 of a sweep)");
  cli.add_flag("counters", "collect solver/engine counters; print JSON at exit");
  cli.add_flag("profile", "collect per-phase wall times; print table at exit");
}

ObsSession::ObsSession(const CliParser& cli) {
  const std::string trace_path = cli.get_string("trace");
  if (!trace_path.empty()) {
    obs::TraceSink::Options options;
    options.path = trace_path;
    sink_ = std::make_shared<obs::TraceSink>(std::move(options));
  }
  if (cli.get_flag("counters")) {
    counters_ = std::make_unique<obs::CounterRegistry>();
    counters_scope_.emplace(counters_.get());
  }
  if (cli.get_flag("profile")) {
    profile_ = std::make_unique<obs::ProfileRegistry>();
    profile_scope_.emplace(profile_.get());
  }
}

ObsSession::~ObsSession() { finish(); }

void ObsSession::attach_tracer(SimulationEngine& engine) const {
  if (sink_ == nullptr) return;
  auto tracer = std::make_shared<obs::TracingInspector>(sink_);
  if (engine.inspector() != nullptr) {
    // Keep the already-attached inspector (the invariant auditor) running;
    // it sees each record before the tracer does.
    engine.set_inspector(std::make_shared<obs::TeeInspector>(
        std::vector<std::shared_ptr<SlotInspector>>{engine.shared_inspector(),
                                                    std::move(tracer)}));
  } else {
    engine.set_inspector(std::move(tracer));
  }
}

void ObsSession::finish() {
  if (finished_) return;
  finished_ = true;
  // Deactivate before printing so the reports never observe themselves.
  counters_scope_.reset();
  profile_scope_.reset();
  if (counters_ != nullptr) {
    std::cout << "\n-- counters (--counters) --\n"
              << counters_->dump().dump(2) << "\n";
  }
  if (profile_ != nullptr) {
    std::cout << "\n-- profile (--profile) --\n" << profile_->summary_table();
  }
  if (sink_ != nullptr) {
    sink_->flush();
    std::cout << "\ntrace: wrote " << sink_->records_written()
              << " slot records to " << sink_->path() << "\n";
  }
}

std::size_t jobs_from_cli(const CliParser& cli) {
  int jobs = cli.get_int("jobs");
  return jobs <= 0 ? 0 : static_cast<std::size_t>(jobs);
}

AuditMode audit_from_cli(const CliParser& cli) {
  const std::string mode = cli.get_string("audit");
  if (mode == "auto") return AuditMode::kAuto;
  if (mode == "off") return AuditMode::kOff;
  if (mode == "throw") return AuditMode::kThrow;
  if (mode == "record") return AuditMode::kRecord;
  exit_usage_error(cli, "--audit must be auto|off|throw|record, got '" + mode + "'");
}

SweepResult run_sweep(
    std::size_t count, std::int64_t horizon, std::size_t jobs,
    const std::function<std::unique_ptr<SimulationEngine>(std::size_t)>& make_engine,
    const ObsSession* obs) {
  SweepResult result;
  result.engines.resize(count);
  result.leg_ms.resize(count, 0.0);
  SimRunner(jobs).for_each_index(count, [&](std::size_t leg) {
    auto start = std::chrono::steady_clock::now();
    result.engines[leg] = make_engine(leg);
    if (leg == 0 && obs != nullptr) obs->attach_tracer(*result.engines[leg]);
    result.engines[leg]->run(horizon);
    result.leg_ms[leg] = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  });
  return result;
}

std::vector<sweep::SweepLegResult> run_sweep_spec(const sweep::SweepSpec& spec,
                                                  std::size_t jobs, AuditMode audit,
                                                  const ObsSession* obs) {
  sweep::SweepOptions options;
  options.jobs = jobs;
  options.audit = audit;
  sweep::SweepEngine engine(options);
  return engine.run_collect(
      spec, [obs](std::size_t leg, SimulationEngine& leg_engine) {
        if (leg == 0 && obs != nullptr) obs->attach_tracer(leg_engine);
      });
}

void exit_usage_error(const CliParser& cli, const std::string& message) {
  std::cerr << "error: " << message << "\n\n" << cli.usage();
  std::exit(1);
}

void parse_or_exit(CliParser& cli, int argc, char** argv) {
  auto status = cli.parse(argc, argv);
  if (!status.ok()) {
    if (status.error().message == "help") std::exit(0);
    exit_usage_error(cli, status.error().message);
  }
  // Every common-options binary simulates at least one slot; a zero or
  // negative horizon would only trip a contract check deep in a model.
  if (cli.has_option("horizon")) positive_int_or_exit(cli, "horizon");
}

std::int64_t positive_int_or_exit(const CliParser& cli, const std::string& name) {
  const std::int64_t value = cli.get_int(name);
  if (value < 1) {
    exit_usage_error(cli, "--" + name + " must be >= 1, got " + cli.get_string(name));
  }
  return value;
}

std::string render_chart(const std::string& title, const std::string& y_label,
                         std::vector<TimeSeries> series, std::int64_t horizon) {
  AsciiChart chart(72, 16);
  chart.set_title(title);
  chart.set_y_label(y_label);
  chart.set_x_label("time (hours)");
  chart.set_x_range(0, static_cast<double>(horizon));
  for (auto& s : series) {
    chart.add_series({s.name(), s.values()});
  }
  return chart.render();
}

void maybe_write_csv(const std::string& csv_dir, const std::string& name,
                     const std::vector<TimeSeries>& series) {
  if (csv_dir.empty()) return;
  std::vector<const TimeSeries*> ptrs;
  ptrs.reserve(series.size());
  for (const auto& s : series) ptrs.push_back(&s);
  std::string path = csv_dir + "/" + name + ".csv";
  auto status = write_file(path, time_series_to_csv(ptrs));
  if (!status.ok()) {
    std::cerr << "warning: " << status.error().message << "\n";
  } else {
    std::cout << "  wrote " << path << "\n";
  }
}

void maybe_write_svg(const std::string& svg_dir, const std::string& name,
                     const std::string& title, const std::string& y_label,
                     const std::vector<TimeSeries>& series, std::int64_t horizon) {
  if (svg_dir.empty()) return;
  SvgChart chart;
  chart.set_title(title);
  chart.set_y_label(y_label);
  chart.set_x_label("time (hours)");
  chart.set_x_range(0, static_cast<double>(horizon));
  for (const auto& s : series) chart.add_series(s.name(), s.values());
  std::string path = svg_dir + "/" + name + ".svg";
  auto status = write_file(path, chart.render());
  if (!status.ok()) {
    std::cerr << "warning: " << status.error().message << "\n";
  } else {
    std::cout << "  wrote " << path << "\n";
  }
}

TimeSeries named(TimeSeries series, std::string name) {
  series.set_name(std::move(name));
  return series;
}

void print_header(const std::string& experiment, const std::string& paper_ref,
                  std::uint64_t seed, std::int64_t horizon) {
  std::cout << "== " << experiment << " ==\n"
            << "reproduces: " << paper_ref << "\n"
            << "seed " << seed << ", horizon " << horizon << " h\n\n";
}

}  // namespace grefar::bench
