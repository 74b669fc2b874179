// Serve-mode latency/throughput bench (DESIGN.md §14): generates an
// ingest-bound scenario trace on disk (streamed, so generation itself stays
// O(1) in memory), then replays it once through the ServiceLoop and reports
// slots/sec, p50/p99/max slot latency (stage + step + flush inspectors) and
// getrusage peak RSS. The process exits nonzero when the run fails or the
// optional --max-rss-mb / --p99-slo-ms gates are violated — which is how
// the CI serve smoke asserts bounded memory and the latency SLO on a trace
// ~10x the ingest buffer. Bit-identity to the batch engine is pinned by
// tests/serve/service_loop_test.cc.
#include <sys/resource.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <memory>

#include "check/invariant_auditor.h"
#include "common/experiment.h"
#include "core/grefar.h"
#include "obs/trace_sink.h"
#include "obs/tracing_inspector.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"
#include "serve/service_loop.h"

namespace {

using namespace grefar;

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

void print_stats(const ServiceStats& stats) {
  std::cout << "serve: " << stats.slots << " slots in " << stats.wall_seconds
            << " s (" << stats.slots_per_second << " slots/s), latency p50 "
            << stats.latency_p50_ms << " ms, p99 " << stats.latency_p99_ms
            << " ms, max " << stats.latency_max_ms << " ms, peak RSS "
            << peak_rss_mb() << " MB\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grefar::bench;

  CliParser cli("serve_latency",
                "serve-mode bench: the ServiceLoop over a streamed on-disk "
                "trace, with RSS and p99 latency gates");
  add_common_options(cli, /*default_horizon=*/"4000");
  cli.add_option("dcs", "8", "data centers in the serve scenario");
  cli.add_option("types", "96", "job types in the serve scenario");
  cli.add_option("V", "4.0", "GreFar cost-delay parameter");
  cli.add_option("beta", "0.5", "GreFar energy-fairness parameter");
  cli.add_option("trace-dir", "",
                 "directory for the generated trace CSVs (default: a fresh "
                 "directory under /tmp; reused files are overwritten)");
  cli.add_option("slot-log", "on",
                 "on | off: persist every slot as JSONL via a flush "
                 "TracingInspector (the serve deployment's slot record log)");
  cli.add_option("max-rss-mb", "0",
                 "fail if getrusage peak RSS exceeds this (0 = no gate)");
  cli.add_option("p99-slo-ms", "0",
                 "fail if p99 slot latency exceeds this (0 = no gate)");
  parse_or_exit(cli, argc, argv);

  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto num_dcs = static_cast<std::size_t>(positive_int_or_exit(cli, "dcs"));
  const auto num_types = static_cast<std::size_t>(positive_int_or_exit(cli, "types"));
  AuditMode audit = audit_from_cli(cli);
  if (audit == AuditMode::kAuto) {
#ifdef NDEBUG
    audit = AuditMode::kOff;
#else
    audit = AuditMode::kThrow;
#endif
  }

  ObsSession obs(cli);
  print_header("Serve-mode latency", "DESIGN.md §14 serve SLO", seed,
               horizon);

  PaperScenario scenario = make_serve_scenario(num_dcs, num_types, seed);
  auto config = std::make_shared<const ClusterConfig>(scenario.config);
  std::cout << "scenario: " << num_dcs << " DCs, " << num_types
            << " job types, 4 accounts, horizon " << horizon << "\n";

  std::string dir = cli.get_string("trace-dir");
  if (dir.empty()) dir = "/tmp/grefar_serve_latency";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "cannot create trace dir " << dir << ": " << ec.message() << "\n";
    return 1;
  }
  std::string jobs_path, prices_path;
  const auto gen_start = std::chrono::steady_clock::now();
  if (Status st = write_serve_traces(scenario, horizon, dir, jobs_path, prices_path);
      !st.ok()) {
    std::cerr << "trace generation failed: " << st.error().message << "\n";
    return 1;
  }
  const double gen_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - gen_start)
                            .count();
  std::cout << "traces: " << jobs_path << " ("
            << std::filesystem::file_size(jobs_path) / 1024 << " KiB), "
            << prices_path << " ("
            << std::filesystem::file_size(prices_path) / 1024
            << " KiB), generated in " << gen_ms << " ms\n";

  GreFarParams params = paper_grefar_params(cli.get_double("V"), cli.get_double("beta"));
  const bool slot_log = cli.get_string("slot-log") == "on";

  auto scheduler = std::make_shared<GreFarScheduler>(config, params);
  auto jobs = std::make_unique<StreamingJobTraceSource>(jobs_path, num_types);
  auto prices = std::make_unique<StreamingPriceTraceSource>(prices_path, num_dcs);
  ServiceLoop loop(config, scenario.availability, std::move(scheduler),
                   std::move(jobs), std::move(prices));
  if (audit != AuditMode::kOff) {
    InvariantAuditorOptions audit_opts;
    audit_opts.throw_on_violation = audit == AuditMode::kThrow;
    loop.add_flush_inspector(
        std::make_shared<InvariantAuditor>(*config, audit_opts));
  }
  if (slot_log) {
    obs::TraceSink::Options sink_opts;
    sink_opts.path = dir + "/slots.jsonl";
    loop.add_flush_inspector(std::make_shared<obs::TracingInspector>(
        std::make_shared<obs::TraceSink>(sink_opts)));
  }
  auto run = loop.run();
  if (!run.ok()) {
    std::cerr << "serve run failed: " << run.error().message << "\n";
    return 1;
  }
  const ServiceStats& stats = run.value();
  print_stats(stats);

  const double rss = peak_rss_mb();
  const double max_rss = cli.get_double("max-rss-mb");
  if (max_rss > 0.0 && rss > max_rss) {
    std::cout << "SERVE BENCH FAILED: peak RSS " << rss << " MB exceeds gate "
              << max_rss << " MB\n";
    return 1;
  }
  const double slo = cli.get_double("p99-slo-ms");
  if (slo > 0.0 && stats.latency_p99_ms > slo) {
    std::cout << "SERVE BENCH FAILED: p99 " << stats.latency_p99_ms
              << " ms exceeds SLO " << slo << " ms\n";
    return 1;
  }
  std::cout << "serve bench OK\n";
  obs.finish();
  return 0;
}
