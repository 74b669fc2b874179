// Fig. 1 — "Three-day trace of electricity prices and total work of arrived
// jobs".
//
// Top panel: hourly electricity price per data center over 72 h.
// Bottom panel: total work of arrived jobs per organization over 72 h,
// showing the diurnal, bursty, non-stationary pattern of the Cosmos-like
// generator (work roughly in the paper's 0-100 range).
#include <iostream>
#include <memory>

#include "common/experiment.h"
#include "core/grefar.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("fig1_trace", "reproduce Fig. 1 (3-day price and work trace)");
  add_common_options(cli, /*default_horizon=*/"72");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto csv_dir = cli.get_string("csv-dir");
  const auto svg_dir = cli.get_string("svg-dir");
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Fig. 1: three-day trace", "Ren, He, Xu (ICDCS'12), Fig. 1", seed,
               horizon);

  PaperScenario scenario = make_paper_scenario(seed);

  // -- prices ---------------------------------------------------------------
  std::vector<TimeSeries> prices;
  for (std::size_t dc = 0; dc < 3; ++dc) {
    TimeSeries s("DC #" + std::to_string(dc + 1));
    for (std::int64_t t = 0; t < horizon; ++t) s.add(scenario.prices->price(dc, t));
    prices.push_back(std::move(s));
  }
  std::cout << render_chart("Electricity price", "price", prices, horizon) << "\n";

  // -- per-organization arrived work -----------------------------------------
  std::vector<TimeSeries> work;
  for (std::size_t m = 0; m < scenario.config.num_accounts(); ++m) {
    work.emplace_back("Organization #" + std::to_string(m + 1));
  }
  TimeSeries total("total work");
  for (std::int64_t t = 0; t < horizon; ++t) {
    auto counts = scenario.arrivals->arrivals(t);
    std::vector<double> per_org(scenario.config.num_accounts(), 0.0);
    for (std::size_t j = 0; j < counts.size(); ++j) {
      per_org[scenario.config.job_types[j].account] +=
          static_cast<double>(counts[j]) * scenario.config.job_types[j].work;
    }
    double sum = 0.0;
    for (std::size_t m = 0; m < per_org.size(); ++m) {
      work[m].add(per_org[m]);
      sum += per_org[m];
    }
    total.add(sum);
  }
  std::cout << render_chart("Total work of arrived jobs", "work", work, horizon)
            << "\n";
  std::cout << "mean total work/slot: " << format_fixed(total.mean(), 2)
            << "  (paper's Fig. 1 shows 0-100 with diurnal peaks)\n";

  maybe_write_csv(csv_dir, "fig1_prices", prices);
  maybe_write_csv(csv_dir, "fig1_work", work);
  maybe_write_svg(svg_dir, "fig1_prices", "Electricity price", "price", prices, horizon);
  maybe_write_svg(svg_dir, "fig1_work", "Total work of arrived jobs", "work", work,
                  horizon);

  // Fig. 1 itself only samples the input models; with any observability flag
  // set, additionally run the paper's GreFar reference configuration over the
  // same horizon so --trace/--counters/--profile have a simulation to watch.
  if (obs.any()) {
    std::cout << "\nrunning traced GreFar reference simulation (" << horizon
              << " slots)...\n";
    auto engine = make_scenario_engine(
        scenario,
        std::make_shared<GreFarScheduler>(scenario.config,
                                          paper_grefar_params(7.5, 0.0)),
        audit);
    obs.attach_tracer(*engine);
    engine->run(horizon);
  }
  obs.finish();
  return 0;
}
