// Fig. 3 — "GreFar: minimize energy cost with fairness consideration".
//
//  (a) running-average energy cost for beta = 0 vs beta = 100 (V = 7.5);
//  (b) running-average fairness score;
//  (c) running-average delay in DC #1.
//
// Expected shape (paper): beta = 100 lifts the fairness score substantially
// at a marginal energy-cost increase, and *reduces* delay (the fairness
// function rewards resource usage, so some work runs even at higher prices).
#include <iostream>
#include <memory>

#include "common/experiment.h"
#include "util/strings.h"
#include "core/grefar.h"
#include "stats/summary_table.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("fig3_fairness", "reproduce Fig. 3 (beta = 0 vs beta = 100)");
  add_common_options(cli);
  cli.add_option("V", "7.5", "cost-delay parameter");
  cli.add_option("beta", "0,100", "energy-fairness parameters to compare");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto csv_dir = cli.get_string("csv-dir");
  const auto svg_dir = cli.get_string("svg-dir");
  const double V = cli.get_double("V");
  const auto betas = cli.get_double_list("beta");
  const auto jobs = jobs_from_cli(cli);
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Fig. 3: impact of the energy-fairness parameter beta",
               "Ren, He, Xu (ICDCS'12), Fig. 3(a)-(c)", seed, horizon);

  // One leg per beta; each builds its own scenario (same seed => same traces).
  auto sweep = run_sweep(betas.size(), horizon, jobs, [&](std::size_t leg) {
    PaperScenario scenario = make_paper_scenario(seed);
    auto scheduler = std::make_shared<GreFarScheduler>(
        scenario.config, paper_grefar_params(V, betas[leg]));
    return make_scenario_engine(scenario, std::move(scheduler), audit);
  }, &obs);

  std::vector<TimeSeries> energy, fairness, delay_dc1;
  SummaryTable summary(
      {"beta", "avg energy cost", "avg fairness", "avg delay DC1", "overall delay"});

  for (std::size_t leg = 0; leg < betas.size(); ++leg) {
    const auto& m = sweep.engines[leg]->metrics();
    std::string label = "beta=" + format_fixed(betas[leg], 0);
    energy.push_back(named(m.average_energy_cost(), label));
    fairness.push_back(named(m.average_fairness(), label));
    delay_dc1.push_back(named(m.average_dc_delay(0), label));
    summary.add_row(label,
                    {m.final_average_energy_cost(), m.final_average_fairness(),
                     m.final_average_dc_delay(0), m.mean_delay()});
  }

  std::cout << render_chart("(a) Average energy cost (V=" + format_fixed(V, 1) + ")",
                            "cost", energy, horizon)
            << "\n"
            << render_chart("(b) Average fairness (0 is ideal)", "fairness", fairness,
                            horizon)
            << "\n"
            << render_chart("(c) Average delay in DC #1", "slots", delay_dc1, horizon)
            << "\n"
            << summary.render()
            << "\npaper shape: beta=100 achieves a much higher fairness score with a\n"
               "marginal energy increase, and lower delay as a side effect.\n";

  maybe_write_csv(csv_dir, "fig3a_energy", energy);
  maybe_write_csv(csv_dir, "fig3b_fairness", fairness);
  maybe_write_csv(csv_dir, "fig3c_delay_dc1", delay_dc1);
  maybe_write_svg(svg_dir, "fig3a_energy", "(a) Average energy cost", "cost", energy,
                  horizon);
  maybe_write_svg(svg_dir, "fig3b_fairness", "(b) Average fairness", "fairness",
                  fairness, horizon);
  maybe_write_svg(svg_dir, "fig3c_delay_dc1", "(c) Average delay in DC #1", "slots",
                  delay_dc1, horizon);
  obs.finish();
  return 0;
}
