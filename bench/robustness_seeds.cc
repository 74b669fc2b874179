// Robustness: the Fig. 4 comparison across independent seeds.
//
// Every other bench fixes seed 42; this one re-runs GreFar-vs-Always over
// many seeds (fresh prices, arrivals and availability each time) and reports
// the mean and standard deviation of the headline quantities — showing the
// reproduction's conclusions are not seed luck.
#include <iostream>
#include <memory>

#include "baselines/baselines.h"
#include "common/experiment.h"
#include "core/grefar.h"
#include "stats/running_stats.h"
#include "stats/summary_table.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("robustness_seeds", "Fig. 4 comparison across many seeds");
  add_common_options(cli, /*default_horizon=*/"800");
  cli.add_option("num-seeds", "10", "independent scenario seeds to run");
  cli.add_option("V", "7.5", "GreFar cost-delay parameter");
  cli.add_option("beta", "100", "GreFar energy-fairness parameter");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto base_seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto num_seeds = positive_int_or_exit(cli, "num-seeds");
  const double V = cli.get_double("V");
  const double beta = cli.get_double("beta");
  const auto jobs = jobs_from_cli(cli);
  const auto audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Robustness: GreFar vs Always across seeds",
               "Ren, He, Xu (ICDCS'12), Fig. 4 (multi-seed)", base_seed, horizon);

  // seeds x {GreFar, Always} as a SweepSpec cross product: legs of the same
  // seed share one materialized scenario instead of regenerating it, and the
  // per-worker engine arena is reused across all 2*num_seeds legs.
  sweep::SweepSpec spec;
  sweep::SweepAxis seed_axis{.name = "seed"};
  for (std::int64_t s = 0; s < num_seeds; ++s) {
    seed_axis.values.push_back(static_cast<double>(base_seed + static_cast<std::uint64_t>(s)));
  }
  spec.axes = {seed_axis, {.name = "policy", .labels = {"grefar", "always"}}};
  spec.horizon = horizon;
  auto leg_seed = [&](const sweep::SweepPoint& p) {
    return base_seed + static_cast<std::uint64_t>(p.index(0));
  };
  spec.scenario = [&](const sweep::SweepPoint& p) {
    return make_paper_scenario(leg_seed(p));
  };
  spec.plan = [&](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=" + std::to_string(leg_seed(p));
    if (p.index(1) == 0) {
      plan.grefar = sweep::GreFarLegSpec{paper_grefar_params(V, beta), {}};
    } else {
      plan.make_scheduler = [](const sweep::ScenarioArtifacts& art) {
        return std::make_shared<AlwaysScheduler>(*art.config);
      };
    }
    return plan;
  };
  auto sweep_results = run_sweep_spec(spec, jobs, audit, &obs);

  RunningStats saving_pct, grefar_cost, always_cost, grefar_delay, always_delay,
      fairness_delta;
  int grefar_wins = 0;
  for (std::int64_t s = 0; s < num_seeds; ++s) {
    const auto& grefar = sweep_results[static_cast<std::size_t>(s) * 2].metrics;
    const auto& always = sweep_results[static_cast<std::size_t>(s) * 2 + 1].metrics;
    double eg = grefar.final_average_energy_cost();
    double ea = always.final_average_energy_cost();
    grefar_cost.add(eg);
    always_cost.add(ea);
    saving_pct.add(100.0 * (ea - eg) / ea);
    grefar_delay.add(grefar.mean_delay());
    always_delay.add(always.mean_delay());
    fairness_delta.add(grefar.final_average_fairness() -
                       always.final_average_fairness());
    if (eg < ea) ++grefar_wins;
  }

  SummaryTable table({"quantity", "mean", "std", "min", "max"});
  auto row = [&](const std::string& label, const RunningStats& stats) {
    table.add_row(label, {stats.mean(), stats.stddev(), stats.min(), stats.max()});
  };
  row("GreFar energy cost", grefar_cost);
  row("Always energy cost", always_cost);
  row("energy saving %", saving_pct);
  row("GreFar delay", grefar_delay);
  row("Always delay", always_delay);
  row("fairness delta (G - A)", fairness_delta);
  std::cout << table.render() << "\nGreFar cheaper in " << grefar_wins << "/"
            << num_seeds << " seeds.\n"
            << "expected: the energy saving is large relative to its spread and\n"
               "GreFar wins in every seed; Always' delay is ~1 in all of them.\n";
  obs.finish();
  return 0;
}
