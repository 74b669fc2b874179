// Admission ablation (arXiv 1404.4865 / 1509.03699 vs the paper's
// admit-everything behavior): GreFar routes the overloaded valued scenario
// (scenario/admission_scenario.h) three times — admit-all, the deterministic
// value-density threshold, and the randomized log-uniform threshold — and
// compares the value each run actually realizes after decay, deadline
// abandonment and rejection.
//
// The scenario offers ~1.8x capacity, so admit-all must shed value through
// queueing decay and deadline expiry while the thresholds shed it at the
// door, keeping only work dense enough to be worth serving. The process
// exits nonzero unless BOTH threshold policies beat admit-all on realized
// value — the acceptance gate CI runs with --audit=throw.
//
// Determinism: everything printed to stdout is a pure function of
// (seed, horizon, V, beta) — wall-clock timings go to stderr — so CI can
// require bitwise-equal stdout at --jobs 1 vs --jobs N.
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/experiment.h"
#include "core/admission.h"
#include "core/grefar.h"
#include "scenario/admission_scenario.h"
#include "stats/summary_table.h"
#include "util/strings.h"

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("admission_ablation",
                "realized value: admit-all vs deterministic vs randomized "
                "admission thresholds");
  add_common_options(cli, /*default_horizon=*/"300");
  cli.add_option("V", "7.5", "GreFar cost-delay parameter");
  cli.add_option("beta", "10", "GreFar energy-fairness parameter");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const double V = cli.get_double("V");
  const double beta = cli.get_double("beta");
  const auto jobs = jobs_from_cli(cli);
  const AuditMode audit = audit_from_cli(cli);

  ObsSession obs(cli);

  print_header("Admission ablation: realized value under overload",
               "arXiv 1404.4865 / 1509.03699 admission stage vs admit-all",
               seed, horizon);
  std::cout << "scenario: overloaded valued 2-DC cluster, theta = "
            << format_fixed(admission_scenario_theta(), 2) << "\n\n";

  struct Leg {
    std::string label;
    AdmissionPolicyKind kind;
  };
  const std::vector<Leg> legs = {
      {"admit-all", AdmissionPolicyKind::kAdmitAll},
      {"threshold", AdmissionPolicyKind::kThreshold},
      {"randomized", AdmissionPolicyKind::kRandomized},
  };

  auto sweep = run_sweep(legs.size(), horizon, jobs, [&](std::size_t leg) {
    PaperScenario scenario = make_admission_scenario(seed, legs[leg].kind);
    auto scheduler = std::make_shared<GreFarScheduler>(
        scenario.config, paper_grefar_params(V, beta),
        PerSlotSolver::kProjectedGradient);
    return make_scenario_engine(scenario, std::move(scheduler), audit);
  }, &obs);

  SummaryTable table({"policy", "offered jobs", "admitted jobs",
                      "abandoned jobs", "realized value", "rejected value",
                      "abandoned value", "decay loss", "energy cost"});
  std::vector<double> realized(legs.size(), 0.0);
  for (std::size_t leg = 0; leg < legs.size(); ++leg) {
    const SimMetrics& m = sweep.engines[leg]->metrics();
    realized[leg] = m.total_realized_value();
    table.add_row(legs[leg].label,
                  {m.offered_jobs.sum(), m.arrived_jobs.sum(),
                   m.abandoned_jobs.sum(), m.total_realized_value(),
                   m.total_rejected_value(), m.total_abandoned_value(),
                   m.decay_loss.sum(), m.energy_cost.sum()});
  }
  std::cout << table.render() << "\n";
  for (std::size_t leg = 0; leg < legs.size(); ++leg) {
    std::cerr << legs[leg].label << ": " << sweep.leg_ms[leg] << " ms\n";
  }

  bool pass = true;
  for (std::size_t leg = 1; leg < legs.size(); ++leg) {
    const bool beats = realized[leg] > realized[0];
    std::cout << legs[leg].label << " vs admit-all: "
              << format_fixed(realized[leg], 3) << " vs "
              << format_fixed(realized[0], 3)
              << (beats ? " (better)" : " (WORSE)") << "\n";
    pass = pass && beats;
  }
  if (!pass) {
    std::cout << "ABLATION FAILED: an admission policy realized no more "
                 "value than admit-all\n";
    return 1;
  }
  std::cout << "ablation ok: both admission policies beat admit-all on "
               "realized value\n";
  obs.finish();
  return 0;
}
