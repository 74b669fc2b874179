// Theorem 1 empirical check (the paper's analysis section).
//
// On the literal queue dynamics (12)-(13):
//  (a) the largest queue grows O(V) in the cost-delay parameter;
//  (b) GreFar's time-average cost approaches the optimal T-step lookahead
//      policy's cost (eq. (19)) with an O(1/V) gap.
//
// Uses a small instance where the frame problem is an exact LP.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "common/experiment.h"
#include "util/strings.h"
#include "core/grefar.h"
#include "lookahead/lookahead.h"
#include "price/price_model.h"
#include "sim/scalar_engine.h"
#include "stats/summary_table.h"
#include "workload/arrival_process.h"

namespace {

grefar::ClusterConfig theorem_config() {
  grefar::ClusterConfig c;
  c.server_types = {{"std", 1.0, 1.0}};
  c.data_centers = {{"dc1", {12}}, {"dc2", {12}}};
  c.accounts = {{"a", 1.0}};
  c.job_types = {{"j", 1.0, {0, 1}, 0}};
  return c;
}

std::shared_ptr<grefar::TablePriceModel> theorem_prices() {
  return std::make_shared<grefar::TablePriceModel>(
      std::vector<std::vector<double>>{{0.9, 0.8, 0.7, 0.3, 0.2, 0.3, 0.8, 0.9},
                                       {0.7, 0.7, 0.5, 0.4, 0.3, 0.4, 0.6, 0.7}});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grefar;
  using namespace grefar::bench;

  CliParser cli("theorem1_bounds", "empirically check Theorem 1's O(V)/O(1/V) bounds");
  add_common_options(cli, /*default_horizon=*/"1600");
  cli.add_option("T", "8", "lookahead frame length (horizon must be R*T)");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto T = positive_int_or_exit(cli, "T");
  if (horizon < T) {
    exit_usage_error(cli, "--horizon must be >= --T (" + std::to_string(T) + "), got " +
                              std::to_string(horizon));
  }
  const auto jobs = jobs_from_cli(cli);

  ObsSession obs(cli);

  print_header("Theorem 1: queue bound O(V), optimality gap O(1/V)",
               "Ren, He, Xu (ICDCS'12), Theorem 1", seed, horizon);

  auto config = theorem_config();
  auto prices = theorem_prices();

  // Optimal T-step lookahead cost (eq. (19)).
  FullAvailability avail_la(config.data_centers);
  ConstantArrivals arrivals_la({6});
  LookaheadParams lp;
  lp.T = T;
  lp.R = horizon / T;
  lp.r_max = 50.0;
  lp.h_max = 50.0;
  lp.jobs = jobs;  // frame LPs fan out; costs are bit-identical at any value
  double optimal = solve_lookahead(config, *prices, avail_la, arrivals_la, lp).average_cost;
  std::cout << "optimal T-step lookahead average cost (T=" << T
            << "): " << format_fixed(optimal, 4) << "\n\n";

  SummaryTable table({"V", "avg cost", "gap to lookahead", "gap * V", "max queue",
                      "max queue / V"});
  for (double V : {0.5, 2.0, 8.0, 32.0, 128.0, 512.0}) {
    auto avail = std::make_shared<FullAvailability>(config.data_centers);
    auto arrivals = std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{6});
    GreFarParams params;
    params.V = V;
    params.r_max = 50.0;
    params.h_max = 50.0;
    params.clamp_to_queue = true;
    params.process_after_routing = false;  // literal eq. (13) ordering
    auto scheduler = std::make_shared<GreFarScheduler>(config, params);
    ScalarQueueSimulator sim(config, prices, avail, arrivals, scheduler);
    sim.run(horizon);
    double cost = sim.average_cost(0.0);
    double gap = cost - optimal;
    table.add_row("V=" + format_fixed(V, 1),
                  {cost, gap, gap * V, sim.max_queue_observed(),
                   sim.max_queue_observed() / V});
  }
  std::cout << table.render()
            << "\nTheorem 1 shape: 'gap * V' stays bounded (O(1/V) optimality gap)\n"
               "while 'max queue / V' stays bounded (O(V) queue growth). Very large\n"
               "V can dip below the lookahead cost because work deferred past the\n"
               "horizon end is never charged.\n\n";

  // -- beta > 0: the energy-fairness regime ---------------------------------
  // Two accounts share the cluster; the lookahead bound now comes from
  // Frank-Wolfe over the frame polytope (solve_lookahead_fair).
  const double beta = 10.0;
  ClusterConfig fair_config = theorem_config();
  fair_config.accounts = {{"a", 0.5}, {"b", 0.5}};
  fair_config.job_types = {{"ja", 1.0, {0, 1}, 0}, {"jb", 1.0, {0, 1}, 1}};

  FullAvailability fair_avail(fair_config.data_centers);
  ConstantArrivals fair_arrivals_la({3, 3});
  FairLookaheadParams flp;
  flp.base = lp;
  flp.base.R = std::min<std::int64_t>(lp.R, 50);  // FW per frame is pricier
  flp.beta = beta;
  double fair_optimal =
      solve_lookahead_fair(fair_config, *prices, fair_avail, fair_arrivals_la, flp)
          .average_cost;
  std::cout << "beta = " << format_fixed(beta, 1)
            << " energy-fairness lookahead optimum (FW over frame LP): "
            << format_fixed(fair_optimal, 4) << "\n\n";

  SummaryTable fair_table({"V", "avg g = e - beta*f", "gap to lookahead", "max queue"});
  for (double V : {2.0, 32.0, 128.0}) {
    auto avail = std::make_shared<FullAvailability>(fair_config.data_centers);
    auto arrivals =
        std::make_shared<ConstantArrivals>(std::vector<std::int64_t>{3, 3});
    GreFarParams params;
    params.V = V;
    params.beta = beta;
    params.r_max = 50.0;
    params.h_max = 50.0;
    params.clamp_to_queue = true;
    params.process_after_routing = false;  // literal eq. (13) ordering
    auto scheduler = std::make_shared<GreFarScheduler>(fair_config, params);
    ScalarQueueSimulator sim(fair_config, prices, avail, arrivals, scheduler);
    sim.run(flp.base.R * flp.base.T);
    double cost = sim.average_cost(beta);
    fair_table.add_row("V=" + format_fixed(V, 1),
                       {cost, cost - fair_optimal, sim.max_queue_observed()});
  }
  std::cout << fair_table.render()
            << "\nsame story with fairness in the objective: the gap shrinks as V\n"
               "grows while queues grow at most linearly.\n";
  obs.finish();
  return 0;
}
