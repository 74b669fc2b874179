#include "scenario/paper_scenario.h"

#include <cmath>

#include "check/invariant_auditor.h"
#include "util/check.h"

namespace grefar {

namespace {

/// Mean of the Cosmos burst/weekend modulation, used to convert a desired
/// long-run arrival rate into the generator's base_rate.
double modulation_mean(const CosmosTypeParams& p) {
  double on = p.burst_on_prob, off = p.burst_off_prob;
  double active = on + off > 0.0 ? on / (on + off) : 0.0;
  double burst = active * p.burst_multiplier + (1.0 - active) * p.idle_multiplier;
  double weekend = (5.0 + 2.0 * p.weekend_multiplier) / 7.0;
  return burst * weekend;
}

CosmosTypeParams cosmos_type(double mean_jobs_per_slot, double peak_hour) {
  CosmosTypeParams p;
  p.diurnal_amplitude = 0.6;
  p.peak_hour = peak_hour;
  p.burst_on_prob = 0.08;
  p.burst_off_prob = 0.25;
  p.burst_multiplier = 3.0;
  p.idle_multiplier = 0.35;
  p.weekend_multiplier = 0.5;
  p.base_rate = mean_jobs_per_slot / modulation_mean(p);
  p.a_max = static_cast<std::int64_t>(std::ceil(p.base_rate * 3.0 * 1.6 + 5.0));
  return p;
}

}  // namespace

PaperScenario make_paper_scenario(std::uint64_t seed) {
  PaperScenario s;
  s.seed = seed;

  // -- Table I server types; each DC operates one generation ----------------
  s.config.server_types = {
      {"gen-a", 1.00, 1.00},  // DC #1
      {"gen-b", 0.75, 0.60},  // DC #2 (cheapest energy per unit work)
      {"gen-c", 1.15, 1.20},  // DC #3 (most expensive)
  };
  // The paper does not disclose fleet sizes; we size DC3 (the most expensive
  // per unit work) largest, so price-blind scheduling lands much of the load
  // there — matching the paper's large Always-vs-GreFar energy gap — while
  // the cheap DC2 alone cannot absorb the average load.
  s.config.data_centers = {
      {"dc1", {120, 0, 0}},  // capacity 120 work/slot at full availability
      {"dc2", {0, 130, 0}},  // capacity 97.5
      {"dc3", {0, 0, 160}},  // capacity 184
  };

  // -- 4 organizations, fairness weights 40/30/15/15 -------------------------
  s.config.accounts = {
      {"org1", 0.40}, {"org2", 0.30}, {"org3", 0.15}, {"org4", 0.15}};

  // -- Job types: small (d=2) and large (d=5) per organization ---------------
  // Eligible sets vary (where each type's input data lives), exercising D_j.
  s.config.job_types = {
      {"org1-small", 1.5, {0, 1, 2}, 0}, {"org1-large", 3.5, {0, 1}, 0},
      {"org2-small", 1.5, {0, 1, 2}, 1}, {"org2-large", 3.5, {1, 2}, 1},
      {"org3-small", 1.5, {0, 1}, 2},    {"org3-large", 3.5, {0, 2}, 2},
      {"org4-small", 1.5, {1, 2}, 3},    {"org4-large", 3.5, {0, 1, 2}, 3},
  };
  s.config.validate();

  // -- Arrivals: per-org mean work/slot of 31.2/23.4/11.7/11.7 (total ~78
  //    mean envelope; the realized mean lands near 90 with the burst mix),
  //    split evenly between the small and large class of each org.
  auto jobs_per_slot = [](double work_per_slot, double d) { return work_per_slot / d; };
  std::vector<CosmosTypeParams> params = {
      cosmos_type(jobs_per_slot(15.6, 1.5), 13.0),  // org1-small
      cosmos_type(jobs_per_slot(15.6, 3.5), 13.0),  // org1-large
      cosmos_type(jobs_per_slot(11.7, 1.5), 15.0),  // org2-small
      cosmos_type(jobs_per_slot(11.7, 3.5), 15.0),  // org2-large
      cosmos_type(jobs_per_slot(5.85, 1.5), 11.0),  // org3-small
      cosmos_type(jobs_per_slot(5.85, 3.5), 11.0),  // org3-large
      cosmos_type(jobs_per_slot(5.85, 1.5), 17.0),  // org4-small
      cosmos_type(jobs_per_slot(5.85, 3.5), 17.0),  // org4-large
  };
  s.arrivals = std::make_shared<CosmosLikeArrivals>(std::move(params), seed ^ 0xA11CEULL);

  // -- Prices: Table-I-calibrated diurnal + OU model --------------------------
  s.prices = make_paper_price_model(seed ^ 0x9121CE5ULL);

  // -- Availability: random 75-100% of installed, keeping slack above load ----
  s.availability = std::make_shared<RandomFractionAvailability>(
      s.config.data_centers, 0.75, seed ^ 0xA4A1ULL);

  return s;
}

GreFarParams paper_grefar_params(double V, double beta) {
  GreFarParams p;
  p.V = V;
  p.beta = beta;
  p.r_max = 1e6;
  p.h_max = 1e6;
  p.clamp_to_queue = true;
  return p;
}

PaperScenario make_small_scenario(std::uint64_t seed) {
  PaperScenario s;
  s.seed = seed;
  s.config.server_types = {{"fast", 1.0, 1.0}, {"efficient", 0.5, 0.3}};
  s.config.data_centers = {{"east", {20, 10}}, {"west", {10, 20}}};
  s.config.accounts = {{"team-a", 0.6}, {"team-b", 0.4}};
  s.config.job_types = {
      {"a-job", 1.0, {0, 1}, 0},
      {"b-job", 2.0, {0, 1}, 1},
  };
  s.config.validate();
  s.arrivals = std::make_shared<PoissonArrivals>(
      std::vector<double>{4.0, 2.0}, std::vector<std::int64_t>{12, 6},
      seed ^ 0xB0B5ULL);
  std::vector<DiurnalOuParams> price_params(2);
  price_params[0] = {.mean = 0.40, .diurnal_amplitude = 0.12, .peak_hour = 15.0,
                     .reversion = 0.3, .volatility = 0.02, .floor = 0.05};
  price_params[1] = {.mean = 0.50, .diurnal_amplitude = 0.16, .peak_hour = 17.0,
                     .reversion = 0.3, .volatility = 0.03, .floor = 0.05};
  s.prices = std::make_shared<DiurnalOuPriceModel>(std::move(price_params),
                                                   seed ^ 0x9E1CEULL);
  s.availability = std::make_shared<FullAvailability>(s.config.data_centers);
  return s;
}

std::unique_ptr<SimulationEngine> make_scenario_engine(
    const PaperScenario& scenario, std::shared_ptr<Scheduler> scheduler,
    AuditMode audit) {
  auto engine = std::make_unique<SimulationEngine>(
      scenario.config, scenario.prices, scenario.availability, scenario.arrivals,
      std::move(scheduler));
  if (scenario.admission != nullptr) {
    engine->set_admission_policy(scenario.admission);
  }
  if (audit == AuditMode::kAuto) {
#ifdef NDEBUG
    audit = AuditMode::kOff;
#else
    audit = AuditMode::kThrow;
#endif
  }
  if (audit != AuditMode::kOff) {
    InvariantAuditorOptions auditor_options;
    auditor_options.throw_on_violation = audit == AuditMode::kThrow;
    engine->set_inspector(
        std::make_shared<InvariantAuditor>(scenario.config, auditor_options));
  }
  return engine;
}

std::unique_ptr<SimulationEngine> run_scenario(const PaperScenario& scenario,
                                               std::shared_ptr<Scheduler> scheduler,
                                               std::int64_t horizon,
                                               AuditMode audit) {
  auto engine = make_scenario_engine(scenario, std::move(scheduler), audit);
  engine->run(horizon);
  return engine;
}

}  // namespace grefar
