// Million-account scale smoke (DESIGN.md §12): the default LargeScaleOptions
// scenario — a 10 x 100 x 1000 AccountTree (10^6 leaf accounts, one job type
// per leaf) with Zipf activity of ~10^3 draws per slot — run end-to-end
// through the job-level engine, twice:
//
//   1. an *audited* reference leg with the per-slot InvariantAuditor in
//      throw mode, whose scheduler decides on a copy of each observation
//      with the active-type hint cleared (HintlessScheduler below) — so the
//      per-slot problem covers all J = 10^6 types, an independent O(J)
//      re-derivation of every decision, and
//   2. an *unaudited* leg on the sparse per-slot path the production engine
//      runs (the active-type hint + clamped queues).
//
// The two legs must agree bitwise on every per-slot metric and on the
// cumulative per-account work — the engine-level statement of the
// hinted == identity-list contract at M = 10^6. The process exits nonzero on any
// invariant violation or metric divergence. It prints its own getrusage
// peak RSS (portable to hosts without GNU time); CI parses that line and
// asserts it stays under 1 GB: state must track the active set, not M.
#include <sys/resource.h>

#include <chrono>
#include <iostream>
#include <memory>
#include <optional>

#include "check/invariant_auditor.h"
#include "common/experiment.h"
#include "core/grefar.h"
#include "core/per_slot_solvers.h"
#include "scenario/large_scale.h"
#include "sim/engine.h"

namespace {

using namespace grefar;

/// Reference decorator for the audited leg: every decide sees a copy of the
/// observation with the active-type hint cleared, so the wrapped scheduler
/// solves over all J types instead of trusting the hint. Local to this
/// smoke on purpose — it is a test harness, not a library option.
class HintlessScheduler final : public Scheduler {
 public:
  explicit HintlessScheduler(std::shared_ptr<Scheduler> inner) : inner_(std::move(inner)) {}

  SlotAction decide(const SlotObservation& obs) override {
    return inner_->decide(without_hint(obs));
  }
  using Scheduler::decide_into;
  void decide_into(const SlotObservation& obs, SlotAction& out,
                   TraceScope* scope) override {
    inner_->decide_into(without_hint(obs), out, scope);
  }
  std::string name() const override { return inner_->name(); }

 private:
  const SlotObservation& without_hint(const SlotObservation& obs) {
    copy_ = obs;
    copy_.active_types_valid = false;
    copy_.active_types.clear();
    return copy_;
  }

  std::shared_ptr<Scheduler> inner_;
  SlotObservation copy_;  // reused across slots
};

/// Bitwise comparison of the per-slot series and cumulative account work; any
/// divergence between the audited (hint-less) and unaudited (sparse) legs is
/// a contract break, not noise.
bool runs_bitwise_equal(const SimMetrics& a, const SimMetrics& b) {
  bool ok = a.slots() == b.slots();
  for (std::size_t t = 0; ok && t < a.slots(); ++t) {
    ok = a.energy_cost.values()[t] == b.energy_cost.values()[t] &&
         a.fairness.values()[t] == b.fairness.values()[t] &&
         a.total_queue_jobs.values()[t] == b.total_queue_jobs.values()[t];
    if (!ok) std::cerr << "metric divergence at slot " << t << "\n";
  }
  if (ok && a.account_work_total.size() != b.account_work_total.size()) ok = false;
  for (std::size_t m = 0; ok && m < a.account_work_total.size(); ++m) {
    ok = a.account_work_total[m] == b.account_work_total[m];
    if (!ok) std::cerr << "account work divergence at account " << m << "\n";
  }
  return ok;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grefar::bench;

  CliParser cli("large_scale_smoke",
                "million-account scale smoke: audited hint-less leg vs sparse "
                "production leg, bitwise-compared");
  add_common_options(cli, /*default_horizon=*/"48");
  cli.add_option("V", "2.0", "GreFar cost-delay parameter");
  cli.add_option("beta", "0.5", "GreFar energy-fairness parameter");
  cli.add_option("branching", "10,100,1000", "account-tree branching factors");
  cli.add_option("account-level", "2",
                 "tree level whose nodes become solver accounts");
  cli.add_option("draws", "1000", "Zipf arrival draws per slot");
  parse_or_exit(cli, argc, argv);
  const auto horizon = cli.get_int("horizon");

  LargeScaleOptions opt;
  opt.branching.clear();
  for (double b : cli.get_double_list("branching")) {
    opt.branching.push_back(static_cast<std::size_t>(b));
  }
  opt.account_level = static_cast<std::size_t>(cli.get_int("account-level"));
  opt.draws_per_slot = static_cast<std::size_t>(cli.get_int("draws"));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  // This binary exists to audit at scale, so "auto" means throw even in
  // Release; --audit=off skips the audited leg (sparse-only timing runs).
  AuditMode audit = audit_from_cli(cli);
  if (audit == AuditMode::kAuto) audit = AuditMode::kThrow;

  ObsSession obs(cli);
  print_header("Million-account scale smoke", "DESIGN.md §12 scale gate",
               opt.seed, horizon);

  const auto build_start = std::chrono::steady_clock::now();
  LargeScaleScenario scenario = make_large_scale_scenario(opt);
  const double build_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                build_start)
          .count();
  std::cout << "scenario: " << scenario.config->num_accounts() << " accounts, "
            << scenario.config->num_job_types() << " job types, "
            << scenario.config->num_data_centers() << " DCs, "
            << opt.draws_per_slot << " draws/slot (built in " << build_ms
            << " ms)\n";

  GreFarParams params =
      large_scale_grefar_params(cli.get_double("V"), cli.get_double("beta"));

  // Runs one leg and hands back its metrics; the engine (and its ~O(M)
  // buffers) is destroyed before the next leg builds, so peak RSS reflects
  // one live stack, which is what the CI bound measures.
  auto run_leg = [&](bool audited) -> std::optional<SimMetrics> {
    std::shared_ptr<Scheduler> scheduler = std::make_shared<GreFarScheduler>(
        scenario.config, params, PerSlotSolver::kProjectedGradient);
    if (audited) scheduler = std::make_shared<HintlessScheduler>(std::move(scheduler));
    auto engine = std::make_unique<SimulationEngine>(
        scenario.config, scenario.prices, scenario.availability,
        scenario.arrivals, std::move(scheduler));
    std::shared_ptr<InvariantAuditor> auditor;
    if (audited) {
      InvariantAuditorOptions audit_opts;
      audit_opts.throw_on_violation = audit == AuditMode::kThrow;
      audit_opts.expect_queue_bounded_ask = true;
      audit_opts.r_max = params.r_max;
      audit_opts.h_max = params.h_max;
      auditor = std::make_shared<InvariantAuditor>(scenario.config, audit_opts);
      engine->set_inspector(auditor);
      obs.attach_tracer(*engine);
    }
    const auto start = std::chrono::steady_clock::now();
    engine->run(horizon);
    const double leg_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                  start)
            .count();
    std::cout << (audited ? "audited (hint-less) leg: " : "sparse leg:              ")
              << leg_ms << " ms for " << horizon << " slots ("
              << leg_ms / static_cast<double>(horizon) << " ms/slot), peak RSS "
              << peak_rss_mb() << " MB\n";
    if (auditor != nullptr) {
      std::cout << "audit: " << auditor->slots_audited() << " slots, "
                << auditor->total_violations() << " violations\n";
      if (!auditor->ok()) {
        std::cout << auditor->report() << "\nAUDIT FAILED\n";
        return std::nullopt;
      }
    }
    return engine->metrics();
  };

  std::optional<SimMetrics> audited;
  if (audit != AuditMode::kOff) {
    audited = run_leg(/*audited=*/true);
    if (!audited.has_value()) return 1;
  }
  std::optional<SimMetrics> sparse = run_leg(/*audited=*/false);
  if (!sparse.has_value()) return 1;

  if (audited.has_value() && !runs_bitwise_equal(*audited, *sparse)) {
    std::cout << "SCALE SMOKE FAILED: sparse leg diverges from audited "
                 "hint-less leg\n";
    return 1;
  }

  std::cout << "summary (sparse leg):\n"
            << sparse->summary_json().dump(2) << "\n";
  if (audited.has_value()) {
    std::cout << "scale smoke OK: audit clean and sparse == hint-less bitwise at M = "
              << scenario.config->num_accounts() << "\n";
  } else {
    std::cout << "scale smoke OK (audit off: sparse leg only)\n";
  }
  obs.finish();
  return 0;
}
