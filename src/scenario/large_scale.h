// The million-account scale-out scenario (DESIGN.md §12).
//
// A full org -> team -> user AccountTree with up to 10^6 leaves, one job
// type per leaf user, and Zipf-distributed per-slot activity: each slot a
// fixed number of arrival draws lands on job types sampled from a Zipf law
// over type ids, so only ~`draws_per_slot` of the million types are active
// in any slot while the popular head types recur. Every piece is a pure
// function of (seed, slot) — arrivals are randomly accessible and replay
// byte-identically at any evaluation order.
//
// This is the scale proof for the sparse per-slot fairness machinery: the
// same GreFar scheduler that runs the paper's 4-account scenario runs here
// with M = 10^6 accounts, and the per-slot solve cost tracks the active
// set, not M (see bench/large_scale_smoke.cc and BENCH_baseline.json).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/grefar.h"
#include "price/price_model.h"
#include "sim/account_tree.h"
#include "sim/availability.h"
#include "sim/cluster.h"
#include "workload/arrival_process.h"

namespace grefar {

/// Zipf-activity arrivals: `draws_per_slot` independent draws per slot from
/// P(j) proportional to 1/(j+1)^exponent over J job types, each draw adding
/// one job. Random access per slot: slot t uses an Rng forked from (seed, t)
/// via the base generator, so arrivals(t) is a pure function of (seed, t).
class ZipfArrivals final : public ArrivalProcess {
 public:
  ZipfArrivals(std::size_t num_job_types, std::size_t draws_per_slot,
               double exponent, std::uint64_t seed);

  std::vector<std::int64_t> arrivals(std::int64_t t) const override;
  void arrivals_into(std::int64_t t, std::vector<std::int64_t>& out) const override;
  std::size_t num_job_types() const override { return cumulative_.size(); }
  std::int64_t max_arrivals(JobTypeId j) const override;

  /// Inverse-CDF sample: smallest j with cumulative_[j] > u * total, for
  /// u in [0, 1). u = 0 maps to type 0 and u -> 1 to the last type (exposed
  /// so the boundary behavior is directly testable).
  std::size_t sample(double u) const;

 private:
  std::vector<double> cumulative_;  // prefix sums of 1/(j+1)^s
  /// Signed from construction (validated to fit) so max_arrivals — the
  /// paper's int64 a_j^max — needs no per-call narrowing cast.
  std::int64_t draws_per_slot_;
  std::uint64_t seed_;
};

struct LargeScaleOptions {
  /// Tree shape: branching factors per level (defaults: 10 orgs x 100 teams
  /// x 1000 users = 10^6 leaves). One job type per leaf.
  std::vector<std::size_t> branching{10, 100, 1000};
  /// The tree level whose nodes become the ClusterConfig accounts (and the
  /// fairness-solver granularity). Defaults to the leaves.
  std::size_t account_level = 2;
  std::size_t num_dcs = 2;
  /// Zipf activity: expected distinct active types per slot is bounded by
  /// draws_per_slot (duplicates collapse onto popular head types).
  std::size_t draws_per_slot = 1000;
  double zipf_exponent = 1.1;
  std::uint64_t seed = 20260807;
};

struct LargeScaleScenario {
  AccountTree tree;
  /// Shared immutable config: at 10^6 accounts a ClusterConfig weighs ~10^2
  /// MB, so the engine, scheduler and auditor must all alias this one
  /// instance (every component has a shared_ptr ctor overload) instead of
  /// taking value copies — that is most of the DESIGN.md §12 memory budget.
  std::shared_ptr<const ClusterConfig> config;
  std::shared_ptr<const PriceModel> prices;
  std::shared_ptr<const AvailabilityModel> availability;
  std::shared_ptr<const ArrivalProcess> arrivals;
  LargeScaleOptions options;
};

/// Builds the scenario. Deterministic per options.seed.
LargeScaleScenario make_large_scale_scenario(const LargeScaleOptions& options = {});

/// GreFar parameters sized for the scenario (clamped queues — required for
/// the sparse per-slot regime).
GreFarParams large_scale_grefar_params(double V, double beta);

}  // namespace grefar
