// StagedTraceFeed: adapts one staged slot of streamed trace data to the
// ArrivalProcess / PriceModel interfaces the engine pulls from.
//
// The batch engine asks its models for slot t while solving slot t; the
// service loop knows only the current slot's rows (the whole point of
// streaming ingestion). The feed holds exactly one slot of arrivals and
// prices, restaged by the service loop before every engine step; the
// adapters contract-check that the engine only ever asks for the staged
// slot, so a lookahead scheduler wired into serve mode fails loudly instead
// of silently reading stale data.
//
// Single-threaded by design: stage() and the engine's reads happen on the
// serve loop's thread.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "price/price_model.h"
#include "workload/arrival_process.h"

namespace grefar {

class StagedTraceFeed {
 public:
  /// `valued` selects batch-staging mode: the arrival adapter then reports
  /// has_valued_arrivals() and serves annotated batches (stage_valued below)
  /// — fixed at construction because the engine samples the flag once.
  StagedTraceFeed(std::size_t num_types, std::size_t num_dcs,
                  bool valued = false);

  /// Copies one slot of trace data into the feed (storage reused; no
  /// allocation once capacities are warm). `arrivals` sized num_types,
  /// `prices` sized num_dcs; slots must be staged in increasing order.
  /// Counts mode only (contract-checked).
  void stage(std::int64_t slot, const std::vector<std::int64_t>& arrivals,
             const std::vector<double>& prices);

  /// Batch-staging variant (valued mode only): stages annotated arrival
  /// batches; the dense per-type counts are derived here so both adapter
  /// views stay consistent.
  void stage_valued(std::int64_t slot, const std::vector<ArrivalBatch>& batches,
                    const std::vector<double>& prices);

  std::int64_t staged_slot() const;

  /// Engine-facing adapters; they share this feed's state and stay valid for
  /// the feed's lifetime (both sides hold the state via shared_ptr).
  std::shared_ptr<const ArrivalProcess> arrival_process() const {
    return arrivals_;
  }
  std::shared_ptr<const PriceModel> price_model() const { return prices_; }

 private:
  struct State {
    std::int64_t slot = -1;  // nothing staged yet
    std::vector<std::int64_t> arrivals;
    std::vector<ArrivalBatch> batches;  // valued mode: the staged slot's rows
    std::vector<double> prices;
    std::vector<std::int64_t> max_arrivals;  // running per-type high-water
    std::size_t num_types = 0;
    std::size_t num_dcs = 0;
    bool valued = false;
  };

  class StagedArrivals final : public ArrivalProcess {
   public:
    explicit StagedArrivals(std::shared_ptr<const State> state)
        : state_(std::move(state)) {}
    std::vector<std::int64_t> arrivals(std::int64_t t) const override;
    void arrivals_into(std::int64_t t,
                       std::vector<std::int64_t>& out) const override;
    std::size_t num_job_types() const override { return state_->num_types; }
    /// Running high-water of staged counts (a_j^max is unknowable for an
    /// open-ended stream; nothing on the serve path consumes this bound).
    std::int64_t max_arrivals(JobTypeId j) const override;
    bool has_valued_arrivals() const override { return state_->valued; }
    void valued_arrivals_into(std::int64_t t,
                              std::vector<ArrivalBatch>& out) const override;

   private:
    std::shared_ptr<const State> state_;
  };

  class StagedPrices final : public PriceModel {
   public:
    explicit StagedPrices(std::shared_ptr<const State> state)
        : state_(std::move(state)) {}
    double price(std::size_t dc, std::int64_t t) const override;
    std::size_t num_data_centers() const override { return state_->num_dcs; }

   private:
    std::shared_ptr<const State> state_;
  };

  std::shared_ptr<State> state_;
  std::shared_ptr<const StagedArrivals> arrivals_;
  std::shared_ptr<const StagedPrices> prices_;
};

}  // namespace grefar
