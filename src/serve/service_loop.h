// ServiceLoop: the long-lived serve mode. One serial loop on the caller
// thread, one slot at a time:
//
//   ingest   StreamingJobTraceSource + StreamingPriceTraceSource -> SlotInput
//   stage    StagedTraceFeed (the engine's price/arrival models for slot t)
//   step     engine.step(), whose inspector hook runs the flush inspectors
//            (TraceSink tracer, invariant auditor, ...) in registration
//            order on the engine's own SlotRecord
//
// One SlotInput is reused for every slot, so the hot loop allocates nothing
// once capacities are warm, and memory does not grow with trace length.
// The flush inspectors run inside the step, so --profile times them under
// the engine's `engine.inspect` phase. With no flush inspector registered
// the engine takes its untraced path.
//
// Determinism: the engine steps in slot order on inputs that are pure
// functions of the trace bytes, so decisions, energy and fairness series
// are bit-identical to a batch replay of the materialized trace.
//
// Slot latency is staging + engine step + flush inspectors, excluding
// ingest: a slot is not done until it is logged. It is tracked with
// P2Quantile estimators and reported as p50/p99 — the serve-mode SLO
// metric.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "stats/p2_quantile.h"
#include "workload/admission.h"
#include "trace/stream_source.h"
#include "util/annotations.h"
#include "util/result.h"

namespace grefar {

class StagedTraceFeed;

struct ServiceLoopOptions {
  /// Stop after this many slots (0 = run to the end of the traces; the run
  /// ends at whichever of the two traces ends first).
  std::int64_t max_slots = 0;
  /// Optional admission policy screening each staged arrival batch before
  /// it enters the central queues (nullptr = admit everything).
  std::shared_ptr<AdmissionPolicy> admission;
};

struct ServiceStats {
  std::int64_t slots = 0;
  double wall_seconds = 0.0;
  double slots_per_second = 0.0;
  /// Stage + step + flush per slot, milliseconds (NaN when no slots ran).
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Always 0: the serial loop has no queues. Kept because the canonical
  /// benchmark (perfbench) reads them.
  std::uint64_t ingest_stalls = 0;
  std::uint64_t backpressure_blocks = 0;
  std::size_t flush_queue_high_water = 0;
};

class ServiceLoop {
 public:
  /// Takes ownership of the streaming sources. The job source must have
  /// config->job_types.size() types and the price source
  /// config->data_centers.size() DCs.
  ServiceLoop(std::shared_ptr<const ClusterConfig> config,
              std::shared_ptr<const AvailabilityModel> availability,
              std::shared_ptr<Scheduler> scheduler,
              std::unique_ptr<StreamingJobTraceSource> jobs,
              std::unique_ptr<StreamingPriceTraceSource> prices,
              ServiceLoopOptions options = {});
  ~ServiceLoop();

  ServiceLoop(const ServiceLoop&) = delete;
  ServiceLoop& operator=(const ServiceLoop&) = delete;

  /// Registers an inspector to run at the end of every slot, in
  /// registration order, on the engine's SlotRecord. Call before run(). An
  /// inspector throw (e.g. the auditor's strict mode) surfaces as run()'s
  /// error.
  void add_flush_inspector(std::shared_ptr<SlotInspector> inspector);

  /// Runs the loop to completion (trace end, max_slots, or first error).
  /// Single-shot: a ServiceLoop instance runs once.
  Result<ServiceStats> run();

  /// The engine's accumulated metrics (valid after run(); bit-identical to
  /// a batch replay of the same trace).
  const SimMetrics& metrics() const;
  std::int64_t slots_processed() const;

 private:
  struct SlotInput {
    std::int64_t slot = 0;
    std::vector<std::int64_t> arrivals;    // counts mode (v1 traces)
    std::vector<ArrivalBatch> batches;     // valued mode (v2 traces)
    std::vector<double> prices;
  };
  class FlushInspector;  // engine hook that runs flush_inspectors_

  /// Pulls the next slot from both sources into `in`. Returns false at
  /// clean end of stream.
  Result<bool> ingest_one(SlotInput& in);

  /// Stages `in` and steps the engine exactly once. The flush inspectors
  /// run inside the step, via the attached FlushInspector.
  GREFAR_HOT_PATH GREFAR_DETERMINISTIC
  void solve_slot(const SlotInput& in);

  /// Runs the flush inspectors over one record; returns their error (a
  /// throwing inspector is converted, not propagated).
  Status flush_record(const SlotRecord& record);

  std::shared_ptr<const ClusterConfig> config_;
  std::unique_ptr<StreamingJobTraceSource> jobs_;
  std::unique_ptr<StreamingPriceTraceSource> prices_;
  ServiceLoopOptions options_;
  /// Fixed at construction from the job trace's detected schema: valued
  /// traces flow through the feed as annotated batches (v2), plain traces
  /// as dense counts (v1) — so v1 serve runs stay byte-identical to before.
  bool valued_ = false;
  std::unique_ptr<StagedTraceFeed> feed_;
  std::unique_ptr<SimulationEngine> engine_;
  std::vector<std::shared_ptr<SlotInspector>> flush_inspectors_;
  P2Quantile latency_p50_{0.50};
  P2Quantile latency_p99_{0.99};
  double latency_max_ms_ = 0.0;
  std::int64_t slots_ = 0;
  bool ran_ = false;
};

}  // namespace grefar
