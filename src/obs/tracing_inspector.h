// TracingInspector: SlotInspector -> structured JSONL slot records.
//
// Attached to a SimulationEngine, it converts every SlotRecord into one JSON
// object — prices, queue state, the scheduler's ask, what the engine actually
// routed/served, per-DC capacity and billed energy, per-account work,
// fairness, completions, post-slot queues — plus scheduler-internal
// annotations (TraceScope: tie-group splits, drift-weight signs) when the
// scheduler filled any. Records go to a shared TraceSink (a JSONL file).
//
// Per-type / per-account vectors longer than kSparseArrayThreshold — and
// matrix rows with more columns than that — are emitted in sparse form,
// {"n": length, "idx": [...], "val": [...]} over the non-zero entries,
// instead of a dense array. At a million accounts a dense per-slot array
// would dwarf the trace; every small scenario keeps dense records.
//
// The serialization is deterministic: JsonObject keys are ordered and every
// number comes from the deterministic simulation state, so two runs of the
// same seed produce byte-identical traces (pinned by tests/obs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace_sink.h"
#include "sim/slot_inspector.h"

namespace grefar::obs {

inline constexpr std::size_t kSparseArrayThreshold = 4096;

class TracingInspector final : public SlotInspector {
 public:
  explicit TracingInspector(std::shared_ptr<TraceSink> sink);

  void inspect(const SlotRecord& record) override;

  const std::shared_ptr<TraceSink>& sink() const { return sink_; }
  std::int64_t slots_traced() const { return slots_traced_; }

 private:
  std::shared_ptr<TraceSink> sink_;
  std::int64_t slots_traced_ = 0;
};

/// Fans one SlotRecord out to several inspectors, in order. Lets a tracer
/// ride alongside an already-attached inspector (the invariant auditor) on
/// the engine's single inspector slot.
class TeeInspector final : public SlotInspector {
 public:
  explicit TeeInspector(std::vector<std::shared_ptr<SlotInspector>> inspectors);

  void inspect(const SlotRecord& record) override;

 private:
  std::vector<std::shared_ptr<SlotInspector>> inspectors_;
};

}  // namespace grefar::obs
