#include "obs/tracing_inspector.h"

#include <cmath>

#include "obs/trace_scope.h"
#include "util/check.h"
#include "util/matrix.h"

namespace grefar::obs {

namespace {

JsonValue array_of(const std::vector<double>& values) {
  JsonArray out;
  out.reserve(values.size());
  for (double v : values) out.emplace_back(v);
  return out;
}

JsonValue array_of(const std::vector<std::int64_t>& values) {
  JsonArray out;
  out.reserve(values.size());
  for (std::int64_t v : values) out.emplace_back(v);
  return out;
}

// Dense array up to kSparseArrayThreshold entries; past it, a sparse object
// over the non-zero entries.
template <typename T>
JsonValue sparse_or_dense(const std::vector<T>& values) {
  if (values.size() <= kSparseArrayThreshold) return array_of(values);
  JsonArray idx;
  JsonArray val;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (values[i] != T{}) {
      idx.emplace_back(static_cast<double>(i));
      val.emplace_back(static_cast<double>(values[i]));
    }
  }
  JsonObject o;
  o.emplace("n", static_cast<double>(values.size()));
  o.emplace("idx", std::move(idx));
  o.emplace("val", std::move(val));
  return JsonValue(std::move(o));
}

// Rows as dense arrays up to kSparseArrayThreshold columns; past it each row
// becomes the same {"n", "idx", "val"} sparse object as the long vectors
// above (at J = 10^6 a dense row dump would dwarf the trace).
JsonValue rows_of(const MatrixD& m) {
  JsonArray rows;
  rows.reserve(m.rows());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    if (m.cols() <= kSparseArrayThreshold) {
      JsonArray row;
      row.reserve(m.cols());
      for (std::size_t j = 0; j < m.cols(); ++j) row.emplace_back(m(i, j));
      rows.emplace_back(std::move(row));
    } else {
      JsonArray idx;
      JsonArray val;
      for (std::size_t j = 0; j < m.cols(); ++j) {
        if (m(i, j) != 0.0) {
          idx.emplace_back(static_cast<double>(j));
          val.emplace_back(m(i, j));
        }
      }
      JsonObject o;
      o.emplace("n", static_cast<double>(m.cols()));
      o.emplace("idx", std::move(idx));
      o.emplace("val", std::move(val));
      rows.emplace_back(JsonValue(std::move(o)));
    }
  }
  return rows;
}

}  // namespace

TracingInspector::TracingInspector(std::shared_ptr<TraceSink> sink)
    : sink_(std::move(sink)) {
  GREFAR_CHECK(sink_ != nullptr);
}

void TracingInspector::inspect(const SlotRecord& record) {
  GREFAR_CHECK(record.obs != nullptr && record.action != nullptr &&
               record.routed != nullptr && record.served_work != nullptr);
  JsonObject root;
  root.emplace("slot", static_cast<double>(record.slot));
  root.emplace("prices", array_of(record.obs->prices));
  root.emplace("central_queue", sparse_or_dense(record.obs->central_queue));
  if (record.dc_capacity != nullptr) {
    root.emplace("dc_capacity", array_of(*record.dc_capacity));
  }
  if (record.dc_energy_cost != nullptr) {
    root.emplace("dc_energy_cost", array_of(*record.dc_energy_cost));
  }
  if (record.dc_completions != nullptr) {
    root.emplace("dc_completions", array_of(*record.dc_completions));
  }
  if (record.dc_delay_sum != nullptr) {
    root.emplace("dc_delay_sum", array_of(*record.dc_delay_sum));
  }
  if (record.account_work != nullptr) {
    root.emplace("account_work", sparse_or_dense(*record.account_work));
  }
  root.emplace("fairness", record.fairness);
  if (record.arrivals != nullptr) {
    root.emplace("arrivals", sparse_or_dense(*record.arrivals));
  }
  if (record.central_after != nullptr) {
    root.emplace("central_after", sparse_or_dense(*record.central_after));
  }
  if (record.admission_active) {
    // Admission / value economics block (workload/admission.h): emitted only
    // for runs where a policy or valued arrivals make it meaningful, so
    // plain traces keep their pre-admission shape byte-for-byte.
    JsonObject adm;
    if (record.offered != nullptr) {
      adm.emplace("offered", sparse_or_dense(*record.offered));
    }
    adm.emplace("admitted_value", record.admitted_value);
    adm.emplace("rejected_value", record.rejected_value);
    adm.emplace("realized_value", record.realized_value);
    adm.emplace("decay_loss", record.decay_loss);
    adm.emplace("abandoned_jobs", record.abandoned_jobs);
    adm.emplace("abandoned_work", record.abandoned_work);
    adm.emplace("abandoned_value", record.abandoned_value);
    adm.emplace("queued_value_after", record.queued_value_after);
    adm.emplace("deadline_violations",
                static_cast<double>(record.deadline_violations));
    root.emplace("admission", JsonValue(std::move(adm)));
  }
  root.emplace("dc_queue", rows_of(record.obs->dc_queue));
  root.emplace("route_ask", rows_of(record.action->route));
  root.emplace("process_ask", rows_of(record.action->process));
  root.emplace("routed", rows_of(*record.routed));
  root.emplace("served_work", rows_of(*record.served_work));
  if (record.dc_after != nullptr) {
    root.emplace("dc_after", rows_of(*record.dc_after));
  }
  if (record.scope != nullptr) {
    const TraceScope& scope = *record.scope;
    JsonObject annotations;
    annotations.emplace("drift_weights_negative",
                        static_cast<double>(scope.drift_weights_negative));
    annotations.emplace("drift_weights_nonnegative",
                        static_cast<double>(scope.drift_weights_nonnegative));
    JsonArray splits;
    splits.reserve(scope.tie_splits.size());
    for (const auto& split : scope.tie_splits) {
      JsonObject s;
      s.emplace("job_type", static_cast<double>(split.job_type));
      s.emplace("group_size", static_cast<double>(split.group_size));
      s.emplace("jobs", split.jobs);
      s.emplace("zero_capacity_skipped",
                static_cast<double>(split.zero_capacity_skipped));
      splits.emplace_back(std::move(s));
    }
    annotations.emplace("tie_splits", std::move(splits));
    if (scope.admission.active) {
      // What the admission policy saw and decided, including the value-
      // density threshold it applied (the engine fills these, not the
      // scheduler). NaN thresholds serialize as null.
      JsonObject a;
      a.emplace("offered_jobs", static_cast<double>(scope.admission.offered_jobs));
      a.emplace("admitted_jobs",
                static_cast<double>(scope.admission.admitted_jobs));
      a.emplace("rejected_jobs",
                static_cast<double>(scope.admission.rejected_jobs));
      a.emplace("admitted_value", scope.admission.admitted_value);
      a.emplace("rejected_value", scope.admission.rejected_value);
      if (std::isnan(scope.admission.threshold)) {
        a.emplace("threshold", JsonValue(nullptr));
      } else {
        a.emplace("threshold", scope.admission.threshold);
      }
      annotations.emplace("admission", std::move(a));
    }
    root.emplace("annotations", std::move(annotations));
  }
  sink_->write(JsonValue(std::move(root)));
  ++slots_traced_;
}

TeeInspector::TeeInspector(std::vector<std::shared_ptr<SlotInspector>> inspectors)
    : inspectors_(std::move(inspectors)) {
  for (const auto& inspector : inspectors_) GREFAR_CHECK(inspector != nullptr);
}

void TeeInspector::inspect(const SlotRecord& record) {
  for (const auto& inspector : inspectors_) inspector->inspect(record);
}

}  // namespace grefar::obs
