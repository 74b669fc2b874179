// SweepSpec: a declarative, config-driven cross product of sweep axes — the
// batch scenario-sweep API the ROADMAP's scenario-gym item calls for.
//
// A spec is axes (outermost first, LAST axis innermost/fastest-varying) plus
// two callbacks: `scenario` maps a grid point to the PaperScenario it runs
// in (legs mapping to the same scenario_key share one materialized artifact
// set — see artifact_cache.h), and `plan` maps a grid point to the leg's
// scheduler/admission/engine configuration. Leg indices enumerate the cross
// product row-major: leg = ((i0 * n1 + i1) * n2 + i2) ... with the last
// axis fastest, so consecutive legs differ (mostly) in the innermost axis —
// exactly the adjacency the cross-leg warm starts exploit.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "sim/scheduler.h"
#include "sweep/artifact_cache.h"
#include "workload/admission.h"

namespace grefar {
namespace sweep {

/// One sweep dimension. `values` and/or `labels` name the points; they must
/// agree on the count when both are given.
struct SweepAxis {
  // Default member initializers let an axis name only the fields it uses in
  // a designated initializer ({.name = ..., .values = ...}) without a
  // -Wmissing-field-initializers warning.
  std::string name{};
  std::vector<double> values{};
  std::vector<std::string> labels{};

  std::size_t size() const;
};

/// A resolved point of the cross product: per-axis indices plus the flat
/// leg number.
class SweepSpec;
struct SweepPoint {
  const SweepSpec* spec = nullptr;
  std::vector<std::size_t> coords;  // one index per axis
  std::size_t leg = 0;

  std::size_t index(std::size_t axis) const { return coords.at(axis); }
  double value(std::size_t axis) const;
  const std::string& label(std::size_t axis) const;
};

/// The GreFar fast path: legs declaring params (+ optional solver override)
/// ride the scheduler arena — one persistent GreFarScheduler per worker is
/// re-targeted via begin_run() instead of reconstructed, and adjacent legs
/// may warm-start. Legs needing any other Scheduler provide make_scheduler.
struct GreFarLegSpec {
  GreFarParams params;
  std::optional<PerSlotSolver> solver;  // default: GreFar's beta rule
};

/// Everything the sweep engine needs to run one leg.
struct LegPlan {
  /// Artifact-cache key; legs with equal keys must describe the *same*
  /// scenario (they share one materialized instance).
  std::string scenario_key;
  /// Exactly one of grefar / make_scheduler must be set.
  std::optional<GreFarLegSpec> grefar;
  std::function<std::shared_ptr<Scheduler>(const ScenarioArtifacts&)> make_scheduler;
  /// Optional per-leg admission policy; overrides the scenario's (which is
  /// attached when this is unset and the scenario carries one).
  std::function<std::shared_ptr<AdmissionPolicy>(const ScenarioArtifacts&)>
      make_admission;
  EngineOptions engine_options;
};

class SweepSpec {
 public:
  std::vector<SweepAxis> axes;  // outermost first; LAST axis is innermost
  std::int64_t horizon = 0;
  std::function<PaperScenario(const SweepPoint&)> scenario;
  std::function<LegPlan(const SweepPoint&)> plan;

  std::size_t num_axes() const { return axes.size(); }
  std::size_t num_legs() const;
  SweepPoint point(std::size_t leg) const;

  /// Size of the innermost (fastest-varying) axis: consecutive legs within
  /// a run of this length share every outer coordinate. Warm-start chunking
  /// aligns chunk boundaries to multiples of this, so a warm leg's
  /// predecessor is always in the same chunk. 1 when there are no axes.
  std::size_t innermost_run_length() const;

  void validate() const;
};

}  // namespace sweep
}  // namespace grefar
