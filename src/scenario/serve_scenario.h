// An ingest-bound scenario for serve-mode benchmarking (bench/serve_latency)
// and the service-loop tests: parameterized in data centers and job types so
// CSV ingest work (O(active types) rows per slot) and solve work (O(N x J))
// can be balanced against each other.
#pragma once

#include <cstdint>
#include <string>

#include "scenario/paper_scenario.h"
#include "util/result.h"

namespace grefar {

/// Builds a scenario with `num_dcs` data centers (one server generation
/// each, cycling three efficiency archetypes) and `num_types` job types
/// (all-DC eligible, four accounts), sized so total arrival work stays
/// below ~70% of worst-case capacity regardless of the dimensions.
/// Deterministic per seed.
PaperScenario make_serve_scenario(std::size_t num_dcs, std::size_t num_types,
                                  std::uint64_t seed);

/// Streams `horizon` slots of the scenario's arrivals and prices to
/// `<dir>/jobs.csv` and `<dir>/prices.csv` in O(1 slot) memory (so trace
/// generation does not distort a subsequent peak-RSS measurement).
/// Returns the two paths via out-params.
Status write_serve_traces(const PaperScenario& scenario, std::int64_t horizon,
                          const std::string& dir, std::string& jobs_path,
                          std::string& prices_path);

}  // namespace grefar
