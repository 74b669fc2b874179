// Allocation-regression guard for the simulation hot path.
//
// PR "per-slot hot-path allocation elimination" brought the steady-state
// cost of one engine step down to a handful of allocations (amortized
// vector growth in the lazily extended price/arrival caches); this test
// locks those numbers in. It overrides global operator new with a counting
// hook, runs the paper scenario past its warm-up transient, measures
// allocations per slot over a long window, and fails if the measurement
// exceeds the checked-in baseline (BENCH_baseline.json, "allocs_per_slot")
// by more than 10%. The run is deterministic per seed, so the measured
// value is bit-stable — a failure means a real hot-path regression.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>

#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "sweep/sweep_engine.h"
#include "util/json.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// Throwing forms only: the default nothrow/aligned forms forward here, and
// nothing in the measured path uses over-aligned types.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Out of line, so GCC cannot pair this free() with the operator new[] of
// an inlined delete[] site (a -Wmismatched-new-delete false positive: every
// form here allocates with malloc).
namespace {
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace grefar {
namespace {

constexpr std::int64_t kWarmupSlots = 300;
constexpr std::int64_t kMeasuredSlots = 500;

/// Steady-state allocations per engine slot for a GreFar run on the paper
/// scenario. The auditor is explicitly off: it exists for Debug/CI
/// correctness runs and pays for its bookkeeping; this test guards the
/// bare Release hot path.
double measure_allocs_per_slot(PerSlotSolver solver, double beta) {
  PaperScenario scenario = make_paper_scenario(/*seed=*/42);
  auto scheduler = std::make_shared<GreFarScheduler>(
      scenario.config, paper_grefar_params(/*V=*/7.5, beta), solver);
  auto engine =
      make_scenario_engine(scenario, std::move(scheduler), AuditMode::kOff);
  engine->run(kWarmupSlots);
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  engine->run(kMeasuredSlots);
  g_counting.store(false, std::memory_order_relaxed);
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed)) /
         static_cast<double>(kMeasuredSlots);
}

double baseline(const char* key) {
  auto doc = parse_json_file(GREFAR_BENCH_BASELINE);
  if (!doc.ok()) {
    ADD_FAILURE() << "cannot read " << GREFAR_BENCH_BASELINE << ": "
                  << doc.error().message;
    return 0.0;
  }
  const JsonValue* section = doc.value().find("allocs_per_slot");
  if (section == nullptr) {
    ADD_FAILURE() << "BENCH_baseline.json has no allocs_per_slot section";
    return 0.0;
  }
  const JsonValue* entry = section->find(key);
  if (entry == nullptr || !entry->is_number()) {
    ADD_FAILURE() << "allocs_per_slot has no numeric entry '" << key << "'";
    return 0.0;
  }
  return entry->as_number();
}

TEST(AllocRegression, GreedySteadyStateStaysWithinBaseline) {
  const double limit = baseline("grefar_greedy") * 1.1;
  ASSERT_GT(limit, 0.0);
  const double measured = measure_allocs_per_slot(PerSlotSolver::kGreedy, 0.0);
  EXPECT_LE(measured, limit)
      << "greedy hot path now allocates " << measured
      << " times per slot (baseline allows " << limit
      << "); find the new allocation or re-baseline BENCH_baseline.json";
}

TEST(AllocRegression, PgdSteadyStateStaysWithinBaseline) {
  const double limit = baseline("grefar_pgd") * 1.1;
  ASSERT_GT(limit, 0.0);
  const double measured =
      measure_allocs_per_slot(PerSlotSolver::kProjectedGradient, 100.0);
  EXPECT_LE(measured, limit)
      << "PGD hot path now allocates " << measured
      << " times per slot (baseline allows " << limit
      << "); find the new allocation or re-baseline BENCH_baseline.json";
}

TEST(AllocRegression, LpSteadyStateStaysWithinBaseline) {
  const double limit = baseline("grefar_lp") * 1.1;
  ASSERT_GT(limit, 0.0);
  const double measured = measure_allocs_per_slot(PerSlotSolver::kLp, 0.0);
  EXPECT_LE(measured, limit)
      << "LP hot path now allocates " << measured
      << " times per slot (baseline allows " << limit
      << "); find the new allocation or re-baseline BENCH_baseline.json";
}

/// Steady-state allocations per sweep leg on a reused SweepEngine: run the
/// spec once to grow every arena and materialize the scenario, then measure
/// a second identical run. What remains per leg is plan resolution (a few
/// strings/closures) plus whatever the engine-reuse path still allocates —
/// the quantity DESIGN.md §16's allocation-free-steady-state claim is about.
double measure_allocs_per_leg() {
  constexpr std::int64_t kHorizon = 32;
  constexpr std::size_t kLegs = 32;
  sweep::SweepSpec spec;
  spec.axes = {{.name = "V", .values = std::vector<double>(kLegs, 0.0)}};
  for (std::size_t i = 0; i < kLegs; ++i) {
    spec.axes[0].values[i] = 0.5 + static_cast<double>(i);
  }
  spec.horizon = kHorizon;
  spec.scenario = [](const sweep::SweepPoint&) { return make_paper_scenario(42); };
  spec.plan = [](const sweep::SweepPoint& p) {
    sweep::LegPlan plan;
    plan.scenario_key = "paper/seed=42";
    plan.grefar = sweep::GreFarLegSpec{paper_grefar_params(p.value(0), 0.0), {}};
    return plan;
  };
  sweep::SweepOptions options;
  options.jobs = 1;
  options.audit = AuditMode::kOff;
  sweep::SweepEngine engine(options);
  auto noop = [](std::size_t, SimulationEngine&) {};
  engine.run(spec, noop);  // warm-up: grows arenas, fills the artifact cache
  g_allocations.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  engine.run(spec, noop);
  g_counting.store(false, std::memory_order_relaxed);
  return static_cast<double>(g_allocations.load(std::memory_order_relaxed)) /
         static_cast<double>(kLegs);
}

TEST(AllocRegression, SweepSteadyStateAllocsPerLegStaysWithinBaseline) {
  auto doc = parse_json_file(GREFAR_BENCH_BASELINE);
  ASSERT_TRUE(doc.ok());
  const JsonValue* section = doc.value().find("allocs_per_leg");
  ASSERT_NE(section, nullptr)
      << "BENCH_baseline.json has no allocs_per_leg section";
  const JsonValue* entry = section->find("sweep_grefar_greedy");
  ASSERT_TRUE(entry != nullptr && entry->is_number());
  const double limit = entry->as_number() * 1.1;
  ASSERT_GT(limit, 0.0);
  const double measured = measure_allocs_per_leg();
  EXPECT_LE(measured, limit)
      << "sweep steady state now allocates " << measured
      << " times per leg (baseline allows " << limit
      << "); find the new allocation or re-baseline BENCH_baseline.json";
}

}  // namespace
}  // namespace grefar
