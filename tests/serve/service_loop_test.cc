#include "serve/service_loop.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/invariant_auditor.h"
#include "core/admission.h"
#include "core/grefar.h"
#include "scenario/paper_scenario.h"
#include "scenario/serve_scenario.h"
#include "trace/job_trace.h"
#include "trace/price_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace grefar {
namespace {

constexpr std::int64_t kHorizon = 30;

struct Fixture {
  PaperScenario scenario;
  std::shared_ptr<const ClusterConfig> config;
  std::string jobs_csv, prices_csv;

  Fixture() : scenario(make_serve_scenario(2, 6, /*seed=*/11)) {
    config = std::make_shared<const ClusterConfig>(scenario.config);
    jobs_csv =
        job_trace_to_csv(materialize_arrivals(*scenario.arrivals, kHorizon));
    prices_csv =
        price_trace_to_csv(materialize_prices(*scenario.prices, kHorizon));
  }

  std::shared_ptr<GreFarScheduler> make_scheduler() const {
    return std::make_shared<GreFarScheduler>(config,
                                             paper_grefar_params(2.0, 0.5));
  }

  std::unique_ptr<ServiceLoop> make_loop(ServiceLoopOptions options) const {
    auto jobs = std::make_unique<StreamingJobTraceSource>(
        std::make_unique<std::istringstream>(jobs_csv),
        config->num_job_types());
    auto prices = std::make_unique<StreamingPriceTraceSource>(
        std::make_unique<std::istringstream>(prices_csv),
        config->num_data_centers());
    return std::make_unique<ServiceLoop>(config, scenario.availability,
                                         make_scheduler(), std::move(jobs),
                                         std::move(prices), options);
  }
};

/// Records what a flush inspector observes: slot order plus the routed
/// matrices (the decisions), copied out of each record.
class RecordingInspector final : public SlotInspector {
 public:
  explicit RecordingInspector(std::vector<std::string>* journal = nullptr,
                              std::string tag = {})
      : journal_(journal), tag_(std::move(tag)) {}

  void inspect(const SlotRecord& record) override {
    slots.push_back(record.slot);
    routed.push_back(*record.routed);
    energy = 0.0;
    for (double c : *record.dc_energy_cost) energy += c;
    if (journal_ != nullptr) {
      journal_->push_back(tag_ + ":" + std::to_string(record.slot));
    }
  }

  std::vector<std::int64_t> slots;
  std::vector<MatrixD> routed;
  double energy = 0.0;

 private:
  std::vector<std::string>* journal_;
  std::string tag_;
};

class ThrowingInspector final : public SlotInspector {
 public:
  explicit ThrowingInspector(std::int64_t at) : at_(at) {}
  void inspect(const SlotRecord& record) override {
    if (record.slot == at_) throw std::runtime_error("inspector boom");
  }

 private:
  std::int64_t at_;
};

void expect_bitwise_equal(const SimMetrics& a, const SimMetrics& b) {
  ASSERT_EQ(a.slots(), b.slots());
  for (std::size_t t = 0; t < a.slots(); ++t) {
    EXPECT_EQ(a.energy_cost.values()[t], b.energy_cost.values()[t]) << t;
    EXPECT_EQ(a.fairness.values()[t], b.fairness.values()[t]) << t;
    EXPECT_EQ(a.total_queue_jobs.values()[t], b.total_queue_jobs.values()[t])
        << t;
  }
  EXPECT_EQ(a.account_work_total, b.account_work_total);
}

/// The batch reference: materialized table models through the plain engine,
/// with a recording inspector capturing the per-slot decisions.
struct BatchRun {
  std::unique_ptr<SimulationEngine> engine;
  std::shared_ptr<RecordingInspector> recorder;
};

BatchRun run_batch(const Fixture& f) {
  BatchRun out;
  auto arrivals = std::make_shared<TableArrivals>(
      job_trace_from_csv(f.jobs_csv, f.config->num_job_types()).value());
  auto prices = std::make_shared<TablePriceModel>(
      price_trace_from_csv(f.prices_csv, f.config->num_data_centers()).value());
  out.engine = std::make_unique<SimulationEngine>(
      f.config, prices, f.scenario.availability, arrivals, f.make_scheduler());
  out.recorder = std::make_shared<RecordingInspector>();
  out.engine->set_inspector(out.recorder);
  out.engine->run(kHorizon);
  return out;
}

TEST(ServiceLoop, BitIdenticalToBatch) {
  Fixture f;
  BatchRun batch = run_batch(f);

  auto loop = f.make_loop({});
  auto recorder = std::make_shared<RecordingInspector>();
  loop->add_flush_inspector(recorder);
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats.value().slots, kHorizon);
  expect_bitwise_equal(loop->metrics(), batch.engine->metrics());
  // Decisions, not just aggregates: every routed matrix bit-identical,
  // observed by the flush inspector in slot order.
  ASSERT_EQ(recorder->slots.size(), batch.recorder->slots.size());
  for (std::size_t t = 0; t < recorder->slots.size(); ++t) {
    EXPECT_EQ(recorder->slots[t], static_cast<std::int64_t>(t));
    EXPECT_EQ(recorder->routed[t], batch.recorder->routed[t]) << "t=" << t;
  }

  // Without a flush inspector the engine takes its untraced path; the
  // metrics must not change.
  auto bare = f.make_loop({});
  auto bare_stats = bare->run();
  ASSERT_TRUE(bare_stats.ok()) << bare_stats.error().message;
  EXPECT_EQ(bare_stats.value().slots, kHorizon);
  expect_bitwise_equal(bare->metrics(), batch.engine->metrics());
}

/// A v2 fixture: the serve-scenario cluster with decay curves switched on,
/// plus a deterministic annotated arrival table serialized to the v2 trace
/// format. Every annotation is concrete, so the batch reference
/// (ValuedTableArrivals) and the streamed v2 trace describe the same
/// workload exactly.
struct ValuedFixture {
  PaperScenario scenario;
  std::shared_ptr<const ClusterConfig> config;
  std::vector<std::vector<ArrivalBatch>> slots;
  std::string jobs_csv, prices_csv;

  ValuedFixture() : scenario(make_serve_scenario(2, 6, /*seed=*/11)) {
    for (std::size_t j = 0; j < scenario.config.job_types.size(); ++j) {
      scenario.config.job_types[j].decay =
          j % 2 == 0 ? DecayKind::kExponential : DecayKind::kLinear;
    }
    config = std::make_shared<const ClusterConfig>(scenario.config);
    Rng root(0xF00DULL);
    slots.resize(static_cast<std::size_t>(kHorizon));
    for (std::int64_t t = 0; t < kHorizon; ++t) {
      Rng r = root.fork(t);
      for (std::size_t j = 0; j < config->job_types.size(); ++j) {
        ArrivalBatch b;
        b.type = j;
        b.count = r.poisson(2.0);
        b.value = r.uniform(0.5, 3.0) * config->job_types[j].work;
        b.decay_rate = r.uniform(0.0, 0.2);
        b.deadline = r.bernoulli(0.5) ? r.uniform_int(2, 10) : kNoDeadline;
        if (b.count > 0) slots[static_cast<std::size_t>(t)].push_back(b);
      }
    }
    // Pin the trace span to [0, kHorizon) even if the last slot is idle.
    if (slots.back().empty()) {
      slots.back().push_back({.type = 0,
                              .count = 1,
                              .value = 1.0,
                              .decay_rate = 0.0,
                              .deadline = kNoDeadline});
    }
    jobs_csv = valued_job_trace_to_csv(slots);
    prices_csv =
        price_trace_to_csv(materialize_prices(*scenario.prices, kHorizon));
  }

  std::shared_ptr<GreFarScheduler> make_scheduler() const {
    return std::make_shared<GreFarScheduler>(config,
                                             paper_grefar_params(2.0, 0.5));
  }

  std::unique_ptr<ServiceLoop> make_loop(ServiceLoopOptions options) const {
    auto jobs = std::make_unique<StreamingJobTraceSource>(
        std::make_unique<std::istringstream>(jobs_csv),
        config->num_job_types());
    auto prices = std::make_unique<StreamingPriceTraceSource>(
        std::make_unique<std::istringstream>(prices_csv),
        config->num_data_centers());
    return std::make_unique<ServiceLoop>(config, scenario.availability,
                                         make_scheduler(), std::move(jobs),
                                         std::move(prices), options);
  }

  std::unique_ptr<SimulationEngine> run_batch(
      std::shared_ptr<AdmissionPolicy> admission = nullptr) const {
    // Parse the same serialized trace the loop streams (the writer's fixed
    // 6-decimal format rounds annotations, so the in-memory table would
    // differ from the file in the last ulp).
    auto arrivals = std::make_shared<ValuedTableArrivals>(
        valued_job_trace_from_csv(jobs_csv, config->num_job_types())
            .value()
            .slots,
        config->num_job_types());
    auto prices = std::make_shared<TablePriceModel>(
        price_trace_from_csv(prices_csv, config->num_data_centers()).value());
    auto engine = std::make_unique<SimulationEngine>(
        config, prices, scenario.availability, arrivals, make_scheduler());
    if (admission != nullptr) engine->set_admission_policy(admission);
    engine->run(kHorizon);
    return engine;
  }
};

void expect_value_ledger_equal(const SimMetrics& a, const SimMetrics& b) {
  ASSERT_EQ(a.slots(), b.slots());
  for (std::size_t t = 0; t < a.slots(); ++t) {
    EXPECT_EQ(a.realized_value.values()[t], b.realized_value.values()[t]) << t;
    EXPECT_EQ(a.admitted_value.values()[t], b.admitted_value.values()[t]) << t;
    EXPECT_EQ(a.rejected_value.values()[t], b.rejected_value.values()[t]) << t;
    EXPECT_EQ(a.abandoned_value.values()[t], b.abandoned_value.values()[t]) << t;
    EXPECT_EQ(a.abandoned_jobs.values()[t], b.abandoned_jobs.values()[t]) << t;
    EXPECT_EQ(a.decay_loss.values()[t], b.decay_loss.values()[t]) << t;
    EXPECT_EQ(a.rejected_jobs.values()[t], b.rejected_jobs.values()[t]) << t;
  }
}

TEST(ServiceLoop, ValuedTraceBitIdenticalToBatch) {
  ValuedFixture f;
  auto batch = f.run_batch();
  // The workload must actually exercise the v2 machinery.
  EXPECT_GT(batch->metrics().total_realized_value(), 0.0);
  EXPECT_GT(batch->metrics().abandoned_jobs.sum(), 0.0);
  EXPECT_GT(batch->metrics().decay_loss.sum(), 0.0);

  auto loop = f.make_loop({});
  InvariantAuditorOptions audit;
  audit.throw_on_violation = true;
  auto auditor = std::make_shared<InvariantAuditor>(*f.config, audit);
  loop->add_flush_inspector(auditor);
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(stats.value().slots, kHorizon);
  EXPECT_TRUE(auditor->ok());
  expect_bitwise_equal(loop->metrics(), batch->metrics());
  expect_value_ledger_equal(loop->metrics(), batch->metrics());
}

TEST(ServiceLoop, AdmissionPolicyMatchesBatchEngine) {
  ValuedFixture f;
  auto admission = std::make_shared<ThresholdAdmission>(1.5);
  auto batch = f.run_batch(admission);
  EXPECT_GT(batch->metrics().rejected_jobs.sum(), 0.0);

  ServiceLoopOptions options;
  options.admission = std::make_shared<ThresholdAdmission>(1.5);
  auto loop = f.make_loop(options);
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  expect_bitwise_equal(loop->metrics(), batch->metrics());
  expect_value_ledger_equal(loop->metrics(), batch->metrics());
}

TEST(ServiceLoop, FlushInspectorsRunInRegistrationOrder) {
  Fixture f;
  auto loop = f.make_loop({});
  std::vector<std::string> journal;
  loop->add_flush_inspector(
      std::make_shared<RecordingInspector>(&journal, "first"));
  loop->add_flush_inspector(
      std::make_shared<RecordingInspector>(&journal, "second"));
  ASSERT_TRUE(loop->run().ok());
  ASSERT_EQ(journal.size(), 2u * kHorizon);
  for (std::int64_t t = 0; t < kHorizon; ++t) {
    EXPECT_EQ(journal[static_cast<std::size_t>(2 * t)],
              "first:" + std::to_string(t));
    EXPECT_EQ(journal[static_cast<std::size_t>(2 * t + 1)],
              "second:" + std::to_string(t));
  }
}

TEST(ServiceLoop, InvariantAuditorRidesTheFlushStage) {
  Fixture f;
  auto loop = f.make_loop({});
  InvariantAuditorOptions audit;
  audit.throw_on_violation = true;
  auto auditor = std::make_shared<InvariantAuditor>(*f.config, audit);
  loop->add_flush_inspector(auditor);
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok()) << stats.error().message;
  EXPECT_EQ(auditor->slots_audited(), kHorizon);
  EXPECT_TRUE(auditor->ok());
}

TEST(ServiceLoop, ThrowingFlushInspectorSurfacesAsError) {
  Fixture f;
  auto loop = f.make_loop({});
  loop->add_flush_inspector(std::make_shared<ThrowingInspector>(5));
  auto stats = loop->run();
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.error().message,
            "flush inspector failed at slot 5: inspector boom");
}

TEST(ServiceLoop, IngestErrorSurfacesWithByteOffset) {
  Fixture f;
  // Corrupt one byte mid-trace: the error must name the row's position.
  std::string bad = f.jobs_csv;
  bad[bad.find("\n3,") + 1] = 'x';
  auto jobs = std::make_unique<StreamingJobTraceSource>(
      std::make_unique<std::istringstream>(bad), f.config->num_job_types());
  auto prices = std::make_unique<StreamingPriceTraceSource>(
      std::make_unique<std::istringstream>(f.prices_csv),
      f.config->num_data_centers());
  ServiceLoop loop(f.config, f.scenario.availability, f.make_scheduler(),
                   std::move(jobs), std::move(prices));
  auto stats = loop.run();
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.error().message.find("at byte"), std::string::npos)
      << stats.error().message;
}

TEST(ServiceLoop, MaxSlotsStopsEarly) {
  Fixture f;
  ServiceLoopOptions options;
  options.max_slots = 7;
  auto loop = f.make_loop(options);
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().slots, 7);
  EXPECT_EQ(loop->slots_processed(), 7);
  EXPECT_EQ(loop->metrics().slots(), 7u);
}

TEST(ServiceLoop, RunIsSingleShot) {
  Fixture f;
  auto loop = f.make_loop({});
  ASSERT_TRUE(loop->run().ok());
  EXPECT_THROW((void)loop->run(), ContractViolation);
}

TEST(ServiceLoop, StatsReportLatencyAndThroughput) {
  Fixture f;
  auto loop = f.make_loop({});
  auto stats = loop->run();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats.value().slots_per_second, 0.0);
  EXPECT_GT(stats.value().wall_seconds, 0.0);
  EXPECT_GE(stats.value().latency_max_ms, 0.0);
  // P2 estimates are only defined once slots ran; 30 slots is plenty.
  EXPECT_FALSE(std::isnan(stats.value().latency_p50_ms));
  EXPECT_FALSE(std::isnan(stats.value().latency_p99_ms));
}

}  // namespace
}  // namespace grefar
