#include "serve/service_loop.h"

#include <chrono>
#include <exception>
#include <utility>

#include "obs/counters.h"
#include "serve/staged_feed.h"
#include "util/check.h"

namespace grefar {

// The engine-side hook: runs the flush inspectors on the live SlotRecord
// inside engine.step() and keeps their error for run() to return after the
// step (run() stops at the first one).
class ServiceLoop::FlushInspector final : public SlotInspector {
 public:
  explicit FlushInspector(ServiceLoop& loop) : loop_(loop) {}

  void inspect(const SlotRecord& record) override {
    error_ = loop_.flush_record(record);
  }

  const Status& error() const { return error_; }

 private:
  ServiceLoop& loop_;
  Status error_;
};

ServiceLoop::ServiceLoop(std::shared_ptr<const ClusterConfig> config,
                         std::shared_ptr<const AvailabilityModel> availability,
                         std::shared_ptr<Scheduler> scheduler,
                         std::unique_ptr<StreamingJobTraceSource> jobs,
                         std::unique_ptr<StreamingPriceTraceSource> prices,
                         ServiceLoopOptions options)
    : config_(std::move(config)),
      jobs_(std::move(jobs)),
      prices_(std::move(prices)),
      options_(options) {
  GREFAR_CHECK(config_ != nullptr);
  GREFAR_CHECK(jobs_ != nullptr && prices_ != nullptr);
  GREFAR_CHECK(options_.max_slots >= 0);
  GREFAR_CHECK_MSG(jobs_->num_types() == config_->job_types.size(),
                   "job trace has " << jobs_->num_types()
                                    << " types, config expects "
                                    << config_->job_types.size());
  GREFAR_CHECK_MSG(
      prices_->num_data_centers() == config_->data_centers.size(),
      "price trace has " << prices_->num_data_centers()
                         << " DCs, config expects "
                         << config_->data_centers.size());
  // The feed's valued flag must match the trace schema at engine
  // construction — the engine samples has_valued_arrivals() once. Plain v1
  // traces keep the counts path, so their serve runs stay byte-identical.
  valued_ = jobs_->valued();
  feed_ = std::make_unique<StagedTraceFeed>(config_->job_types.size(),
                                            config_->data_centers.size(),
                                            valued_);
  engine_ = std::make_unique<SimulationEngine>(
      config_, feed_->price_model(), std::move(availability),
      feed_->arrival_process(), std::move(scheduler));
  if (options_.admission != nullptr) {
    engine_->set_admission_policy(options_.admission);
  }
}

ServiceLoop::~ServiceLoop() = default;

void ServiceLoop::add_flush_inspector(std::shared_ptr<SlotInspector> inspector) {
  GREFAR_CHECK(!ran_);
  GREFAR_CHECK(inspector != nullptr);
  flush_inspectors_.push_back(std::move(inspector));
}

const SimMetrics& ServiceLoop::metrics() const { return engine_->metrics(); }

std::int64_t ServiceLoop::slots_processed() const { return slots_; }

Result<bool> ServiceLoop::ingest_one(SlotInput& in) {
  in.slot = jobs_->next_slot();
  auto more_jobs = valued_ ? jobs_->next_slot_batches_into(in.batches)
                           : jobs_->next_slot_into(in.arrivals);
  if (!more_jobs.ok()) return more_jobs.error();
  if (!more_jobs.value()) return false;
  auto more_prices = prices_->next_slot_into(in.prices);
  if (!more_prices.ok()) return more_prices.error();
  // The run covers min(job slots, price slots): a price trace shorter than
  // the job trace ends the run cleanly rather than inventing prices.
  if (!more_prices.value()) return false;
  return true;
}

GREFAR_HOT_PATH GREFAR_DETERMINISTIC
void ServiceLoop::solve_slot(const SlotInput& in) {
  if (valued_) {
    feed_->stage_valued(in.slot, in.batches, in.prices);
  } else {
    feed_->stage(in.slot, in.arrivals, in.prices);
  }
  engine_->step();
}

Status ServiceLoop::flush_record(const SlotRecord& record) {
  for (const auto& inspector : flush_inspectors_) {
    try {
      inspector->inspect(record);
    } catch (const std::exception& e) {
      return Error::make(std::string("flush inspector failed at slot ") +
                         std::to_string(record.slot) + ": " + e.what());
    }
  }
  return {};
}

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

Result<ServiceStats> ServiceLoop::run() {
  GREFAR_CHECK_MSG(!ran_, "ServiceLoop::run() is single-shot");
  ran_ = true;
  std::shared_ptr<FlushInspector> flush;
  if (!flush_inspectors_.empty()) {
    flush = std::make_shared<FlushInspector>(*this);
    engine_->set_inspector(flush);
  }

  SlotInput in;
  const auto wall_start = std::chrono::steady_clock::now();
  while (options_.max_slots == 0 || slots_ < options_.max_slots) {
    auto more = ingest_one(in);
    if (!more.ok()) return more.error();
    if (!more.value()) break;
    const auto t0 = std::chrono::steady_clock::now();
    solve_slot(in);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms = elapsed_ms(t0, t1);
    latency_p50_.add(ms);
    latency_p99_.add(ms);
    if (ms > latency_max_ms_) latency_max_ms_ = ms;
    ++slots_;
    if (flush != nullptr && !flush->error().ok()) return flush->error().error();
  }
  const auto wall_end = std::chrono::steady_clock::now();

  ServiceStats stats;
  stats.slots = slots_;
  stats.wall_seconds = elapsed_ms(wall_start, wall_end) / 1e3;
  stats.slots_per_second =
      stats.wall_seconds > 0.0 ? static_cast<double>(slots_) / stats.wall_seconds
                               : 0.0;
  stats.latency_p50_ms = latency_p50_.value();
  stats.latency_p99_ms = latency_p99_.value();
  stats.latency_max_ms = latency_max_ms_;
  obs::count("serve.slots", static_cast<std::uint64_t>(slots_));
  return stats;
}

}  // namespace grefar
