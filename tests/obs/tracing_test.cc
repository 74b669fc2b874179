#include "obs/tracing_inspector.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/grefar.h"
#include "obs/counters.h"
#include "obs/trace_sink.h"
#include "parallel/sim_runner.h"
#include "scenario/paper_scenario.h"
#include "util/json.h"

namespace grefar {
namespace {

// Reads a JSONL file back as one string per line.
std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

// Runs the small 2-DC scenario under GreFar for `slots` with a tracer
// attached and returns the records it wrote, one JSONL line each.
std::vector<std::string> run_traced(std::uint64_t seed, std::int64_t slots) {
  const std::string path = testing::TempDir() + "tracing_test_run.jsonl";
  {
    auto sink = std::make_shared<obs::TraceSink>(obs::TraceSink::Options{path});
    PaperScenario scenario = make_small_scenario(seed);
    auto engine = make_scenario_engine(
        scenario,
        std::make_shared<GreFarScheduler>(scenario.config,
                                          paper_grefar_params(7.5, 10.0)),
        AuditMode::kOff);
    engine->set_inspector(std::make_shared<obs::TracingInspector>(sink));
    engine->run(slots);
  }  // the sink's destructor flushes the file
  std::vector<std::string> lines = read_lines(path);
  std::remove(path.c_str());
  return lines;
}

TEST(TraceSink, WritesJsonlFile) {
  const std::string path = testing::TempDir() + "trace_sink_test.jsonl";
  std::remove(path.c_str());
  {
    obs::TraceSink::Options options;
    options.path = path;
    obs::TraceSink sink(options);
    JsonObject o;
    o["slot"] = JsonValue(0);
    sink.write(JsonValue(o));
    o["slot"] = JsonValue(1);
    sink.write(JsonValue(o));
    EXPECT_EQ(sink.records_written(), 2u);
  }  // destructor flushes
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "{\"slot\":0}");
  EXPECT_EQ(lines[1], "{\"slot\":1}");
  std::remove(path.c_str());
}

// The golden structural contract of one slot record: every documented field
// is present with the right shape, so downstream tools (trace_inspect) can
// rely on the schema.
TEST(TracingInspector, RecordSchemaIsComplete) {
  const auto lines = run_traced(/*seed=*/7, /*slots=*/20);
  ASSERT_EQ(lines.size(), 20u);
  auto parsed = parse_json(lines.front());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const JsonValue& rec = parsed.value();
  ASSERT_TRUE(rec.is_object());
  EXPECT_DOUBLE_EQ(rec.find("slot")->as_number(), 0.0);
  for (const char* key :
       {"prices", "central_queue", "dc_capacity", "dc_energy_cost",
        "dc_completions", "dc_delay_sum", "account_work", "arrivals",
        "central_after"}) {
    const JsonValue* field = rec.find(key);
    ASSERT_NE(field, nullptr) << key;
    EXPECT_TRUE(field->is_array()) << key;
  }
  EXPECT_TRUE(rec.find("fairness")->is_number());
  for (const char* key :
       {"dc_queue", "route_ask", "process_ask", "routed", "served_work",
        "dc_after"}) {
    const JsonValue* field = rec.find(key);
    ASSERT_NE(field, nullptr) << key;
    ASSERT_TRUE(field->is_array()) << key;
    // 2 DCs x 2 job types in the small scenario.
    ASSERT_EQ(field->as_array().size(), 2u) << key;
    EXPECT_EQ(field->as_array()[0].as_array().size(), 2u) << key;
  }
  // GreFar passes a TraceScope, so scheduler annotations must be present.
  const JsonValue* annotations = rec.find("annotations");
  ASSERT_NE(annotations, nullptr);
  EXPECT_NE(annotations->find("drift_weights_negative"), nullptr);
  EXPECT_NE(annotations->find("drift_weights_nonnegative"), nullptr);
  EXPECT_TRUE(annotations->find("tie_splits")->is_array());
}

TEST(TracingInspector, TraceIsByteIdenticalAcrossRuns) {
  const auto first = run_traced(/*seed=*/11, /*slots=*/30);
  const auto second = run_traced(/*seed=*/11, /*slots=*/30);
  EXPECT_EQ(first, second);
  const auto other_seed = run_traced(/*seed=*/12, /*slots=*/30);
  EXPECT_NE(first, other_seed);
}

// A counting inspector for the tee test.
class CountingInspector final : public SlotInspector {
 public:
  void inspect(const SlotRecord& record) override {
    ++calls;
    last_slot = record.slot;
  }
  int calls = 0;
  std::int64_t last_slot = -1;
};

// End-to-end determinism: full engines fanned over a SimRunner produce
// bit-identical counter totals at any worker count.
TEST(Counters, EngineCounterTotalsAreJobCountInvariant) {
  auto run_with = [](std::size_t jobs) {
    obs::CounterRegistry reg;
    obs::CountersScope scope(&reg);
    SimRunner(jobs).for_each_index(4, [](std::size_t leg) {
      PaperScenario scenario = make_small_scenario(100 + leg);
      auto engine = make_scenario_engine(
          scenario,
          std::make_shared<GreFarScheduler>(scenario.config,
                                            paper_grefar_params(7.5, 0.0)),
          AuditMode::kOff);
      engine->run(40);
    });
    return reg;
  };
  const obs::CounterRegistry serial = run_with(1);
  const obs::CounterRegistry pooled = run_with(8);
  EXPECT_EQ(serial.counters(), pooled.counters());
  EXPECT_EQ(serial.gauges(), pooled.gauges());
  EXPECT_EQ(serial.counter("engine.slots"), 160u);
}

TEST(TeeInspector, FansOutToAllInspectors) {
  auto a = std::make_shared<CountingInspector>();
  auto b = std::make_shared<CountingInspector>();
  PaperScenario scenario = make_small_scenario(5);
  auto engine = make_scenario_engine(
      scenario,
      std::make_shared<GreFarScheduler>(scenario.config,
                                        paper_grefar_params(7.5, 0.0)),
      AuditMode::kOff);
  engine->set_inspector(std::make_shared<obs::TeeInspector>(
      std::vector<std::shared_ptr<SlotInspector>>{a, b}));
  engine->run(4);
  EXPECT_EQ(a->calls, 4);
  EXPECT_EQ(b->calls, 4);
  EXPECT_EQ(a->last_slot, 3);
  EXPECT_EQ(b->last_slot, 3);
}

}  // namespace
}  // namespace grefar
