// Tests for the telemetry subsystem: MetricsRegistry snapshots and their
// rdc.metrics.v1 / Prometheus serializations, the background snapshotter
// (atomic writes, clean shutdown), the rdc.events.v1 structured event
// log (pipeline lifecycle, budget trips, fault injections), the
// perf-regression comparator behind tools/rdc_perf_diff, and the
// Chrome-trace escaping of hostile span/thread names.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "exec/budget.hpp"
#include "exec/fault.hpp"
#include "fault_guard.hpp"
#include "flow/pipeline.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_diff.hpp"
#include "obs/trace.hpp"
#include "pla/pla_io.hpp"

namespace rdc::obs {
namespace {

/// Resets trace + counter + event state around each test so cases compose
/// with the rest of the suite in any order.
class TelemetryGuard {
 public:
  TelemetryGuard() {
    drain_spans();
    reset_counters();
    set_events_capture(false);
    drain_events();
  }
  ~TelemetryGuard() {
    drain_spans();
    reset_counters();
    set_trace_mode(TraceMode::kOff);
    set_counters_enabled(false);
    set_events_capture(false);
    drain_events();
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string temp_path(const char* stem) {
  return ::testing::TempDir() + stem;
}

// --- snapshots ------------------------------------------------------------

TEST(Metrics, SnapshotHasProcessSamplerGauges) {
  TelemetryGuard guard;
  const Snapshot snap = metrics_snapshot();
  bool saw_rss = false;
  for (const Snapshot::Gauge& gauge : snap.gauges)
    if (gauge.name == "process.rss_bytes") {
      saw_rss = true;
      EXPECT_GT(gauge.value, 0.0);
      EXPECT_EQ(gauge.unit, "bytes");
    }
  EXPECT_TRUE(saw_rss);
  // Sorted by name, the serialization order contract.
  for (std::size_t i = 1; i < snap.gauges.size(); ++i)
    EXPECT_LT(snap.gauges[i - 1].name, snap.gauges[i].name);
  // Counters in enum order, all of them (unlike the bench report, a live
  // snapshot includes the scheduling-dependent ones).
  ASSERT_EQ(snap.counters.size(), kNumCounters);
  EXPECT_EQ(snap.counters[0].first,
            counter_name(static_cast<Counter>(0)));
  ASSERT_EQ(snap.histograms.size(), kNumHistos);
}

TEST(Metrics, PushAndPullGauges) {
  TelemetryGuard guard;
  MetricsRegistry& registry = MetricsRegistry::global();
  registry.set_gauge("test.push_gauge", 41.0);
  registry.set_gauge("test.push_gauge", 42.5);  // latest value wins
  registry.register_gauge("test.pull_gauge", "test", "count",
                          [] { return 7.0; });
  const Snapshot snap = registry.snapshot();
  double push = -1.0, pull = -1.0;
  for (const Snapshot::Gauge& gauge : snap.gauges) {
    if (gauge.name == "test.push_gauge") push = gauge.value;
    if (gauge.name == "test.pull_gauge") pull = gauge.value;
  }
  EXPECT_EQ(push, 42.5);
  EXPECT_EQ(pull, 7.0);
}

TEST(Metrics, JsonSerializationIsDeterministicAndValid) {
  TelemetryGuard guard;
  set_counters_enabled(true);
  count(Counter::kErrorRateCalls, 3);
  observe(Histo::kEspressoIterations, 5);

  const Snapshot snap = metrics_snapshot();
  const std::string json = snap.to_json();
  // Pure serialization: same snapshot, same bytes.
  EXPECT_EQ(json, snap.to_json());

  std::string error;
  const auto doc = parse_json(json, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->string, "rdc.metrics.v1");
  ASSERT_NE(doc->find("gauges"), nullptr);
  ASSERT_NE(doc->find("counters"), nullptr);
  ASSERT_NE(doc->find("histograms"), nullptr);
  EXPECT_EQ(doc->find("counters")->find("error_rate.calls")->number, 3.0);
  const JsonValue* histo =
      doc->find("histograms")->find("espresso.iterations_per_call");
  ASSERT_NE(histo, nullptr);
  EXPECT_EQ(histo->find("count")->number, 1.0);
  EXPECT_EQ(histo->find("sum")->number, 5.0);
  EXPECT_EQ(histo->find("buckets")->array.size(), kHistoBuckets);
}

TEST(Metrics, PrometheusExposition) {
  TelemetryGuard guard;
  set_counters_enabled(true);
  count(Counter::kEspressoCalls, 2);
  observe(Histo::kEspressoIterations, 3);
  observe(Histo::kEspressoIterations, 100);

  const std::string text = metrics_snapshot().to_prometheus();
  EXPECT_NE(text.find("# TYPE rdc_process_rss_bytes gauge"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rdc_espresso_calls_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rdc_espresso_calls_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rdc_espresso_iterations_per_call histogram"),
            std::string::npos);
  // Cumulative buckets: value 3 lands in le="4" and stays counted in
  // every later bound; the open-ended observation only in +Inf.
  EXPECT_NE(text.find("rdc_espresso_iterations_per_call_bucket{le=\"4\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("rdc_espresso_iterations_per_call_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("rdc_espresso_iterations_per_call_sum 103"), std::string::npos);
  EXPECT_NE(text.find("rdc_espresso_iterations_per_call_count 2"), std::string::npos);
}

TEST(Metrics, WriteSnapshotFilePicksFormatByExtension) {
  TelemetryGuard guard;
  const Snapshot snap = metrics_snapshot();

  const std::string json_path = temp_path("metrics_snapshot.json");
  ASSERT_TRUE(write_snapshot_file(snap, json_path));
  std::string error;
  EXPECT_TRUE(parse_json(read_file(json_path), &error).has_value()) << error;
  // tmp+rename: no staging file left behind.
  EXPECT_EQ(std::fopen((json_path + ".tmp").c_str(), "r"), nullptr);

  const std::string prom_path = temp_path("metrics_snapshot.prom");
  ASSERT_TRUE(write_snapshot_file(snap, prom_path));
  EXPECT_NE(read_file(prom_path).find("# TYPE rdc_"), std::string::npos);

  std::remove(json_path.c_str());
  std::remove(prom_path.c_str());
}

// --- snapshotter ----------------------------------------------------------

TEST(Metrics, SnapshotterWritesAndShutsDownCleanly) {
  TelemetryGuard guard;
  const std::string path = temp_path("snapshotter_live.json");
  start_metrics_snapshotter(path, 1);
  // Give the thread a few intervals of real work to snapshot through.
  ThreadPool::global().parallel_for(0, 64, [](std::uint64_t) {
    count(Counter::kErrorRateCalls);
  });
  stop_metrics_snapshotter();

  // The final document is complete (never torn), parses, and carries the
  // required schema keys and a positive write index.
  const std::string text = read_file(path);
  std::string error;
  const auto doc = parse_json(text, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << text;
  EXPECT_EQ(doc->find("schema")->string, "rdc.metrics.v1");
  EXPECT_GE(doc->find("seq")->number, 1.0);
  EXPECT_EQ(std::fopen((path + ".tmp").c_str(), "r"), nullptr);

  // Idempotent stop.
  stop_metrics_snapshotter();
  std::remove(path.c_str());
}

TEST(Metrics, SnapshotterIntervalZeroWritesOnlyAtStop) {
  TelemetryGuard guard;
  const std::string path = temp_path("snapshotter_exit.json");
  std::remove(path.c_str());
  start_metrics_snapshotter(path, 0);
  EXPECT_EQ(std::fopen(path.c_str(), "r"), nullptr);  // nothing yet
  stop_metrics_snapshotter();
  std::string error;
  EXPECT_TRUE(parse_json(read_file(path), &error).has_value()) << error;
  std::remove(path.c_str());
}

// --- event log ------------------------------------------------------------

TEST(Events, CaptureAndSchema) {
  TelemetryGuard guard;
  set_events_capture(true);
  Record fields;
  fields.set("pass", "espresso");
  fields.set("wall_ms", 1.25);
  emit_event("pass.end", fields);
  emit_event("pipeline.end");

  const std::vector<std::string> lines = drain_events();
  ASSERT_EQ(lines.size(), 2u);
  std::string error;
  const auto first = parse_json(lines[0], &error);
  ASSERT_TRUE(first.has_value()) << error;
  // Header field order is part of the schema: schema, seq, ts_ns, tid,
  // event, then caller fields.
  ASSERT_GE(first->object.size(), 6u);
  EXPECT_EQ(first->object[0].first, "schema");
  EXPECT_EQ(first->object[1].first, "seq");
  EXPECT_EQ(first->object[2].first, "ts_ns");
  EXPECT_EQ(first->object[3].first, "tid");
  EXPECT_EQ(first->object[4].first, "event");
  EXPECT_EQ(first->find("schema")->string, "rdc.events.v1");
  EXPECT_EQ(first->find("event")->string, "pass.end");
  EXPECT_EQ(first->find("pass")->string, "espresso");
  EXPECT_EQ(first->find("wall_ms")->number, 1.25);

  const auto second = parse_json(lines[1], &error);
  ASSERT_TRUE(second.has_value()) << error;
  EXPECT_EQ(second->find("event")->string, "pipeline.end");
  // seq strictly increasing in emission order.
  EXPECT_LT(first->find("seq")->number, second->find("seq")->number);
}

TEST(Events, PipelineEmitsLifecycleEvents) {
  TelemetryGuard guard;
  set_events_capture(true);

  IncompleteSpec spec("evtest", 3, 1);
  for (auto& f : spec.outputs())
    for (std::uint32_t m = 0; m < f.size(); ++m)
      f.set_phase(m, (m & 1u) != 0u ? Phase::kOne : Phase::kZero);

  auto pipeline = flow::parse_pipeline("assign:zero | espresso");
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().to_string();
  flow::Design design(spec);
  ASSERT_TRUE(pipeline->run(design).ok());

  std::vector<std::string> events;
  for (const std::string& line : drain_events()) {
    const auto doc = parse_json(line);
    ASSERT_TRUE(doc.has_value());
    events.push_back(doc->find("event")->string);
    EXPECT_EQ(doc->find("circuit")->string, "evtest");
  }
  const std::vector<std::string> expected = {
      "pipeline.begin", "pass.begin", "pass.end",
      "pass.begin",     "pass.end",   "pipeline.end"};
  EXPECT_EQ(events, expected);
}

TEST(Events, BudgetTripEmitsExactlyOnce) {
  TelemetryGuard guard;
  set_events_capture(true);
  exec::ExecBudget budget = exec::ExecBudget::with_deadline_ms(0.000001);
  // Many checks, one trip event: the CAS winner emits.
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(budget.check_now().ok());

  int trips = 0;
  for (const std::string& line : drain_events()) {
    const auto doc = parse_json(line);
    ASSERT_TRUE(doc.has_value());
    if (doc->find("event")->string == "budget.trip") {
      ++trips;
      EXPECT_EQ(doc->find("code")->string, "DEADLINE_EXCEEDED");
      EXPECT_EQ(doc->find("limit")->string, "deadline");
    }
  }
  EXPECT_EQ(trips, 1);
}

TEST(Events, FaultPointEmitsOnFiringHit) {
  TelemetryGuard guard;
  set_events_capture(true);
  {
    FaultSpecGuard faults("sat:2");
    exec::fault_point(exec::FaultSite::kSat);  // hit 1: below trigger
    EXPECT_THROW(exec::fault_point(exec::FaultSite::kSat), exec::StatusError);
  }

  const std::vector<std::string> lines = drain_events();
  ASSERT_EQ(lines.size(), 1u);
  const auto doc = parse_json(lines[0]);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("event")->string, "fault.fired");
  EXPECT_EQ(doc->find("site")->string, "sat");
  EXPECT_EQ(doc->find("hit")->number, 2.0);
}

// --- perf diff ------------------------------------------------------------

std::string bench_doc(const std::vector<std::pair<std::string, double>>& rows) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("rdc.bench.report.v1");
  w.key("rows").begin_array();
  for (const auto& [name, time] : rows) {
    w.begin_object();
    w.key("name").value(name);
    w.key("real_time").value(time);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

TEST(PerfDiff, IdentityPassesAtThresholdZero) {
  const std::string doc = bench_doc({{"a", 100.0}, {"b", 250.0}});
  const PerfDiffResult result = diff_reports(doc, doc, {0.0});
  ASSERT_TRUE(result.parse_ok) << result.error;
  EXPECT_FALSE(result.has_regression());
  ASSERT_EQ(result.rows.size(), 2u);
  EXPECT_EQ(result.rows[0].ratio, 1.0);
}

TEST(PerfDiff, DetectsRegressionBeyondThreshold) {
  const std::string base = bench_doc({{"a", 100.0}, {"b", 100.0}});
  const std::string cand = bench_doc({{"a", 125.0}, {"b", 105.0}});
  const PerfDiffResult result = diff_reports(base, cand, {10.0});
  ASSERT_TRUE(result.parse_ok) << result.error;
  EXPECT_EQ(result.num_regressions(), 1u);
  EXPECT_TRUE(result.rows[0].regressed);   // a: +25%
  EXPECT_FALSE(result.rows[1].regressed);  // b: +5%, inside the noise floor
}

TEST(PerfDiff, RatioExactlyAtThresholdPasses) {
  // Strict '>' comparison: +10.0% at threshold 10 is not a regression.
  const std::string base = bench_doc({{"a", 100.0}});
  const std::string cand = bench_doc({{"a", 110.0}});
  EXPECT_FALSE(diff_reports(base, cand, {10.0}).has_regression());
  EXPECT_TRUE(diff_reports(base, cand, {9.9}).has_regression());
}

TEST(PerfDiff, UnmatchedRowsAreReportedNotRegressions) {
  const std::string base = bench_doc({{"a", 100.0}, {"gone", 50.0}});
  const std::string cand = bench_doc({{"a", 100.0}, {"new", 75.0}});
  const PerfDiffResult result = diff_reports(base, cand, {10.0});
  ASSERT_TRUE(result.parse_ok);
  EXPECT_FALSE(result.has_regression());
  ASSERT_EQ(result.only_baseline.size(), 1u);
  EXPECT_EQ(result.only_baseline[0], "gone");
  ASSERT_EQ(result.only_candidate.size(), 1u);
  EXPECT_EQ(result.only_candidate[0], "new");
}

TEST(PerfDiff, WallMsFallbackAndParseErrors) {
  JsonWriter w;
  w.begin_object();
  w.key("rows").begin_array();
  w.begin_object().key("name").value("flow").key("wall_ms").value(5.0);
  w.end_object();
  w.end_array();
  w.end_object();
  const PerfDiffResult ok = diff_reports(w.str(), w.str(), {0.0});
  ASSERT_TRUE(ok.parse_ok) << ok.error;
  EXPECT_EQ(ok.rows[0].metric, "wall_ms");

  EXPECT_FALSE(diff_reports("{not json", w.str(), {0.0}).parse_ok);
  EXPECT_FALSE(diff_reports("{}", w.str(), {0.0}).parse_ok);
  const std::string table =
      format_perf_diff(diff_reports("{}", w.str(), {0.0}), {0.0});
  EXPECT_NE(table.find("perf-diff error"), std::string::npos);
}

// --- trace escaping -------------------------------------------------------

TEST(TraceEscaping, HostileSpanAndThreadNamesProduceValidJson) {
  TelemetryGuard guard;
  const std::string path = temp_path("evil_trace.json");
  set_trace_mode(TraceMode::kJson, path);
  set_thread_name("worker \"zero\"\x01\x7f");
  {
    // Literal with an embedded quote, backslash, C0 control, and DEL —
    // every class the escaper must handle.
    Span span("evil \"span\" \\ name \x02\x7f");
    Span inner("tab\tname");
  }
  ASSERT_TRUE(write_chrome_trace(path));

  const std::string text = read_file(path);
  std::string error;
  const auto doc = parse_json(text, &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << text;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_span = false;
  for (const JsonValue& event : events->array) {
    const JsonValue* name = event.find("name");
    if (name != nullptr &&
        name->string == "evil \"span\" \\ name \x02\x7f")
      saw_span = true;
  }
  EXPECT_TRUE(saw_span);
  std::remove(path.c_str());
}

// --- concurrent summary + counters ---------------------------------------

TEST(TraceSummary, ConcurrentSpansAndCountersUnderNestedParallelFor) {
  TelemetryGuard guard;
  set_trace_mode(TraceMode::kCapture);
  set_counters_enabled(true);

  constexpr std::uint64_t kOuter = 8;
  constexpr std::uint64_t kInner = 16;
  ThreadPool::global().parallel_for(0, kOuter, [&](std::uint64_t) {
    RDC_SPAN("summary.outer");
    ThreadPool::global().parallel_for(0, kInner, [&](std::uint64_t) {
      RDC_SPAN("summary.inner");
      count(Counter::kErrorRateCalls);
    });
  });

  // Counter merge is exact regardless of scheduling.
  EXPECT_EQ(counter_total(Counter::kErrorRateCalls), kOuter * kInner);

  // Every span completed and the summary renders from the same buffers
  // without losing records. Spans are drained by the summary itself.
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  write_trace_summary(sink);
  std::fseek(sink, 0, SEEK_SET);
  std::string summary(1 << 14, '\0');
  summary.resize(std::fread(summary.data(), 1, summary.size(), sink));
  std::fclose(sink);
  EXPECT_NE(summary.find("summary.outer"), std::string::npos);
  EXPECT_NE(summary.find("summary.inner"), std::string::npos);
}

// --- perf spans (graceful degradation) ------------------------------------

TEST(Perf, ReadDegradesGracefullyWhenUnavailable) {
  // Whatever the host supports, the API must not crash and the validity
  // flag must be consistent: invalid reads produce invalid deltas and
  // invalid counts never leak into FlowReport JSON.
  const PerfCounts a = perf_read();
  const PerfCounts b = perf_read();
  const PerfCounts delta = perf_delta(a, b);
  if (!perf_available()) {
    EXPECT_FALSE(a.valid);
    EXPECT_FALSE(delta.valid);
  }
  FlowReport report;
  report.phases.push_back({"phase", 1.0, delta});
  const std::string json = report.to_json();
  if (!delta.valid) {
    EXPECT_EQ(json.find("cycles"), std::string::npos);
    EXPECT_EQ(json.find("\"perf\""), std::string::npos);
  } else {
    EXPECT_NE(json.find("cycles"), std::string::npos);
    EXPECT_NE(json.find("\"perf\""), std::string::npos);
  }
  std::string error;
  EXPECT_TRUE(parse_json(json, &error).has_value()) << error;
}

}  // namespace
}  // namespace rdc::obs
