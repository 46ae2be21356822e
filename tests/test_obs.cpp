// Tests for the rdc::obs observability layer: scoped spans (capture mode,
// nesting, pool fan-out, disabled-mode silence), sharded counters and
// histograms (merge correctness at different thread counts), the JSON
// writer/parser pair, and the FlowReport / RunReport round trips.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"

namespace rdc::obs {
namespace {

/// Resets trace + counter state around each test so the cases compose in
/// one process (and with the rest of the suite) in any order.
class ObsGuard {
 public:
  ObsGuard() {
    drain_spans();
    reset_counters();
  }
  ~ObsGuard() {
    drain_spans();
    reset_counters();
    set_trace_mode(TraceMode::kOff);
    set_counters_enabled(false);
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// --- JSON writer / parser ------------------------------------------------

TEST(ObsJson, WriterParserRoundTrip) {
  JsonWriter w;
  w.begin_object();
  w.key("pi").value(3.141592653589793);
  w.key("tiny").value(1e-300);
  w.key("neg").value(std::int64_t{-42});
  w.key("big").value(std::uint64_t{1} << 63);
  w.key("text").value("line\n\"quoted\" back\\slash tab\t");
  w.key("flag").value(true);
  w.key("nothing").raw("null");
  w.key("list").begin_array();
  w.value(std::uint64_t{1}).value("two").value(false);
  w.end_array();
  w.key("nested").begin_object().key("k").value("v").end_object();
  w.end_object();

  std::string error;
  const auto doc = parse_json(w.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->find("pi")->number, 3.141592653589793);
  EXPECT_EQ(doc->find("tiny")->number, 1e-300);
  EXPECT_EQ(doc->find("neg")->number, -42.0);
  EXPECT_EQ(doc->find("big")->number,
            static_cast<double>(std::uint64_t{1} << 63));
  EXPECT_EQ(doc->find("text")->string, "line\n\"quoted\" back\\slash tab\t");
  EXPECT_TRUE(doc->find("flag")->boolean);
  EXPECT_TRUE(doc->find("nothing")->is_null());
  ASSERT_TRUE(doc->find("list")->is_array());
  ASSERT_EQ(doc->find("list")->array.size(), 3u);
  EXPECT_EQ(doc->find("list")->array[1].string, "two");
  EXPECT_EQ(doc->find("nested")->find("k")->string, "v");
  EXPECT_EQ(doc->find("absent"), nullptr);
}

TEST(ObsJson, ObjectMembersKeepSourceOrder) {
  const auto doc = parse_json(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->object.size(), 3u);
  EXPECT_EQ(doc->object[0].first, "z");
  EXPECT_EQ(doc->object[1].first, "a");
  EXPECT_EQ(doc->object[2].first, "m");
}

TEST(ObsJson, ParsesUnicodeEscapes) {
  const auto doc = parse_json(R"(["Aé€"])");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->array[0].string, "A\xC3\xA9\xE2\x82\xAC");
}

TEST(ObsJson, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\": }", &error).has_value());
  EXPECT_FALSE(parse_json("[1, 2,]", &error).has_value());
  EXPECT_FALSE(parse_json("true false", &error).has_value());  // garbage
  EXPECT_FALSE(parse_json("nul", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(ObsJson, NumbersAreByteDeterministic) {
  // Two writers fed the same values must emit identical bytes — the
  // property the cross-thread-count report diffing relies on.
  const auto emit = [] {
    JsonWriter w;
    w.begin_array();
    w.value(0.1).value(1.0 / 3.0).value(12345.6789).value(std::uint64_t{7});
    w.end_array();
    return w.str();
  };
  EXPECT_EQ(emit(), emit());
}

// --- Spans ---------------------------------------------------------------

TEST(ObsTrace, CaptureRecordsNestedSpans) {
  ObsGuard guard;
  set_trace_mode(TraceMode::kCapture);
  {
    RDC_SPAN("outer");
    RDC_SPAN("inner");
  }
  const std::vector<SpanRecord> spans = drain_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0u);
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1u);
  EXPECT_LE(spans[0].start_ns, spans[1].start_ns);
  EXPECT_GE(spans[0].duration_ns, spans[1].duration_ns);
  EXPECT_TRUE(drain_spans().empty());  // drained exactly once
}

TEST(ObsTrace, SpansRecordedAcrossPoolWorkers) {
  ObsGuard guard;
  set_trace_mode(TraceMode::kCapture);
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  pool.parallel_for(0, 32, [&](std::uint64_t) {
    RDC_SPAN("task");
    ran.fetch_add(1);
  });
  EXPECT_EQ(ran.load(), 32);
  const std::vector<SpanRecord> spans = drain_spans();
  int tasks = 0;
  int dispatches = 0;
  for (const SpanRecord& span : spans) {
    if (std::string_view(span.name) == "task") ++tasks;
    if (std::string_view(span.name) == "pool.parallel_for") ++dispatches;
  }
  // Every index produced a span regardless of which worker ran it, and the
  // pooled dispatch itself was covered by exactly one span.
  EXPECT_EQ(tasks, 32);
  EXPECT_EQ(dispatches, 1);
}

TEST(ObsTrace, DisabledRecordsNothing) {
  ObsGuard guard;
  set_trace_mode(TraceMode::kOff);
  EXPECT_FALSE(trace_enabled());
  {
    RDC_SPAN("invisible");
    RDC_SPAN("also_invisible");
  }
  EXPECT_TRUE(drain_spans().empty());
}

TEST(ObsTrace, ChromeTraceExportIsValidJson) {
  ObsGuard guard;
  set_trace_mode(TraceMode::kCapture);
  set_thread_name("test-main");
  {
    RDC_SPAN("phase_a");
    RDC_SPAN("phase_b");
  }
  const std::string path = testing::TempDir() + "rdc_obs_trace_test.json";
  ASSERT_TRUE(write_chrome_trace(path));
  std::string error;
  const auto doc = parse_json(read_file(path), &error);
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  int durations = 0;
  bool named_thread = false;
  for (const JsonValue& event : events->array) {
    const std::string& ph = event.find("ph")->string;
    if (ph == "X") {
      ++durations;
      EXPECT_NE(event.find("ts"), nullptr);
      EXPECT_NE(event.find("dur"), nullptr);
      EXPECT_NE(event.find("tid"), nullptr);
    } else if (ph == "M" && event.find("args")->find("name")->string ==
                                "test-main") {
      named_thread = true;
    }
  }
  EXPECT_EQ(durations, 2);
  EXPECT_TRUE(named_thread);
}

// --- Counters and histograms --------------------------------------------

TEST(ObsCounters, DisabledIsNoOp) {
  ObsGuard guard;
  set_counters_enabled(false);
  count(Counter::kEspressoCalls, 5);
  observe(Histo::kEspressoIterations, 7);
  EXPECT_EQ(counter_total(Counter::kEspressoCalls), 0u);
  EXPECT_EQ(histo_total(Histo::kEspressoIterations).count, 0u);
}

TEST(ObsCounters, MergeIsExactAtAnyThreadCount) {
  ObsGuard guard;
  set_counters_enabled(true);
  std::uint64_t reference_calls = 0;
  std::uint64_t reference_sum = 0;
  for (const unsigned threads : {1u, 4u}) {
    reset_counters();
    ThreadPool pool(threads);
    pool.parallel_for(0, 500, [](std::uint64_t i) {
      count(Counter::kEspressoCalls);
      count(Counter::kEspressoIterations, i);
    });
    const std::uint64_t calls = counter_total(Counter::kEspressoCalls);
    const std::uint64_t sum = counter_total(Counter::kEspressoIterations);
    EXPECT_EQ(calls, 500u);
    EXPECT_EQ(sum, 500u * 499u / 2);
    // parallel_for's own accounting is index arithmetic — also exact.
    EXPECT_EQ(counter_total(Counter::kPoolJobs), 1u);
    EXPECT_EQ(counter_total(Counter::kPoolTasks), 500u);
    if (threads == 1u) {
      reference_calls = calls;
      reference_sum = sum;
    } else {
      EXPECT_EQ(calls, reference_calls);
      EXPECT_EQ(sum, reference_sum);
    }
  }
}

TEST(ObsCounters, HistogramBucketsAndMoments) {
  ObsGuard guard;
  set_counters_enabled(true);
  observe(Histo::kEspressoIterations, 0);   // bucket 0 holds {0, 1}
  observe(Histo::kEspressoIterations, 1);   // bucket 0
  observe(Histo::kEspressoIterations, 2);   // bucket 1 holds {2}
  observe(Histo::kEspressoIterations, 3);   // bucket 2 holds {3, 4}
  observe(Histo::kEspressoIterations, 4);   // bucket 2
  observe(Histo::kEspressoIterations, 17);  // bucket 5 holds {17..32}
  const HistoData data = histo_total(Histo::kEspressoIterations);
  EXPECT_EQ(data.count, 6u);
  EXPECT_EQ(data.sum, 27u);
  EXPECT_DOUBLE_EQ(data.mean(), 27.0 / 6.0);
  EXPECT_EQ(data.buckets[0], 2u);
  EXPECT_EQ(data.buckets[1], 1u);
  EXPECT_EQ(data.buckets[2], 2u);
  EXPECT_EQ(data.buckets[5], 1u);
}

TEST(ObsCounters, NamesAndDeterminismFlags) {
  EXPECT_STREQ(counter_name(Counter::kErrorRateCalls), "error_rate.calls");
  EXPECT_STREQ(counter_name(Counter::kPoolBusyNs), "pool.busy_ns");
  EXPECT_TRUE(counter_is_deterministic(Counter::kPoolTasks));
  EXPECT_FALSE(counter_is_deterministic(Counter::kPoolBusyNs));
  EXPECT_FALSE(counter_is_deterministic(Counter::kPoolWorkerTasks));
  for (unsigned i = 0; i < kNumCounters; ++i)
    EXPECT_NE(counter_name(static_cast<Counter>(i)), nullptr);
}

// --- Reports -------------------------------------------------------------

TEST(ObsReport, FlowReportRoundTrip) {
  FlowReport report;
  report.phases.push_back({"espresso", 1.25, {}});
  report.phases.push_back({"map", 0.5, {}});
  report.metrics.set("gates", 42);
  report.metrics.set("area", 17.5);
  ASSERT_EQ(report.phases.size(), 2u);
  EXPECT_NE(report.find_phase("espresso"), nullptr);
  EXPECT_EQ(report.find_phase("missing"), nullptr);
  EXPECT_DOUBLE_EQ(report.total_ms(), 1.75);

  std::string error;
  const auto doc = parse_json(report.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->string, "rdc.flow.report.v1");
  ASSERT_TRUE(doc->find("phases")->is_array());
  EXPECT_EQ(doc->find("phases")->array.size(), 2u);
  EXPECT_EQ(doc->find("phases")->array[0].find("name")->string, "espresso");
  EXPECT_EQ(doc->find("metrics")->find("gates")->number, 42.0);
  EXPECT_EQ(doc->find("metrics")->find("area")->number, 17.5);
}

TEST(ObsReport, RunReportRoundTrip) {
  ObsGuard guard;
  set_counters_enabled(true);
  count(Counter::kErrorRateCalls, 3);
  count(Counter::kPoolBusyNs, 999);  // non-deterministic: must be excluded

  RunReport report("unit_test");
  report.meta().set("note", "round trip");
  Record& row = report.add_row();
  row.set("name", "circuit0");
  row.set("error_rate", 0.123456789012345);
  row.set("gates", 7);
  EXPECT_EQ(report.num_rows(), 1u);

  std::string error;
  const auto doc = parse_json(report.to_json(), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->find("schema")->string, "rdc.bench.report.v1");
  EXPECT_EQ(doc->find("suite")->string, "unit_test");
  EXPECT_FALSE(doc->find("git_rev")->string.empty());
  EXPECT_GE(doc->find("threads")->number, 1.0);
  EXPECT_EQ(doc->find("meta")->find("note")->string, "round trip");
  ASSERT_EQ(doc->find("rows")->array.size(), 1u);
  const JsonValue& parsed_row = doc->find("rows")->array[0];
  EXPECT_EQ(parsed_row.find("name")->string, "circuit0");
  // to_chars emission + from_chars parsing: doubles survive exactly.
  EXPECT_EQ(parsed_row.find("error_rate")->number, 0.123456789012345);
  EXPECT_EQ(parsed_row.find("gates")->number, 7.0);

  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("error_rate.calls"), nullptr);
  EXPECT_EQ(counters->find("error_rate.calls")->number, 3.0);
  EXPECT_EQ(counters->find("pool.busy_ns"), nullptr);
  EXPECT_EQ(counters->find("pool.worker_tasks"), nullptr);
}

TEST(ObsReport, RecordOverwritesInPlace) {
  Record record;
  record.set("k", 1);
  record.set("k", 2);  // same key: updated, not duplicated
  record.set("later", true);
  JsonWriter w;
  record.write(w);
  const auto doc = parse_json(w.str());
  ASSERT_TRUE(doc.has_value());
  ASSERT_EQ(doc->object.size(), 2u);
  EXPECT_EQ(doc->object[0].first, "k");
  EXPECT_EQ(doc->object[0].second.number, 2.0);
}

TEST(ObsReport, WriteFileAndValidate) {
  ObsGuard guard;
  RunReport report("file_test");
  report.add_row().set("name", "x");
  const std::string path = testing::TempDir() + "rdc_obs_report_test.json";
  ASSERT_TRUE(report.write_file(path));
  const auto doc = parse_json(read_file(path));
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("suite")->string, "file_test");
}

}  // namespace
}  // namespace rdc::obs
