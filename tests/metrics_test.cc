// Tests for the observability layer: base/metrics.h (process-wide
// counters / gauges / histograms with per-thread shards), base/trace.h
// (RAII phase spans), and base/report.h (the JSON document model and the
// run-report schema shared by the bench binaries and rav_cli).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "base/metrics.h"
#include "base/report.h"
#include "base/trace.h"

namespace rav {
namespace {

using metrics::MetricKind;
using metrics::MetricSnapshot;

const MetricSnapshot* FindMetric(const std::vector<MetricSnapshot>& snapshot,
                                 const std::string& name) {
  for (const MetricSnapshot& m : snapshot) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

const trace::SpanSnapshot* FindSpan(
    const std::vector<trace::SpanSnapshot>& spans, const std::string& path) {
  for (const trace::SpanSnapshot& s : spans) {
    if (s.path == path) return &s;
  }
  return nullptr;
}

TEST(MetricsTest, CounterAccumulates) {
  metrics::ResetForTest();
  metrics::Counter& c = metrics::GetCounter("test/counter/basic");
  c.Add();
  c.Add(41);
  const std::vector<MetricSnapshot> snapshot = metrics::Snapshot();
  const MetricSnapshot* m = FindMetric(snapshot, "test/counter/basic");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kCounter);
  EXPECT_EQ(m->value, 42u);
}

TEST(MetricsTest, MacroCachesHandleAndCounts) {
  metrics::ResetForTest();
  for (int i = 0; i < 10; ++i) RAV_METRIC_COUNT("test/counter/macro", 2);
  const std::vector<MetricSnapshot> snapshot = metrics::Snapshot();
  const MetricSnapshot* m = FindMetric(snapshot, "test/counter/macro");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 20u);
}

// The core shard-merge guarantee: increments from many threads — some
// exited (their shards retired into the registry totals), some counted
// while the snapshot loop runs elsewhere — sum exactly once joined.
TEST(MetricsTest, ConcurrentCountersMergeExactly) {
  metrics::ResetForTest();
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      metrics::Counter& c = metrics::GetCounter("test/counter/concurrent");
      for (int i = 0; i < kIncrements; ++i) c.Add();
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<MetricSnapshot> snapshot = metrics::Snapshot();
  const MetricSnapshot* m = FindMetric(snapshot, "test/counter/concurrent");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, static_cast<uint64_t>(kThreads) * kIncrements);
}

TEST(MetricsTest, GaugeKeepsLastValue) {
  metrics::ResetForTest();
  RAV_METRIC_SET("test/gauge/last", 7);
  RAV_METRIC_SET("test/gauge/last", -3);
  const std::vector<MetricSnapshot> snapshot = metrics::Snapshot();
  const MetricSnapshot* m = FindMetric(snapshot, "test/gauge/last");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kGauge);
  EXPECT_EQ(static_cast<int64_t>(m->value), -3);
}

TEST(MetricsTest, HistogramBucketsByBitWidth) {
  metrics::ResetForTest();
  metrics::Histogram& h = metrics::GetHistogram("test/histogram/buckets");
  // value 0 -> bucket 0, 1 -> bucket 1, [2,4) -> bucket 2, [4,8) -> 3...
  h.Record(0);
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(100);
  const std::vector<MetricSnapshot> snapshot = metrics::Snapshot();
  const MetricSnapshot* m = FindMetric(snapshot, "test/histogram/buckets");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kHistogram);
  EXPECT_EQ(m->histogram.count, 5u);
  EXPECT_EQ(m->histogram.sum, 106u);
  EXPECT_EQ(m->histogram.min, 0u);
  EXPECT_EQ(m->histogram.max, 100u);
  EXPECT_EQ(m->histogram.buckets[0], 1u);
  EXPECT_EQ(m->histogram.buckets[1], 1u);
  EXPECT_EQ(m->histogram.buckets[2], 2u);
  EXPECT_EQ(m->histogram.buckets[7], 1u);  // 100 is in [64, 128)
}

TEST(MetricsTest, HistogramExtremaAcrossThreads) {
  metrics::ResetForTest();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t] {
      metrics::Histogram& h = metrics::GetHistogram("test/histogram/extrema");
      h.Record(static_cast<uint64_t>(10 * (t + 1)));
    });
  }
  for (std::thread& t : threads) t.join();
  const std::vector<MetricSnapshot> snapshot = metrics::Snapshot();
  const MetricSnapshot* m = FindMetric(snapshot, "test/histogram/extrema");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->histogram.count, 4u);
  EXPECT_EQ(m->histogram.min, 10u);
  EXPECT_EQ(m->histogram.max, 40u);
}

TEST(MetricsTest, ResetZeroesWithoutInvalidatingHandles) {
  metrics::ResetForTest();
  metrics::Counter& c = metrics::GetCounter("test/counter/reset");
  c.Add(5);
  metrics::ResetForTest();
  const std::vector<MetricSnapshot> snapshot = metrics::Snapshot();
  const MetricSnapshot* m = FindMetric(snapshot, "test/counter/reset");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 0u);
  c.Add(2);  // old handle still works
  const std::vector<MetricSnapshot> after = metrics::Snapshot();
  m = FindMetric(after, "test/counter/reset");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->value, 2u);
}

TEST(TraceTest, SpansNestIntoSlashPaths) {
  trace::ResetForTest();
  {
    RAV_TRACE_SPAN("outer");
    {
      RAV_TRACE_SPAN("inner");
    }
    {
      RAV_TRACE_SPAN("inner");
    }
  }
  std::vector<trace::SpanSnapshot> spans = trace::Snapshot();
  const trace::SpanSnapshot* outer = FindSpan(spans, "outer");
  const trace::SpanSnapshot* inner = FindSpan(spans, "outer/inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->count, 1u);
  EXPECT_EQ(inner->count, 2u);
  EXPECT_GE(outer->total_ns, inner->total_ns);
  EXPECT_LE(inner->min_ns, inner->max_ns);
  // No bare "inner" root: the nested span aggregated under its parent.
  EXPECT_EQ(FindSpan(spans, "inner"), nullptr);
}

TEST(TraceTest, WorkerThreadsStartFreshRoots) {
  trace::ResetForTest();
  {
    RAV_TRACE_SPAN("parent");
    std::thread worker([] {
      RAV_TRACE_SPAN("worker_phase");
    });
    worker.join();
  }
  std::vector<trace::SpanSnapshot> spans = trace::Snapshot();
  // The worker's span is a root of its own thread, not a child of the
  // span that happened to be open on the spawning thread.
  EXPECT_NE(FindSpan(spans, "worker_phase"), nullptr);
  EXPECT_EQ(FindSpan(spans, "parent/worker_phase"), nullptr);
}

TEST(JsonTest, DumpIsDeterministicAndTyped) {
  Json obj = Json::Object();
  obj.Set("b", Json::Number(2));
  obj.Set("a", Json::String("x \"quoted\"\n"));
  obj.Set("flag", Json::Bool(true));
  obj.Set("nothing", Json::Null());
  Json arr = Json::Array();
  arr.Append(Json::Number(1.5));
  arr.Append(Json::Number(static_cast<int64_t>(-7)));
  obj.Set("list", std::move(arr));
  // Insertion order is preserved; integral numbers have no decimal point.
  EXPECT_EQ(obj.Dump(),
            "{\"b\":2,\"a\":\"x \\\"quoted\\\"\\n\",\"flag\":true,"
            "\"nothing\":null,\"list\":[1.5,-7]}");
}

TEST(JsonTest, ParseRoundTrips) {
  const std::string text =
      "{\"b\": 2, \"a\": \"x \\\"quoted\\\"\\n\", \"flag\": true,"
      " \"nothing\": null, \"list\": [1.5, -7], \"u\": \"\\u00e9\"}";
  Result<Json> parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Find("b")->number_value(), 2);
  EXPECT_EQ(parsed->Find("a")->string_value(), "x \"quoted\"\n");
  EXPECT_TRUE(parsed->Find("flag")->bool_value());
  EXPECT_EQ(parsed->Find("list")->size(), 2u);
  EXPECT_EQ(parsed->Find("u")->string_value(), "\u00e9");
  // Re-dumping the parse of a dump is a fixpoint.
  EXPECT_EQ(Json::Parse(parsed->Dump())->Dump(), parsed->Dump());
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1, ]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
}

TEST(JsonTest, NestingDeeperThanTheCapIsAParseError) {
  // `depth` arrays (or single-key objects) around a number.
  auto nested = [](int depth, bool objects) {
    std::string text;
    for (int i = 0; i < depth; ++i) text += objects ? "{\"a\":" : "[";
    text += "0";
    text += std::string(depth, objects ? '}' : ']');
    return text;
  };
  const int cap = Json::kMaxParseDepth;
  EXPECT_TRUE(Json::Parse(nested(cap, /*objects=*/false)).ok());
  EXPECT_TRUE(Json::Parse(nested(cap, /*objects=*/true)).ok());
  Result<Json> too_deep = Json::Parse(nested(cap + 1, /*objects=*/false));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_NE(too_deep.status().message().find("nesting deeper than 256"),
            std::string::npos)
      << too_deep.status().ToString();
  EXPECT_FALSE(Json::Parse(nested(cap + 1, /*objects=*/true)).ok());
  // The crash input: far past the cap, unterminated. Rejected after the
  // cap's worth of recursion, not after 200k frames.
  EXPECT_FALSE(Json::Parse(std::string(200000, '[')).ok());
}

// Golden schema: the exact top-level rendering of an empty report. Keys
// and their order are the public contract of `--report` (consumed by
// report_merge and tools/run_ci.sh); a change here is a schema change and
// must bump schema_version.
TEST(ReportTest, GoldenSchemaRendering) {
  RunReport report;
  report.experiment = "E0";
  report.claim = "golden";
  report.verdict = "ok";
  report.wall_ms = 12.5;
  EXPECT_EQ(ReportToJson(report).Dump(),
            "{\"schema_version\":1,\"experiment\":\"E0\",\"claim\":\"golden\","
            "\"params\":{},\"metrics\":{},\"spans\":[],"
            "\"verdict\":\"ok\",\"wall_ms\":12.5}");
}

TEST(ReportTest, ValidatorAcceptsRealReportAndListsAllProblems) {
  RunReport report;
  report.experiment = "E1";
  report.claim = "c";
  report.verdict = "ok";
  Json good = ReportToJson(report);
  EXPECT_TRUE(ValidateReportJson(good).ok());

  Json bad = Json::Object();
  bad.Set("experiment", Json::Number(3));  // wrong type
  bad.Set("claim", Json::String("c"));
  Status status = ValidateReportJson(bad);
  ASSERT_FALSE(status.ok());
  // Every problem is listed, not just the first.
  const std::string message(status.message());
  EXPECT_NE(message.find("experiment"), std::string::npos);
  EXPECT_NE(message.find("params"), std::string::npos);
  EXPECT_NE(message.find("wall_ms"), std::string::npos);
}

TEST(ReportTest, CaptureBridgesMetricsAndSpans) {
  metrics::ResetForTest();
  trace::ResetForTest();
  RAV_METRIC_COUNT("test/report/counter", 3);
  RAV_METRIC_RECORD("test/report/sizes", 5);
  {
    RAV_TRACE_SPAN("test_report_phase");
  }
  Json process = CaptureProcessMetrics();
  ASSERT_TRUE(process.is_object());
  const Json* counter = process.Find("test/report/counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->number_value(), 3);
  const Json* sizes = process.Find("test/report/sizes");
  ASSERT_NE(sizes, nullptr);
  ASSERT_TRUE(sizes->is_object());
  EXPECT_EQ(sizes->Find("count")->number_value(), 1);
  EXPECT_EQ(sizes->Find("sum")->number_value(), 5);

  Json spans = CaptureSpans();
  ASSERT_TRUE(spans.is_array());
  bool found = false;
  for (const Json& span : spans.items()) {
    if (span.Find("path")->string_value() == "test_report_phase") {
      found = true;
      EXPECT_EQ(span.Find("count")->number_value(), 1);
      EXPECT_GE(span.Find("total_ms")->number_value(), 0.0);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace rav
