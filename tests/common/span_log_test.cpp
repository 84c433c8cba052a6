// SpanLog: trace-identity minting, span capture, the Chrome / JSONL
// exports (node cycles and zero-duration instants included), and the
// per-phase latency fold into a MetricsRegistry.
#include "common/span_log.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/metrics.hpp"

namespace la::trace {
namespace {

TEST(Mix64, NeverZeroAndWellSpread) {
  EXPECT_NE(mix64(0), 0u);
  std::set<u64> seen;
  for (u64 i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
  EXPECT_EQ(seen.count(0), 0u);  // 0 is the no-trace sentinel, never an id
}

TEST(SpanLog, MintedRootsAreUniqueNonZeroAndParentless) {
  SpanLog log;
  std::set<u64> traces;
  for (int i = 0; i < 100; ++i) {
    const TraceContext c = log.mint();
    EXPECT_TRUE(c.valid());
    EXPECT_NE(c.span_id, 0u);
    EXPECT_EQ(c.parent_span_id, 0u);
    traces.insert(c.trace_id);
  }
  EXPECT_EQ(traces.size(), 100u);
}

TEST(SpanLog, ChildSharesTraceWithFreshSpanId) {
  SpanLog log;
  const TraceContext root = log.mint();
  const TraceContext kid = log.child(root);
  EXPECT_EQ(kid.trace_id, root.trace_id);
  EXPECT_NE(kid.span_id, root.span_id);
  EXPECT_NE(kid.span_id, 0u);
  EXPECT_EQ(kid.parent_span_id, root.span_id);
}

TEST(JobTrace, InactiveHandleIsANoOp) {
  const JobTrace none;  // no log
  EXPECT_FALSE(none.active());
  none.phase("run", 0.0, 1.0);  // must not crash
  EXPECT_DOUBLE_EQ(none.now_us(), 0.0);

  SpanLog log;
  JobTrace untraced;  // log but zero (invalid) context
  untraced.log = &log;
  EXPECT_FALSE(untraced.active());
  untraced.phase("run", 0.0, 1.0);
  EXPECT_EQ(log.size(), 0u);
}

TEST(JobTrace, PhaseEmitsAChildSpanOfTheJobRoot) {
  SpanLog log;
  JobTrace jt;
  jt.log = &log;
  jt.ctx = log.mint();
  jt.pid = 3;
  jt.tid = 2;
  jt.phase("run", 10.0, 25.5, 42, "cfg-a");
  const auto spans = log.spans();
  ASSERT_EQ(spans.size(), 1u);
  const Span& s = spans[0];
  EXPECT_EQ(s.trace_id, jt.ctx.trace_id);
  EXPECT_EQ(s.parent_span_id, jt.ctx.span_id);
  EXPECT_NE(s.span_id, jt.ctx.span_id);
  EXPECT_EQ(s.name, "run");
  EXPECT_EQ(s.note, "cfg-a");
  EXPECT_EQ(s.pid, 3u);
  EXPECT_EQ(s.tid, 2u);
  EXPECT_DOUBLE_EQ(s.start_us, 10.0);
  EXPECT_DOUBLE_EQ(s.dur_us, 15.5);
  EXPECT_EQ(s.cycle, 42u);
}

TEST(JobTrace, BackwardsClockClampsToZeroDuration) {
  SpanLog log;
  JobTrace jt;
  jt.log = &log;
  jt.ctx = log.mint();
  jt.phase("run", 20.0, 10.0);  // end before start: never a negative span
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log.spans()[0].dur_us, 0.0);
}

TEST(SpanLog, ChromeExportCarriesLaneMetadataAndCompleteEvents) {
  SpanLog log;
  log.set_process_name(1, "node 0");
  log.set_process_name(2, "node 1");
  log.set_thread_name(1, 1, "worker 0");

  Span s;
  s.trace_id = 0xabcd;
  s.span_id = 0x1234;
  s.name = "run";
  s.pid = 2;
  s.tid = 1;
  s.start_us = 5.0;
  s.dur_us = 7.0;
  log.add(s);

  const std::string j = log.to_chrome_json();
  EXPECT_EQ(j.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(j.find("\"process_name\""), std::string::npos);
  EXPECT_NE(j.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(j.find("\"node 0\""), std::string::npos);
  EXPECT_NE(j.find("\"node 1\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  // The span rides on its node's lane with its trace identity in args.
  EXPECT_NE(j.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(j.find("000000000000abcd"), std::string::npos);
}

TEST(SpanLog, LaneNamesLandAsMetadataRecordsOnTheirLane) {
  SpanLog log;
  log.set_process_name(3, "node 2");
  log.set_thread_name(3, 2, "worker 2");
  Span s;
  s.trace_id = 1;
  s.name = "mark";
  s.pid = 3;
  s.tid = 2;
  log.add(s);

  const std::string j = log.to_chrome_json();
  // Metadata names the lane; the event rides on it.
  EXPECT_NE(j.find("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":3,"
                   "\"tid\":0,\"args\":{\"name\":\"node 2\"}}"),
            std::string::npos);
  EXPECT_NE(j.find("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":3,"
                   "\"tid\":2,\"args\":{\"name\":\"worker 2\"}}"),
            std::string::npos);
  EXPECT_NE(j.find("\"name\":\"mark\""), std::string::npos);
  EXPECT_NE(j.find("\"pid\":3,\"tid\":2"), std::string::npos);
}

TEST(SpanLog, InstantExportsWithZeroDurationAndBothCycles) {
  SpanLog log;
  Span s;
  s.trace_id = 3;
  s.span_id = 4;
  s.name = "fault.sram";
  s.start_us = 9.0;
  s.start_cycle = 1200;
  s.cycle = 1200;
  log.add(s);

  const std::string j = log.to_chrome_json();
  EXPECT_NE(j.find("\"ph\":\"X\",\"ts\":9,\"dur\":0,"), std::string::npos);
  EXPECT_NE(j.find("\"start_cycle\":1200,\"cycle\":1200"), std::string::npos);
  const std::string l = log.to_jsonl();
  EXPECT_NE(l.find("\"dur_us\":0,\"start_cycle\":1200,\"cycle\":1200"),
            std::string::npos);
}

TEST(SpanLog, ChromeExportIsTimeOrderedAndOmitsUnknownCycles) {
  SpanLog log;
  for (const double start : {30.0, 10.0, 20.0}) {
    Span s;
    s.trace_id = 1;
    s.name = "at" + std::to_string(static_cast<int>(start));
    s.start_us = start;
    s.dur_us = 1.0;
    log.add(s);
  }
  const std::string j = log.to_chrome_json();
  EXPECT_LT(j.find("\"at10\""), j.find("\"at20\""));
  EXPECT_LT(j.find("\"at20\""), j.find("\"at30\""));
  // A host-only span (no node clock) carries no cycle fields.
  EXPECT_EQ(j.find("cycle"), std::string::npos);
}

TEST(SpanLog, JsonlEmitsOneObjectPerSpanInAppendOrder) {
  SpanLog log;
  for (int i = 0; i < 2; ++i) {
    Span s;
    s.trace_id = 7;
    s.span_id = static_cast<u64>(i + 1);
    s.name = i == 0 ? "first" : "second";
    log.add(s);
  }
  const std::string j = log.to_jsonl();
  ASSERT_FALSE(j.empty());
  EXPECT_EQ(j.back(), '\n');
  std::size_t lines = 0;
  for (const char c : j) lines += c == '\n';
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(j.find("{\"trace_id\":\""), 0u);
  EXPECT_LT(j.find("\"first\""), j.find("\"second\""));
}

TEST(SpanLog, ObservePhaseLatenciesFoldsHistogramsAndPercentiles) {
  SpanLog log;
  for (int i = 1; i <= 100; ++i) {
    Span s;
    s.trace_id = 1;
    s.span_id = static_cast<u64>(i);
    s.name = "run";
    s.dur_us = static_cast<double>(i);
    log.add(s);
  }
  metrics::MetricsRegistry reg;
  log.observe_phase_latencies(reg, "farm.phase.");
  const metrics::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.count("farm.phase.run_us"), 1u);
  EXPECT_EQ(snap.histograms.at("farm.phase.run_us").count, 100u);
  // Nearest-rank percentiles over 1..100 are exact.
  EXPECT_DOUBLE_EQ(snap.value_or("farm.phase.run.p50_us"), 50.0);
  EXPECT_DOUBLE_EQ(snap.value_or("farm.phase.run.p95_us"), 95.0);
  EXPECT_DOUBLE_EQ(snap.value_or("farm.phase.run.p99_us"), 99.0);
}

}  // namespace
}  // namespace la::trace
