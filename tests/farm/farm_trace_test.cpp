// Fleet-wide causal tracing through the farm: every submitted job gets a
// trace identity, every phase lands in the shared span log, the Chrome
// export keeps one lane per node, and per-phase latencies fold into the
// fleet report.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "farm/farm.hpp"
#include "farm/workload.hpp"

namespace la::farm {
namespace {

TEST(FarmTrace, EveryJobCarriesADistinctTraceThroughItsPhases) {
  FarmConfig fc;
  fc.nodes = 2;
  fc.tracing = true;
  LiquidFarm f(fc);

  WorkloadConfig wc;
  wc.seed = 21;
  WorkloadGenerator gen(wc);
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();

  std::set<u64> traces;
  while (auto out = f.try_pop_result()) {
    ASSERT_TRUE(out->result.ok) << out->result.error;
    EXPECT_NE(out->trace_id, 0u);
    traces.insert(out->trace_id);
  }
  EXPECT_EQ(traces.size(), 12u);  // one trace per job, no sharing

  // Each trace's spans cover the job's life: the wait in the scheduler,
  // the run itself, and the root "job" span — all under one trace_id.
  std::map<u64, std::set<std::string>> phases;
  for (const auto& s : f.span_log().spans()) {
    ASSERT_NE(s.trace_id, 0u);
    phases[s.trace_id].insert(s.name);
  }
  EXPECT_EQ(phases.size(), 12u);
  for (const auto& [id, names] : phases) {
    EXPECT_EQ(names.count("queue_wait"), 1u) << "trace " << id;
    EXPECT_EQ(names.count("run"), 1u) << "trace " << id;
    EXPECT_EQ(names.count("job"), 1u) << "trace " << id;
  }
}

TEST(FarmTrace, ColdLoadCaptureIsASnapshotSpanOfItsJob) {
  FarmConfig fc;
  fc.nodes = 1;
  fc.tracing = true;
  LiquidFarm f(fc);
  WorkloadGenerator gen;
  ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();
  const auto out = f.try_pop_result();
  ASSERT_TRUE(out.has_value());
  ASSERT_TRUE(out->result.ok) << out->result.error;

  // The fleet's first job loads cold, so its post-LOAD state is captured
  // into the warm pool — inside its own trace, as a `snapshot` phase.
  bool cold_load = false;
  std::set<std::string> captured;
  for (const auto& s : f.span_log().spans()) {
    if (s.trace_id != out->trace_id) continue;
    if (s.name == "load" && s.note != "warm_start") cold_load = true;
    if (s.name == "snapshot") {
      EXPECT_GE(s.dur_us, 0.0);
      captured.insert(s.note.substr(0, s.note.find('|')));
    }
  }
  EXPECT_TRUE(cold_load);
  EXPECT_EQ(captured.count("prog"), 1u);
}

TEST(FarmTrace, ReportFoldsPerPhaseLatencyHistograms) {
  FarmConfig fc;
  fc.nodes = 2;
  fc.tracing = true;
  LiquidFarm f(fc);

  WorkloadConfig wc;
  wc.seed = 33;
  WorkloadGenerator gen(wc);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();
  const FarmReport rep = f.report();

  ASSERT_EQ(rep.fleet.histograms.count("farm.phase.job_us"), 1u);
  EXPECT_EQ(rep.fleet.histograms.at("farm.phase.job_us").count, 10u);
  ASSERT_EQ(rep.fleet.histograms.count("farm.phase.queue_wait_us"), 1u);
  // Percentile gauges ride along and are ordered.
  const double p50 = rep.fleet.value_or("farm.phase.job.p50_us");
  const double p95 = rep.fleet.value_or("farm.phase.job.p95_us");
  const double p99 = rep.fleet.value_or("farm.phase.job.p99_us");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
}

TEST(FarmTrace, EightNodeChromeExportHasOneLanePerNode) {
  FarmConfig fc;
  fc.nodes = 8;
  fc.tracing = true;
  LiquidFarm f(fc);

  WorkloadConfig wc;
  wc.seed = 44;
  wc.configs = 16;  // enough images that all eight nodes see work
  WorkloadGenerator gen(wc);
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();

  const std::string j = f.span_log().to_chrome_json();
  for (std::size_t pid = 1; pid <= 8; ++pid) {
    const std::string lane = "\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" +
                             std::to_string(pid);
    EXPECT_NE(j.find(lane), std::string::npos) << "missing lane pid " << pid;
  }
  EXPECT_NE(j.find("\"node 0\""), std::string::npos);
  EXPECT_NE(j.find("\"node 7\""), std::string::npos);
}

TEST(FarmTrace, TracingOffMintsNothing) {
  FarmConfig fc;
  fc.nodes = 1;
  LiquidFarm f(fc);
  WorkloadGenerator gen;
  ASSERT_TRUE(f.submit(gen.next().job));
  f.drain();
  const auto out = f.try_pop_result();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->trace_id, 0u);
  EXPECT_EQ(f.span_log().size(), 0u);
}

}  // namespace
}  // namespace la::farm
