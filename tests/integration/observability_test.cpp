// The observability PR's acceptance scenario, end to end.
//
// A farm job lands on a node armed with a flight recorder and a watchdog;
// an injected fault wedges the CPU mid-run; the watchdog trips.  The job's
// outcome must carry a black-box dump showing the wedge PC and the
// control-plane error transition, and the fleet span log must tell the
// job's causal story — queue wait through reconfiguration and run to the
// error — under one trace id.  Plus the client-level telemetry commands:
// STATS_STREAM delta windows, FLIGHT_DUMP, and SET_TRACE propagation, and
// a node's own episode spans: an attached span log must not change the
// run it observes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>

#include "ctrl/client.hpp"
#include "farm/farm.hpp"
#include "fault/injector.hpp"
#include "net/commands.hpp"
#include "sasm/assembler.hpp"
#include "sasm/runtime.hpp"
#include "sim/liquid_system.hpp"

#ifndef LA_PROGS_DIR
#error "LA_PROGS_DIR must point at the progs/ directory"
#endif

namespace la::test {
namespace {

sasm::Image loop_program() {
  return sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      mov 400, %o1
      mov 0, %o2
  loop:
      add %o2, %o1, %o2
      subcc %o1, 1, %o1
      bne loop
      nop
      set result, %g1
      st %o2, [%g1]
      jmp 0x40
      nop
      .align 4
  result: .skip 4
  )");
}

TEST(Observability, StatsDeltaWindowsShrinkBetweenPolls) {
  sim::LiquidSystem node((sim::SystemConfig()));
  node.run(300);
  ctrl::LiquidClient client(node);

  // First poll: everything since boot (a busy window).
  const auto first = client.stats_delta();
  ASSERT_TRUE(first) << first.error().to_string();
  EXPECT_EQ(first->find("{\"cycle\":"), 0u);
  EXPECT_NE(first->find("cpu.instructions"), std::string::npos);

  // Second poll immediately after: the window covers only the handful of
  // steps the first poll itself pumped — a much smaller cycle delta.
  const auto second = client.stats_delta();
  ASSERT_TRUE(second) << second.error().to_string();
  const auto cycle_of = [](const std::string& json) {
    return std::strtoull(json.c_str() + std::string("{\"cycle\":").size(),
                         nullptr, 10);
  };
  EXPECT_LT(cycle_of(*second), cycle_of(*first));
}

TEST(Observability, FlightDumpCommandNeedsARecorder) {
  {
    sim::LiquidSystem bare((sim::SystemConfig()));
    bare.run(300);
    ctrl::LiquidClient client(bare);
    const auto dump = client.flight_dump();
    ASSERT_FALSE(dump);
    EXPECT_EQ(dump.error().node_code, net::err::kNoRecorder);
  }
  {
    sim::SystemConfig cfg;
    cfg.flight_recorder = true;
    sim::LiquidSystem armed(cfg);
    armed.run(300);
    ctrl::LiquidClient client(armed);
    const auto dump = client.flight_dump();
    ASSERT_TRUE(dump) << dump.error().to_string();
    EXPECT_NE(dump->find("\"reason\":\"remote_dump\""), std::string::npos);
    EXPECT_NE(dump->find("\"events\":["), std::string::npos);
  }
}

TEST(Observability, SetTraceAttachesContextToTheNode) {
  sim::LiquidSystem node((sim::SystemConfig()));
  node.run(300);
  ctrl::LiquidClient client(node);
  ASSERT_TRUE(client.set_trace(0xfeedfacecafebeefull, 0x77));
  EXPECT_EQ(node.controller().trace_id(), 0xfeedfacecafebeefull);
  EXPECT_EQ(node.controller().trace_span_id(), 0x77u);
}

TEST(Observability, RunProgramPropagatesTheJobTrace) {
  sim::LiquidSystem node((sim::SystemConfig()));
  node.run(300);
  ctrl::LiquidClient client(node);

  trace::SpanLog log;
  trace::JobTrace jt;
  jt.log = &log;
  jt.ctx = log.mint();
  client.set_job_trace(jt);
  ASSERT_TRUE(client.run_program(loop_program(), 2'000'000));

  // The context crossed the wire: the controller holds the trace id.
  EXPECT_EQ(node.controller().trace_id(), jt.ctx.trace_id);
  // And the client emitted load + run spans under the job's trace.
  std::set<std::string> names;
  for (const auto& s : log.spans()) {
    EXPECT_EQ(s.trace_id, jt.ctx.trace_id);
    names.insert(s.name);
  }
  EXPECT_EQ(names.count("load"), 1u);
  EXPECT_EQ(names.count("run"), 1u);
}

sasm::Image progs_image(const std::string& name, bool with_runtime) {
  std::ifstream in(std::string(LA_PROGS_DIR) + "/" + name);
  EXPECT_TRUE(in.good()) << name;
  std::stringstream ss;
  ss << in.rdbuf();
  return sasm::assemble_or_throw(
      ss.str() + (with_runtime ? sasm::rt::runtime_source() : ""));
}

/// Boot `node`, then load and run `img` in small chunks over a lossy
/// uplink.  On a clean link every LOAD chunk lands in one ingress burst,
/// so the load takes no node cycles; the retransmits of dropped chunks
/// arrive in later pump rounds, which gives program.load a cycle extent.
void run_lossy(sim::LiquidSystem& node, const sasm::Image& img) {
  node.run(100);
  ctrl::ClientConfig cc;
  cc.load_chunk = std::max<std::size_t>(16, img.data.size() / 64);
  cc.uplink.drop = 0.2;
  cc.uplink.seed = 5;
  ctrl::LiquidClient client(node, cc);
  ASSERT_TRUE(client.run_program(img));
}

TEST(Observability, AttachedSpanLogKeepsTheRunPath) {
  for (const auto& [prog, rt] : {std::pair{"quicksort.s", true},
                                 std::pair{"ipcksum.s", false}}) {
    SCOPED_TRACE(prog);
    const sasm::Image img = progs_image(prog, rt);
    sim::LiquidSystem plain;
    trace::SpanLog log;
    sim::LiquidSystem traced;
    traced.attach_span_log(&log);
    run_lossy(plain, img);
    run_lossy(traced, img);

    EXPECT_EQ(traced.now(), plain.now());
    EXPECT_EQ(traced.cpu().stats().instructions,
              plain.cpu().stats().instructions);
    EXPECT_EQ(traced.metrics_snapshot().to_json(),
              plain.metrics_snapshot().to_json());

    std::map<std::string, trace::Span> by_name;
    for (const trace::Span& s : log.spans()) by_name[s.name] = s;
    for (const char* name : {"program.load", "program.run"}) {
      ASSERT_EQ(by_name.count(name), 1u) << name;
      const trace::Span& s = by_name[name];
      EXPECT_LT(s.start_cycle, s.cycle) << name;
      EXPECT_NE(s.trace_id, 0u) << name;
    }
    EXPECT_EQ(by_name["program.run"].cycle,
              by_name["program.run"].start_cycle +
                  traced.controller().last_run_cycles());
  }
}

TEST(Observability, FlushClosesARunCutOffByItsStepLimit) {
  trace::SpanLog log;
  sim::LiquidSystem node;
  node.attach_span_log(&log);
  node.run(300);
  ctrl::LiquidClient client(node);
  ASSERT_TRUE(client.set_trace(0xfeed, 0x77));
  ASSERT_TRUE(client.load_program(loop_program()));
  ASSERT_TRUE(client.start(0x40000100));
  node.run(50);  // the loop needs ~1600 steps: program.run stays open
  ASSERT_EQ(node.controller().state(), net::LeonState::kRunning);
  for (const trace::Span& s : log.spans()) EXPECT_NE(s.name, "program.run");

  node.flush_spans();
  const std::vector<trace::Span> spans = log.spans();
  ASSERT_FALSE(spans.empty());
  const trace::Span& run = spans.back();
  EXPECT_EQ(run.name, "program.run");
  EXPECT_LT(run.start_cycle, run.cycle);
  EXPECT_EQ(run.cycle, node.now());
  // Spans carry the trace the controller holds from SET_TRACE.
  EXPECT_EQ(run.trace_id, 0xfeedu);
  EXPECT_EQ(run.parent_span_id, 0x77u);
}

TEST(Observability, NodeWithoutASpanLogRecordsNothing) {
  sim::LiquidSystem node;
  node.span_begin("before");
  node.span_instant("mark");
  node.flush_spans();
  node.run(300);
  ctrl::LiquidClient client(node);
  ASSERT_TRUE(client.run_program(loop_program(), 2'000'000));

  // Nothing was buffered for a later sink: attaching afterwards sees only
  // what happens from then on, and an end with no open span is dropped.
  trace::SpanLog log;
  node.attach_span_log(&log);
  node.span_end("before");
  node.flush_spans();
  EXPECT_EQ(log.size(), 0u);
  node.span_instant("mark");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log.spans()[0].dur_us, 0.0);
  EXPECT_EQ(log.spans()[0].start_cycle, node.now());
}

TEST(Observability, AttachedNodeDropsTheEndOfAnUnopenedSpan) {
  trace::SpanLog log;
  sim::LiquidSystem node;
  node.attach_span_log(&log);
  node.span_end("never-begun");
  EXPECT_EQ(log.size(), 0u);

  // An end closes only a span of its own name; the other stays open
  // until its own end.
  node.span_begin("outer");
  node.span_end("never-begun");
  EXPECT_EQ(log.size(), 0u);
  node.span_end("outer");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.spans()[0].name, "outer");
  node.span_end("outer");
  EXPECT_EQ(log.size(), 1u);
}

TEST(Observability, WedgedFarmJobLeavesACausalTraceAndABlackBox) {
  const auto img = loop_program();

  farm::FarmConfig fc;
  fc.nodes = 1;
  fc.autostart = false;  // workers gate until start(): safe node access
  fc.tracing = true;
  // This scenario is about what a *delivered* failure leaves behind; the
  // self-healing retry path (tests/farm/farm_heal_test.cpp) would rescue
  // the job and erase the evidence, so turn it off.
  fc.max_job_retries = 0;
  fc.node_template.watchdog_budget = 20'000;
  fc.node_template.flight_recorder = true;
  farm::LiquidFarm f(fc);

  // Wedge the CPU permanently the moment the program reaches its loop;
  // only the watchdog can turn that into something observable.
  fault::FaultPlan plan;
  plan.events.push_back({{fault::TriggerKind::kPc, img.symbol("loop")},
                         {fault::FaultSite::kCpuWedge, 0, 1, 1, 0}});
  fault::FaultInjector inj(f.node_for_setup(0), plan);

  farm::FarmJob job;
  job.owner = "acceptance";
  job.program = img;
  const auto id = f.submit(std::move(job));
  ASSERT_TRUE(id) << id.error().to_string();
  f.start();
  f.drain();

  const auto out = f.pop_result();
  ASSERT_TRUE(out.has_value());
  EXPECT_FALSE(out->result.ok);
  EXPECT_NE(out->trace_id, 0u);

  // The black box: the watchdog reason, the wedge PC, and the control
  // plane's transition into the error state, all in one dump.
  ASSERT_FALSE(out->flight_dump.empty());
  EXPECT_NE(out->flight_dump.find("\"reason\":\"watchdog\""),
            std::string::npos);
  EXPECT_NE(out->flight_dump.find("\"kind\":\"ctrl_state\""),
            std::string::npos);
  // The watchdog event's PC is inside the four-instruction wedge loop.
  char pc_hex[48];
  bool wedge_pc_seen = false;
  for (Addr pc = img.symbol("loop"); pc <= img.symbol("loop") + 12; pc += 4) {
    std::snprintf(pc_hex, sizeof(pc_hex), "\"kind\":\"watchdog\",\"a\":\"0x%llx\"",
                  static_cast<unsigned long long>(pc));
    wedge_pc_seen =
        wedge_pc_seen || out->flight_dump.find(pc_hex) != std::string::npos;
  }
  EXPECT_TRUE(wedge_pc_seen) << out->flight_dump;

  // The causal story: queue wait, the run, the error, and the job root —
  // every span under the outcome's trace id.
  std::set<std::string> names;
  for (const auto& s : f.span_log().spans()) {
    EXPECT_EQ(s.trace_id, out->trace_id);
    names.insert(s.name);
  }
  EXPECT_EQ(names.count("queue_wait"), 1u);
  EXPECT_EQ(names.count("run"), 1u);
  EXPECT_EQ(names.count("error"), 1u);
  EXPECT_EQ(names.count("job"), 1u);

  // The injected wedge actually fired (the scenario tested what it says).
  EXPECT_TRUE(inj.all_fired());
}

// drain() must not return while a worker is still healing the node the
// wedge quarantined: node_for_setup() promises the caller sole ownership
// after drain(), and the injector's destructor touches the node.  Looped,
// because an early return loses the race only some of the time (TSan
// reports it as a data race in LiquidSystem's step hook).
TEST(Observability, DrainWaitsForWedgedNodeRecovery) {
  const auto img = loop_program();
  for (int round = 0; round < 20; ++round) {
    farm::FarmConfig fc;
    fc.nodes = 1;
    fc.autostart = false;
    fc.max_job_retries = 0;
    fc.node_template.watchdog_budget = 20'000;
    farm::LiquidFarm f(fc);

    fault::FaultPlan plan;
    plan.events.push_back({{fault::TriggerKind::kPc, img.symbol("loop")},
                           {fault::FaultSite::kCpuWedge, 0, 1, 1, 0}});
    auto inj = std::make_unique<fault::FaultInjector>(f.node_for_setup(0),
                                                      plan);
    farm::FarmJob job;
    job.owner = "drain";
    job.program = img;
    ASSERT_TRUE(f.submit(std::move(job)));
    f.start();
    f.drain();

    // The recovery finished before drain() returned: the node answers
    // idle and is no longer wedged, and nothing else is driving it.
    sim::LiquidSystem& node = f.node_for_setup(0);
    EXPECT_EQ(node.controller().state(), net::LeonState::kIdle)
        << "round " << round;
    EXPECT_FALSE(node.cpu().wedged()) << "round " << round;
    EXPECT_TRUE(inj->all_fired()) << "round " << round;
    inj.reset();  // detaches the step hook from the test thread

    const auto out = f.pop_result();
    ASSERT_TRUE(out.has_value()) << "round " << round;
    EXPECT_FALSE(out->result.ok) << "round " << round;
  }
}

}  // namespace
}  // namespace la::test
