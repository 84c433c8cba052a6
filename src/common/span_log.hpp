// Fleet-wide causal job tracing.
//
// The paper observes one node: a hardware cycle counter (§5) and traces
// streamed to the Trace Analyzer (Fig 1).  A farm of nodes needs the same
// story *per job across machines*: a TraceContext (trace_id / span_id /
// parent) is minted where a job enters the system (FarmScheduler::enqueue,
// or LiquidClient::run_program for a lone node), carried through the
// scheduler, over the control network (the SET_TRACE command), and into
// every phase the job passes — queue wait, synthesis, FPGA reprogramming,
// LOAD, the measured run, readback.  Each phase lands here as a Span.
//
// The log merges every node into one timeline: host microseconds since
// the log's epoch (nodes run concurrently on worker threads, so the node
// cycle counters are not comparable; the host clock is).  A span may also
// carry the node cycles it started and ended at, so one record places an
// episode on both clocks; a node attached with
// LiquidSystem::attach_span_log() emits its own episodes (reconfigure,
// program.load, program.run, fault markers) that way.  An instant is a
// span of zero duration.  Exports:
//   * Chrome trace_event JSON — one process lane per node (stable pid),
//     one thread lane per worker (tid), named with metadata records, so
//     an 8-node run opens in ui.perfetto.dev with distinct lanes;
//   * JSONL — one span object per line, the machine-readable stream;
//   * per-phase duration histograms folded into a MetricsRegistry
//     (farm.phase.*), which is how p50/p95/p99 reach the fleet report.
//
// Threading: add()/mint() are safe from any thread (one mutex, append
// only); exports copy the spans out under the lock.
#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/types.hpp"

namespace la::trace {

/// Identity of one causal trace: every span of one job shares `trace_id`;
/// `span_id` names this span; `parent_span_id` links the tree (0 = root).
struct TraceContext {
  u64 trace_id = 0;
  u64 span_id = 0;
  u64 parent_span_id = 0;

  bool valid() const { return trace_id != 0; }
};

/// SplitMix64 finalizer: turns a sequential counter into a well-spread
/// 64-bit id (never 0, so a zero id always means "no trace").
u64 mix64(u64 x);

/// One completed phase of one traced job.
struct Span {
  u64 trace_id = 0;
  u64 span_id = 0;
  u64 parent_span_id = 0;
  std::string name;     // phase: queue_wait, synthesis, load, run, ...
  std::string note;     // free-form detail (config key, error text)
  u32 pid = 1;          // process lane: node index + 1 (0 = scheduler)
  u32 tid = 1;          // thread lane within the process
  double start_us = 0;  // host microseconds since the log's epoch
  double dur_us = 0;
  u64 start_cycle = 0;  // node cycle at span start, when known
  u64 cycle = 0;        // node cycle at span end, when known
};

class SpanLog {
 public:
  SpanLog();

  /// Mint a fresh root context (unique trace_id, span_id == trace root).
  TraceContext mint();
  /// Mint a child context under `parent` (same trace, new span id).
  TraceContext child(const TraceContext& parent);

  /// Host microseconds since this log was created.
  double now_us() const;

  void add(Span s);

  /// Name a process/thread lane for the Chrome export (metadata records).
  void set_process_name(u32 pid, std::string name);
  void set_thread_name(u32 pid, u32 tid, std::string name);

  std::vector<Span> spans() const;
  std::size_t size() const;

  /// Chrome trace_event JSON: each span a complete ('X') event on its
  /// own pid/tid lane, plus process_name / thread_name metadata records.
  std::string to_chrome_json() const;
  /// One JSON object per line, in append order.
  std::string to_jsonl() const;
  bool write_chrome_json(const std::string& path) const;
  bool write_jsonl(const std::string& path) const;

  /// Fold every span's duration into `reg` as a histogram named
  /// `<prefix><phase>_us`, plus nearest-rank p50/p95/p99 gauges
  /// (`<prefix><phase>.p50_us`, ...).  The caller owns quiescence.
  void observe_phase_latencies(metrics::MetricsRegistry& reg,
                               const std::string& prefix) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<u32, std::string> process_names_;
  std::map<std::pair<u32, u32>, std::string> thread_names_;
  std::chrono::steady_clock::time_point epoch_;
  u64 next_id_ = 1;  // guarded by mu_
};

/// Per-job span emission handle: one job's identity plus where its spans
/// go.  Passed (nullable) down the run path — a null log makes every
/// phase() a no-op so call sites stay branch-light.  Single-threaded use
/// by whoever runs the job.
struct JobTrace {
  SpanLog* log = nullptr;
  TraceContext ctx;  // the job's root context
  u32 pid = 1;
  u32 tid = 1;

  bool active() const { return log != nullptr && ctx.valid(); }
  /// Emit one completed child phase of the job's root span.
  void phase(const std::string& name, double start_us, double end_us,
             u64 cycle = 0, const std::string& note = "") const;
  double now_us() const { return log ? log->now_us() : 0.0; }
};

}  // namespace la::trace
