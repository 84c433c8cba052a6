// The Reconfiguration Server (Fig 1): controls access to the FPX platform
// and sequences the loading and execution of applications — including the
// FPGA reprogramming step when a job asks for a different architecture
// than the one currently loaded.
#pragma once

#include <optional>
#include <vector>

#include "ctrl/client.hpp"
#include "liquid/reconfig_cache.hpp"
#include "liquid/trace.hpp"
#include "sim/liquid_system.hpp"
#include "sim/snapshot.hpp"

namespace la::liquid {

struct ServerConfig {
  /// Bitstream download rate over the network/SelectMap path — sets the
  /// reconfiguration latency (XCV2000E ~1.27 MB at ~5 MB/s: ~0.25 s).
  double reprogram_bytes_per_second = 5e6;
  /// When true, profiled runs collect their trace over the network (the
  /// node streams instrumented-trace datagrams to the analysis host, the
  /// paper's Fig 2 path) instead of probing the pipeline directly.
  bool stream_traces = false;
  /// Bridge the reconfiguration cache's stats into the node's registry.
  /// A farm shares one cache across many nodes and bridges it once at
  /// fleet level instead — per-node bridging would multiply-count the
  /// shared stats when the registries are merged.
  bool bridge_cache_metrics = true;
  ctrl::ClientConfig client;
};

/// Outcome of one job: load + (re)configure + execute + read back.
struct JobResult {
  bool ok = false;
  std::string error;

  ArchConfig config;
  bool reconfigured = false;
  bool bitfile_cache_hit = false;

  Cycles cycles = 0;             // execution cycles on the node
  double synthesis_seconds = 0;  // charged only on a bitfile-cache miss
  double reprogram_seconds = 0;  // FPGA download time when reconfigured
  std::vector<u32> readback;     // result words

  /// Node state came out of the warm-start snapshot pool (post-boot and/or
  /// post-load restore) instead of a simulated boot / chunked network load.
  bool warm_start = false;
  /// The failure (when !ok) looks like a node or transport fault — watchdog
  /// trip, silent node, lost channel — rather than a deterministic property
  /// of the job itself.  The farm's cue that a retry elsewhere may succeed.
  bool node_fault = false;

  /// Clock the node ran at under this job's configuration — the synthesis
  /// model's post-place-and-route fmax for the job's ArchConfig (a 16 KB
  /// cache closes timing slower than the paper's 30 MHz baseline), filled
  /// in by the server from the synthesized bitfile.
  double clock_mhz = 30.0;

  /// Total wall-clock the user waited (synthesis dominates on a miss —
  /// the whole point of the reconfiguration cache).  Cycles convert at
  /// the configuration's own clock, not a hardcoded 30 MHz.
  double wall_seconds() const {
    return synthesis_seconds + reprogram_seconds +
           static_cast<double>(cycles) / (clock_mhz * 1e6);
  }
};

class ReconfigurationServer {
 public:
  ReconfigurationServer(sim::LiquidSystem& node, ReconfigurationCache& cache,
                        const SynthesisModel& syn, ServerConfig cfg = {});
  /// Unregisters the `reconfig_cache.*` / `reconfig_server.*` metrics the
  /// constructor bridged into the node's registry (the server may die
  /// before the node does).
  ~ReconfigurationServer();

  /// Run `program` under `arch`, reading `result_words` words back from
  /// `result_addr` afterwards.  An optional analyzer traces the run; an
  /// active JobTrace gets a span per phase (synthesis, reconfigure,
  /// snapshot, and — via the control client — load, run, readback).  A
  /// span log attached to the node gets one `job <key>` span around it.
  JobResult run_job(const ArchConfig& arch, const sasm::Image& program,
                    Addr result_addr, u16 result_words,
                    TraceAnalyzer* analyzer = nullptr,
                    trace::JobTrace jt = {});

  /// The architecture currently loaded in the FPGA.
  const ArchConfig& current() const { return current_; }

  /// Attach a (typically farm-shared) warm-start snapshot pool.  With a
  /// pool attached, run_job consults "boot|<arch>" before simulating a
  /// post-reconfigure boot and "prog|<arch>|<digest>" before the chunked
  /// network load — an affinity hit restores node state in O(memcpy)
  /// instead.  First execution of each pair feeds the pool.  Pass nullptr
  /// to detach.  The pool must outlive the server.
  void set_warm_pool(sim::SnapshotPool* pool) { warm_pool_ = pool; }

  struct Stats {
    u64 jobs = 0;
    u64 failures = 0;
    u64 reconfigurations = 0;
    u64 warm_starts = 0;  // pool restores performed (boot- or load-level)
    double reprogram_seconds = 0.0;
  };
  const Stats& stats() const { return stats_; }

 private:
  JobResult execute(const ArchConfig& arch, const sasm::Image& program,
                    Addr result_addr, u16 result_words,
                    TraceAnalyzer* analyzer, const trace::JobTrace& jt);
  /// Capture the node into the warm pool under `key` as the job's
  /// `snapshot` phase (skipped without a pool, on a wedged CPU, or when
  /// the pool already holds `key`).
  void donate_snapshot(const std::string& key, const trace::JobTrace& jt);

  sim::LiquidSystem& node_;
  ReconfigurationCache& cache_;
  const SynthesisModel& syn_;
  ServerConfig cfg_;
  ArchConfig current_ = ArchConfig::paper_baseline();
  sim::SnapshotPool* warm_pool_ = nullptr;
  Stats stats_;
};

}  // namespace la::liquid
