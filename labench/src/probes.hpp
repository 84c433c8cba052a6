// The layers as the benchmark drives them: a single node over the
// control protocol, a farm round, a gateway rig, and the traced probes
// that turn each layer's timings and counters into per-layer metrics.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/metrics.hpp"
#include "ctrl/client.hpp"
#include "farm/farm.hpp"
#include "gate/gateway.hpp"
#include "sim/liquid_system.hpp"

namespace labench {

/// "" when the readback (and the recorded run cycles, where known) match;
/// otherwise why not.
std::string verify(const BenchJob& job, const std::vector<u32>& words,
                   u64 run_cycles);

// ---- one node, driven the way a user drives it ----

struct NodeJob {
  bool ok = false;
  std::string error;
  std::vector<u32> words;
  u64 run_cycles = 0;
  double total_ms = 0;       // reprogram -> readback done
  double load_ms = 0;
  double system_run_ms = 0;  // LiquidSystem::run_until alone (direct mode)
  double read_ms = 0;
  u64 run_instructions = 0;   // retired inside the timed run (direct mode)
  la::metrics::Snapshot sim;  // counter deltas start -> done (when asked)
};

class NodeRunner {
 public:
  NodeRunner();
  /// Reprogram to the job's configuration (fresh pipeline and caches, so
  /// simulated cycles never depend on the previous job), boot, load,
  /// start, wait, read back.  `direct` times LiquidSystem::run_until
  /// alone instead of the client's pumped await; `with_metrics` fills
  /// NodeJob::sim.
  NodeJob run(const BenchJob& job, bool direct = false, bool with_metrics = false);
  /// Reprogram and load only (the node is left READY, the state the
  /// warm-start pool captures).
  bool load(const BenchJob& job);
  la::sim::LiquidSystem& node() { return node_; }

 private:
  la::sim::LiquidSystem node_;
  la::ctrl::LiquidClient client_;
};

/// Client settings that let a ~1 M-instruction kernel finish under one
/// command deadline.
la::ctrl::ClientConfig long_job_client();

// ---- farm ----

la::farm::FarmConfig farm_config(std::size_t nodes, bool tracing);
/// Synthesize every configuration the workloads use into the farm's
/// shared cache (the paper's offline pass).
void pregenerate(la::farm::LiquidFarm& farm);

struct FarmRound {
  u64 verified = 0;
  double window_s = 0;
  u64 instructions = 0;  // kernel instructions of verified jobs
  std::vector<double> latency_ms;
  double rss_growth_mb = 0;  // resident growth over the round
};

/// Closed loop: `callers` jobs outstanding until `jobs` is spent; every
/// outcome checked, lost or duplicated outcomes counted as failures.
FarmRound run_farm_round(la::farm::LiquidFarm& farm, std::vector<BenchJob> jobs,
                         unsigned callers, Report& rep);

// ---- gateway ----


struct GateRun {
  u64 attempted = 0;
  u64 verified = 0;
  u64 good = 0;  // verified within the latency limit
  double schedule_s = 0;
  double window_s = 0;  // first due time -> last answer
  u64 instructions = 0;
  std::vector<double> e2e_ms;    // due time -> verified result
  std::vector<double> due_ms;    // each verified request's due time, from the start
  std::vector<double> admit_ms;  // first send -> ACCEPTED
  std::vector<double> late_ms;   // first send - due time
  u64 retry_frames = 0;          // RETRY_AFTER frames the generator saw
  /// Peak resident memory of each kWindowMs window of the schedule.
  std::vector<double> window_peak_mb;
  static constexpr double kWindowMs = 1000;
};

/// A kGateNodes farm (fleet tracing on when `tracing`) behind a real
/// Gateway on loopback, one client socket with every tenant's session
/// open, and (optionally) a pool warmed with `warm`.
class GateRig {
 public:
  static constexpr std::size_t kGateNodes = 2;
  static constexpr la::u32 kTenants = 32;
  static constexpr double kTenantZipf = 1.1;

  GateRig(bool tracing, u64 seed, const std::vector<BenchJob>& warm, Report& rep);
  ~GateRig();
  GateRig(const GateRig&) = delete;
  GateRig& operator=(const GateRig&) = delete;

  /// Open loop: round(rate * seconds) arrivals at seeded uniform times
  /// over the window (a Poisson process conditioned on its count), each a
  /// Zipf-picked tenant submitting next().  Latency counts from the due
  /// time; a request still unanswered max(4 x limit_ms, 2 s) after the
  /// last due time is lost.
  GateRun run(const std::function<BenchJob()>& next, double rate, double seconds,
              double limit_ms, Report& rep);
  /// Stop the gateway and freeze its metrics.
  la::metrics::Snapshot stop();

 private:
  struct Planned {
    BenchJob job;
    la::u32 tenant = 0;
    double due_ms = 0;
  };
  GateRun drive(std::vector<Planned> plan, double limit_ms, double drain_ms,
                Report& rep);

  u64 seed_;
  la::farm::LiquidFarm farm_;
  la::gate::Gateway gw_;
  la::gate::UdpSocket sock_;
  std::vector<u64> tokens_;
  std::vector<la::u32> next_seq_;
  bool stopped_ = false;
};

// ---- traced probes: per-layer metrics from the outside ----

void probe_isa(const std::vector<BenchJob>& jobs, double budget_s, Report& rep);
void probe_cpu(const std::vector<BenchJob>& jobs, double budget_s, Report& rep);
/// ctrl load/readback, LiquidSystem::run alone, simulated counters over
/// one pass of `jobs`, and snapshot/validate/restore cost.
void probe_node(const std::vector<BenchJob>& jobs, double budget_s, Report& rep);
/// One standalone ReconfigurationServer with a pool the benchmark owns,
/// replaying the workload's job stream.
void probe_liquid(const std::function<BenchJob()>& next, std::size_t max_jobs,
                  double budget_s, Report& rep);
/// Farm rounds alternating untraced and traced: phase latencies and host
/// time shares from the span log, affinity, tracing overhead.
void probe_farm(const std::function<std::vector<BenchJob>()>& round_jobs,
                std::size_t nodes, unsigned callers, double budget_s, Report& rep);
/// The gateway path: admission latency, gateway vs farm time, refusals,
/// duplicates and generator lateness.
void probe_gate(const std::vector<BenchJob>& warm,
                const std::function<BenchJob()>& next, double rate,
                double seconds, double limit_ms, u64 seed, Report& rep);

}  // namespace labench
