// The complete Liquid processor node (Fig 3): LEON pipeline + caches on
// AHB, boot ROM, SRAM behind the disconnect switch, SDRAM behind the
// FPX controller/adapter, APB peripherals, layered protocol wrappers,
// control packet processor, leon_ctrl, and packet generator — one clocked
// system with a network ingress/egress on the outside.
#pragma once

#include <memory>
#include <optional>

#include "bus/apb.hpp"
#include "bus/peripherals.hpp"
#include "bus/watchdog.hpp"
#include "common/metrics.hpp"
#include "common/span_log.hpp"
#include "cpu/leon_pipeline.hpp"
#include "mem/ahb_sdram_adapter.hpp"
#include "mem/boot_rom.hpp"
#include "mem/disconnect.hpp"
#include "mem/memory_map.hpp"
#include "mem/sdram.hpp"
#include "mem/sram.hpp"
#include "net/channel.hpp"
#include "net/leon_ctrl.hpp"
#include "net/trace_stream.hpp"
#include "net/wrappers.hpp"
#include "sim/flight_recorder.hpp"

namespace la::sim {

struct SystemSnapshot;  // sim/snapshot.hpp

struct SystemConfig {
  cpu::PipelineConfig pipeline;
  net::Ipv4Addr node_ip = net::make_ip(192, 168, 100, 10);
  u16 node_port = net::kLeonControlPort;
  mem::SramTiming sram_timing;
  mem::SdramTiming sdram_timing;
  mem::AdapterConfig adapter;
  u32 sram_size = mem::map::kSramSize;
  u32 sdram_size = 1u << 22;  // 4 MiB simulated module (64 MiB is legal
                              // but pointlessly large for the workloads)
  u8 timer_irq_level = 8;
  /// Cycle budget the watchdog grants a started program; it is armed on
  /// Start and disarmed on completion, and trips the §4.1 error path when
  /// the budget runs out first.  0 disables the watchdog entirely.
  u64 watchdog_budget = 0;
  /// Boot the *original* LEON ROM (waits for a UART event, Fig 5 left)
  /// instead of the paper's modified mailbox-polling ROM.  Remote program
  /// start does not work in this mode — that is the point of Fig 5.
  bool use_original_boot = false;
  /// Arm the black-box flight recorder at construction (equivalent to
  /// calling enable_flight_recorder()).  Cheap enough to leave on: the
  /// fast run loop keeps batching, each event is a few stores.
  bool flight_recorder = false;
  std::size_t flight_capacity = 4096;  // ring entries (rounds to 2^n)
  u32 flight_pc_sample = 64;           // record every Nth retired PC
};

class LiquidSystem {
 public:
  explicit LiquidSystem(const SystemConfig& cfg = {});

  // ---- network side ----
  /// Deliver one IP frame from the wire into the wrappers.
  void ingress_frame(std::span<const u8> frame);
  /// Take one outbound IP frame, if any response is queued.
  std::optional<Bytes> egress_frame();

  // ---- time ----
  /// One processor step; advances peripherals and drains responses.
  cpu::StepResult step();
  /// Run up to `max_steps` instructions.
  void run(u64 max_steps);
  /// Run until leon_ctrl reaches `state` (true) or `max_steps` elapse.
  bool run_until(net::LeonState state, u64 max_steps);

  Cycles now() const { return clock_; }

  /// Hot-swap the processor micro-architecture: the paper's runtime
  /// reconfiguration.  Memory contents survive (they live off-chip); the
  /// processor restarts from the boot ROM.  Returns the configuration
  /// actually installed.
  void reconfigure(const cpu::PipelineConfig& pcfg);

  /// Reset the CPU to the boot ROM entry (leon_ctrl Restart path).
  void reset_cpu();

  // ---- snapshot/restore (sim/snapshot.cpp) ----
  /// Deep capture of the full architectural state: CPU windows/PSR/WIM/Y,
  /// wedge flag, pipeline latches, both caches (tags/LRU/parity/data/RNG),
  /// SRAM/SDRAM with parity shadows, bus + peripheral + watchdog state,
  /// the leon_ctrl state machine, queued egress, and the cycle counter.
  /// The result is a versioned binary blob that round-trips across
  /// processes (SystemSnapshot::serialize/deserialize).
  SystemSnapshot snapshot() const;
  /// Restore from a snapshot.  The coarse platform config (memory sizes,
  /// timings, boot ROM flavor) must match this system's; the *pipeline*
  /// configuration is adopted from the snapshot (rebuilding the pipeline
  /// if it differs — a restore is also a reconfiguration), while the host
  /// fast-path switch (CpuConfig::host_fast_paths) keeps this system's
  /// setting, so snapshots cross fast/slow configurations
  /// bit-identically.  On failure returns false, sets *err when given,
  /// and leaves the system in an unspecified but safe-to-reset state.
  bool restore(const SystemSnapshot& snap, std::string* err = nullptr);
  /// Jump the clock forward to `to` without executing anything; no-op when
  /// `to` is in the past.  Restoring a snapshot rewinds the clock to the
  /// capture moment, which is right for replay but wrong for a long-lived
  /// node adopting a pooled state (warm start): local time must stay
  /// monotonic or cycle-based accounting and cycle-triggered machinery
  /// run backwards.  The skipped span never happened — the timer and
  /// watchdog are not charged for it.
  void warp_clock_forward(Cycles to) {
    if (to <= clock_) return;
    clock_ = to;
    periph_synced_at_ = clock_;
  }

  /// Stream instrumented execution traces to `dst` as UDP datagrams (the
  /// paper's trace path to the Trace Analyzer).  Claims the pipeline's
  /// observer slot.  `batch` = records per datagram.
  void enable_trace_stream(net::Ipv4Addr dst_ip, u16 dst_port,
                           std::size_t batch = 100);
  /// Force out a partial trace batch (end of a measurement window).
  void flush_trace_stream();
  void disable_trace_stream();
  const net::TraceStreamer* trace_streamer() const { return tracer_.get(); }

  // ---- observability ----
  /// The node-wide metrics registry.  Every component counter is bridged
  /// in at construction under a hierarchical name (`cache.d.read_misses`,
  /// `sdram.wait_cycles`, ...); external subsystems (reconfiguration
  /// cache/server) attach and detach their own.
  metrics::MetricsRegistry& metrics() { return metrics_; }
  const metrics::MetricsRegistry& metrics() const { return metrics_; }
  /// Registry snapshot stamped with the node clock.
  metrics::Snapshot metrics_snapshot() const {
    return metrics_.snapshot(clock_);
  }

  /// Attach a span sink: the node's episodes land in `log` as complete
  /// spans on lane `pid`/`tid`, each stamped with host µs and with the
  /// node cycles it started and ended at — `reconfigure`, `program.load`
  /// and `program.run` (leon_ctrl LOADING / RUNNING entered -> left), a
  /// zero-duration `leon_ctrl.error` on the error transition, and what
  /// callers open through span_begin()/span_instant() (the reconfig
  /// server's `job <key>`, the fault injector's `fault.<site>`).  Each
  /// span takes the trace id the controller holds from SET_TRACE, else
  /// one minted here.  The leon_ctrl state observer drives the spans on
  /// both run paths, so an attached log leaves the batched loop engaged.
  /// Null detaches (flushing first); the log must outlive the attachment.
  void attach_span_log(trace::SpanLog* log, u32 pid = 1, u32 tid = 1);
  /// Open / close one node episode; no-ops without an attached log.  An
  /// end with no open span of that name is dropped.
  void span_begin(std::string name);
  void span_end(const std::string& name);
  /// A zero-duration span stamped now.
  void span_instant(std::string name);
  /// Close every still-open episode at the current stamp (a run cut off
  /// by its step budget leaves program.run open); exporters call this.
  void flush_spans();

  /// Arm the black-box flight recorder: sampled retired PCs, traps,
  /// leon_ctrl transitions, watchdog trips, injected-fault firings land in
  /// a fixed ring.  It does NOT force the per-step run path — recording
  /// is a pointer test plus a few stores, so it can stay on in
  /// production.  Idempotent.
  FlightRecorder& enable_flight_recorder();
  FlightRecorder* flight_recorder() { return flight_.get(); }

  /// Freeze the ring into a JSON dump ("" when no recorder is armed).
  std::string take_flight_dump(const std::string& reason) const;
  /// The automatic dump captured when leon_ctrl last entered kError
  /// (watchdog trip or forced error); empty until that happens.
  const std::string& last_flight_dump() const { return last_flight_dump_; }

  // ---- component access ----
  cpu::LeonPipeline& cpu() { return *pipe_; }
  const cpu::LeonPipeline& cpu() const { return *pipe_; }
  net::LeonController& controller() { return *ctrl_; }
  net::ControlPacketProcessor& cpp() { return *cpp_; }
  net::LayeredWrappers& wrappers() { return wrappers_; }
  mem::DisconnectSwitch& disconnect() { return *switch_; }
  mem::Sram& sram() { return sram_; }
  mem::SdramDevice& sdram_device() { return *sdram_; }
  mem::FpxSdramController& sdram_controller() { return *sdram_ctrl_; }
  mem::AhbSdramAdapter& sdram_adapter() { return *adapter_; }
  bus::AhbBus& ahb() { return bus_; }
  bus::Uart& uart() { return uart_; }
  bus::LeonTimer& timer() { return timer_; }
  bus::IrqController& irq() { return *irqctrl_; }
  bus::GpioPort& gpio() { return gpio_; }
  bus::CycleCounter& cycle_counter() { return *cyc_; }
  bus::Watchdog& watchdog() { return wdog_; }
  net::PacketGenerator& packet_generator() { return *pktgen_; }
  const SystemConfig& config() const { return cfg_; }

  // ---- fault-injection hooks ----
  /// Called after every step() with the step's result (clock already
  /// advanced, control state already observed).  The fault engine uses it
  /// for cycle/PC triggers.
  using StepHook = std::function<void(const cpu::StepResult&)>;
  void set_step_hook(StepHook h) {
    step_hook_ = std::move(h);
    // Cached armed flag: the per-step check is one predictable bool test
    // instead of a std::function emptiness probe, and the batched run
    // loop keys its slow-path fallback off it.
    step_hook_armed_ = static_cast<bool>(step_hook_);
  }
  /// Called at the end of every ingress_frame() (packet-count triggers).
  using IngressHook = std::function<void()>;
  void set_ingress_hook(IngressHook h) { ingress_hook_ = std::move(h); }

  /// Address user programs jump to when finished (the polling loop).
  Addr check_ready_addr() const {
    return mem::map::kRomBase + mem::kCheckReadyOffset;
  }

 private:
  /// Bridge every component's counters into the registry (constructor).
  void register_metrics();
  /// leon_ctrl state observer: emit the episode spans, record the
  /// transition in the flight recorder and auto-dump on entry to kError
  /// (§4.1 post-mortem).
  void on_ctrl_transition(net::LeonState prev, net::LeonState next);
  /// Arm/disarm the watchdog as the leon_ctrl state machine moves (called
  /// from both step() and ingress_frame() — Start arrives on the network
  /// path, completion on the step path).
  void sync_watchdog();
  /// Catch the timer and watchdog up to `clock_` (batched run loops defer
  /// their advance; the per-step path keeps the backlog at zero, making
  /// this a no-op there).  Applies the same per-step ordering the slow
  /// path uses: timer, watchdog sync, watchdog charge.
  void drain_peripherals();
  /// Batched core shared by run()/run_until(); `until` null = run to the
  /// step budget.  Returns whether `until` was reached.
  bool run_batched(u64 max_steps, const net::LeonState* until);
  bool slow_run_path() const {
    return !cfg_.pipeline.cpu.host_fast_paths || step_hook_armed_ ||
           tracer_ != nullptr;
  }

  SystemConfig cfg_;
  Cycles clock_ = 0;

  bus::AhbBus bus_;
  mem::Sram sram_;
  std::unique_ptr<mem::DisconnectSwitch> switch_;
  std::unique_ptr<mem::SdramDevice> sdram_;
  std::unique_ptr<mem::FpxSdramController> sdram_ctrl_;
  std::unique_ptr<mem::AhbSdramAdapter> adapter_;
  std::unique_ptr<mem::BootRom> rom_;

  bus::ApbBridge bridge_;
  bus::Uart uart_;
  bus::LeonTimer timer_;
  std::unique_ptr<bus::IrqController> irqctrl_;
  bus::GpioPort gpio_;
  std::unique_ptr<bus::CycleCounter> cyc_;
  bus::Watchdog wdog_;

  std::unique_ptr<cpu::LeonPipeline> pipe_;

  net::LayeredWrappers wrappers_;
  std::unique_ptr<net::TraceStreamer> tracer_;
  std::unique_ptr<net::PacketGenerator> pktgen_;
  std::unique_ptr<net::LeonController> ctrl_;
  std::unique_ptr<net::ControlPacketProcessor> cpp_;
  std::deque<Bytes> egress_;

  metrics::MetricsRegistry metrics_;
  /// Span sink (attach_span_log) and the episodes still open on it.
  struct OpenSpan {
    std::string name;
    double start_us;
    Cycles start_cycle;
  };
  void emit_span(OpenSpan open, double end_us);
  trace::SpanLog* spans_ = nullptr;
  u32 span_pid_ = 1;
  u32 span_tid_ = 1;
  trace::TraceContext span_root_;  // minted at attach: no SET_TRACE yet
  std::vector<OpenSpan> open_spans_;
  std::unique_ptr<FlightRecorder> flight_;
  std::string last_flight_dump_;
  /// Watchdog-trip count already attributed to a recorded kWatchdog event
  /// (distinguishes a trip-driven kError from a forced one).
  u64 seen_wdog_trips_ = 0;
  /// Previous-window snapshot for the STATS_STREAM delta provider.
  metrics::Snapshot stream_prev_;
  net::LeonState wdog_state_ = net::LeonState::kIdle;
  StepHook step_hook_;
  bool step_hook_armed_ = false;
  IngressHook ingress_hook_;
  /// Cycle the timer/watchdog have been advanced to (== clock_ outside a
  /// batch; lags it inside one until drain_peripherals catches up).
  Cycles periph_synced_at_ = 0;
  /// Set by the APB access hook: a peripheral register was touched, so the
  /// current batch's precomputed next-event cycle may be stale.
  bool periph_dirty_ = false;
};

}  // namespace la::sim
