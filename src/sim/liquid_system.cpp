#include "sim/liquid_system.hpp"

#include <algorithm>
#include <type_traits>

#include "sasm/assembler.hpp"

namespace la::sim {

namespace map = mem::map;

LiquidSystem::LiquidSystem(const SystemConfig& cfg)
    : cfg_(cfg),
      sram_(map::kSramBase, cfg.sram_size, cfg.sram_timing),
      bridge_(map::kApbBase),
      timer_(cfg.timer_irq_level,
             [this](u8 level) { irqctrl_->raise(level); }),
      wrappers_(cfg.node_ip) {
  // ---- memory stack ----
  switch_ = std::make_unique<mem::DisconnectSwitch>(sram_);
  sdram_ = std::make_unique<mem::SdramDevice>(cfg.sdram_size,
                                              cfg.sdram_timing);
  sdram_ctrl_ = std::make_unique<mem::FpxSdramController>(*sdram_);
  adapter_ = std::make_unique<mem::AhbSdramAdapter>(
      *sdram_ctrl_, map::kSdramBase, cfg.sdram_size, &clock_, cfg.adapter);

  const auto boot = sasm::assemble_or_throw(
      cfg.use_original_boot
          ? mem::original_boot_source(
                map::kRomBase,
                map::kApbBase + map::kUartOffset + bus::reg::kUartStatus)
          : mem::modified_boot_source(map::kRomBase,
                                      map::kProgAddrMailbox));
  rom_ = std::make_unique<mem::BootRom>(map::kRomBase, map::kRomSize,
                                        boot.data);

  // ---- peripherals ----
  cyc_ = std::make_unique<bus::CycleCounter>([this] { return clock_; });
  irqctrl_ = std::make_unique<bus::IrqController>(
      [this](u8 level) { if (pipe_) pipe_->set_irq(level); });
  bridge_.attach(map::kUartOffset, map::kDeviceSize, &uart_);
  bridge_.attach(map::kTimerOffset, map::kDeviceSize, &timer_);
  bridge_.attach(map::kIrqOffset, map::kDeviceSize, irqctrl_.get());
  bridge_.attach(map::kGpioOffset, map::kDeviceSize, &gpio_);
  bridge_.attach(map::kCycleCounterOffset, map::kDeviceSize, cyc_.get());
  bridge_.attach(map::kWatchdogOffset, map::kDeviceSize, &wdog_);
  wdog_.set_on_trip([this] { ctrl_->watchdog_trip(); });
  // Batched runs defer timer/watchdog advance to computed event cycles; a
  // program access to peripheral space must observe per-step state, so
  // catch up right before the access lands and flag the batch to
  // recompute its next event (the access may have reprogrammed a device).
  // Outside a batch the backlog is zero and this is a no-op.
  bridge_.set_access_hook([this] {
    drain_peripherals();
    periph_dirty_ = true;
  });

  // ---- AHB map ----
  bus_.attach(map::kRomBase, map::kRomSize, rom_.get());
  bus_.attach(map::kSramBase, cfg.sram_size, switch_.get());
  bus_.attach(map::kSdramBase, cfg.sdram_size, adapter_.get());
  bus_.attach(map::kApbBase, map::kApbSize, &bridge_);

  // ---- processor ----
  pipe_ = std::make_unique<cpu::LeonPipeline>(cfg.pipeline, bus_, &clock_,
                                              &map::cacheable);
  pipe_->reset(map::kRomBase);

  // ---- network / control ----
  pktgen_ = std::make_unique<net::PacketGenerator>(cfg.node_ip,
                                                   cfg.node_port);
  net::LeonCtrlConfig lcfg;
  lcfg.mailbox = map::kProgAddrMailbox;
  lcfg.check_ready = check_ready_addr();
  lcfg.load_min = map::kSramBase + 4;
  lcfg.load_max = map::kSramBase + cfg.sram_size - 1;
  lcfg.user_code_min = map::kSramBase;
  ctrl_ = std::make_unique<net::LeonController>(
      lcfg, *switch_, *pktgen_, [this] { reset_cpu(); },
      [this] { return clock_; });
  cpp_ = std::make_unique<net::ControlPacketProcessor>(*ctrl_);

  // ---- observability ----
  register_metrics();
  // Remote clients poll the registry over UDP (STATS_SNAPSHOT) exactly
  // like the paper's control path; the wire form is compact JSON.
  ctrl_->set_stats_provider([this] {
    const std::string json = metrics_.snapshot(clock_).to_json(0);
    return Bytes(json.begin(), json.end());
  });
  // STATS_STREAM: each poll returns the delta window since the previous
  // poll (first poll: everything since boot, the empty baseline).
  ctrl_->set_delta_provider([this] {
    metrics::Snapshot now = metrics_.snapshot(clock_);
    const std::string json = now.diff_since(stream_prev_).to_json(0);
    stream_prev_ = std::move(now);
    return Bytes(json.begin(), json.end());
  });
  // FLIGHT_DUMP: freeze the ring on demand (error 0x42 when not armed —
  // the provider is only wired once the recorder exists).
  ctrl_->set_state_observer([this](net::LeonState prev, net::LeonState next) {
    on_ctrl_transition(prev, next);
  });
  if (cfg_.flight_recorder) enable_flight_recorder();
}

void LiquidSystem::register_metrics() {
  auto fn = [this](const char* name, auto getter) {
    metrics_.register_fn(name, [this, getter] {
      return static_cast<double>(getter(*this));
    });
  };
  using Sys = const LiquidSystem&;

  // -- processor --
  fn("cpu.instructions", [](Sys s) { return s.pipe_->stats().instructions; });
  fn("cpu.annulled", [](Sys s) { return s.pipe_->stats().annulled; });
  fn("cpu.traps", [](Sys s) { return s.pipe_->stats().traps; });
  fn("cpu.cycles", [](Sys s) { return s.pipe_->stats().cycles; });
  fn("pipeline.stalls.icache",
     [](Sys s) { return s.pipe_->stats().icache_stall; });
  fn("pipeline.stalls.dcache",
     [](Sys s) { return s.pipe_->stats().dcache_stall; });
  fn("pipeline.stalls.store_buffer",
     [](Sys s) { return s.pipe_->stats().store_stall; });
  fn("cpu.mix.loads", [](Sys s) { return s.pipe_->stats().loads; });
  fn("cpu.mix.stores", [](Sys s) { return s.pipe_->stats().stores; });
  fn("cpu.mix.branches", [](Sys s) { return s.pipe_->stats().branches; });
  fn("cpu.mix.taken_branches",
     [](Sys s) { return s.pipe_->stats().taken_branches; });
  fn("cpu.mix.calls", [](Sys s) { return s.pipe_->stats().calls; });
  fn("cpu.mix.muldiv", [](Sys s) { return s.pipe_->stats().muldiv; });

  // -- caches (config gauges ride along so a snapshot names its image) --
  const auto cache_metrics = [&](const char* prefix, bool icache) {
    const std::string p = prefix;
    auto c = [this, icache]() -> const cache::Cache& {
      return icache ? pipe_->icache() : pipe_->dcache();
    };
    metrics_.register_fn(p + ".size_bytes", [c] {
      return static_cast<double>(c().config().size_bytes);
    });
    metrics_.register_fn(p + ".line_bytes", [c] {
      return static_cast<double>(c().config().line_bytes);
    });
    metrics_.register_fn(p + ".ways", [c] {
      return static_cast<double>(c().config().ways);
    });
    metrics_.register_fn(p + ".read_hits", [c] {
      return static_cast<double>(c().stats().read_hits);
    });
    metrics_.register_fn(p + ".read_misses", [c] {
      return static_cast<double>(c().stats().read_misses);
    });
    metrics_.register_fn(p + ".write_hits", [c] {
      return static_cast<double>(c().stats().write_hits);
    });
    metrics_.register_fn(p + ".write_misses", [c] {
      return static_cast<double>(c().stats().write_misses);
    });
    metrics_.register_fn(p + ".evictions", [c] {
      return static_cast<double>(c().stats().evictions);
    });
    metrics_.register_fn(p + ".writebacks", [c] {
      return static_cast<double>(c().stats().writebacks);
    });
    metrics_.register_fn(p + ".flushes", [c] {
      return static_cast<double>(c().stats().flushes);
    });
    metrics_.register_fn(p + ".parity_recoveries", [c] {
      return static_cast<double>(c().stats().parity_recoveries);
    });
    metrics_.register_fn(p + ".parity_discards", [c] {
      return static_cast<double>(c().stats().parity_discards);
    });
  };
  cache_metrics("cache.i", true);
  cache_metrics("cache.d", false);

  // -- AHB --
  const auto ahb_master = [&](const char* prefix, bus::Master m) {
    const std::string p = prefix;
    metrics_.register_fn(p + ".transfers", [this, m] {
      return static_cast<double>(bus_.stats().of(m).transfers);
    });
    metrics_.register_fn(p + ".beats", [this, m] {
      return static_cast<double>(bus_.stats().of(m).beats);
    });
    metrics_.register_fn(p + ".cycles", [this, m] {
      return static_cast<double>(bus_.stats().of(m).cycles);
    });
    metrics_.register_fn(p + ".errors", [this, m] {
      return static_cast<double>(bus_.stats().of(m).errors);
    });
  };
  ahb_master("ahb.instr", bus::Master::kCpuInstr);
  ahb_master("ahb.data", bus::Master::kCpuData);
  ahb_master("ahb.dma", bus::Master::kDma);
  fn("ahb.unmapped", [](Sys s) { return s.bus_.stats().unmapped; });
  fn("ahb.injected_errors",
     [](Sys s) { return s.bus_.stats().injected_errors; });

  // -- memory fault detection --
  fn("sram.parity_errors",
     [](Sys s) { return s.sram_.stats().parity_errors; });
  fn("sram.words_corrupted",
     [](Sys s) { return s.sram_.stats().words_corrupted; });
  fn("sdram.parity_errors",
     [](Sys s) { return s.sdram_->stats().parity_errors; });
  fn("sdram.words_corrupted",
     [](Sys s) { return s.sdram_->stats().words_corrupted; });
  fn("sdram.adapter.parity_errors",
     [](Sys s) { return s.adapter_->stats().parity_errors; });

  // -- watchdog --
  fn("watchdog.trips", [](Sys s) { return s.wdog_.stats().trips; });
  fn("watchdog.kicks", [](Sys s) { return s.wdog_.stats().kicks; });

  // -- SDRAM controller / device / adapter --
  fn("sdram.handshakes",
     [](Sys s) { return s.sdram_ctrl_->stats().total_handshakes(); });
  fn("sdram.words64", [](Sys s) {
    const auto& st = s.sdram_ctrl_->stats();
    return st.words[0] + st.words[1] + st.words[2];
  });
  fn("sdram.wait_cycles",
     [](Sys s) { return s.sdram_ctrl_->stats().wait_cycles; });
  fn("sdram.row_hits", [](Sys s) { return s.sdram_->stats().row_hits; });
  fn("sdram.row_misses", [](Sys s) { return s.sdram_->stats().row_misses; });
  fn("sdram.row_conflicts",
     [](Sys s) { return s.sdram_->stats().row_conflicts; });
  fn("sdram.reads", [](Sys s) { return s.sdram_->stats().reads; });
  fn("sdram.writes", [](Sys s) { return s.sdram_->stats().writes; });
  fn("sdram.adapter.read_handshakes",
     [](Sys s) { return s.adapter_->stats().read_handshakes; });
  fn("sdram.adapter.write_handshakes",
     [](Sys s) { return s.adapter_->stats().write_handshakes; });
  fn("sdram.adapter.rmw_reads",
     [](Sys s) { return s.adapter_->stats().rmw_reads; });
  fn("sdram.adapter.wasted_words64",
     [](Sys s) { return s.adapter_->stats().wasted_words64; });

  // -- layered wrappers --
  fn("wrappers.cells_in", [](Sys s) { return s.wrappers_.stats().cells_in; });
  fn("wrappers.cells_out",
     [](Sys s) { return s.wrappers_.stats().cells_out; });
  fn("wrappers.frames_in",
     [](Sys s) { return s.wrappers_.stats().frames_in; });
  fn("wrappers.frames_out",
     [](Sys s) { return s.wrappers_.stats().frames_out; });
  fn("wrappers.ip_bad", [](Sys s) { return s.wrappers_.stats().ip_bad; });
  fn("wrappers.ip_wrong_addr",
     [](Sys s) { return s.wrappers_.stats().ip_wrong_addr; });
  fn("wrappers.udp_bad", [](Sys s) { return s.wrappers_.stats().udp_bad; });
  fn("wrappers.datagrams_in",
     [](Sys s) { return s.wrappers_.stats().datagrams_in; });
  fn("wrappers.datagrams_out",
     [](Sys s) { return s.wrappers_.stats().datagrams_out; });

  // -- control path --
  fn("leon_ctrl.commands", [](Sys s) { return s.ctrl_->stats().commands; });
  fn("leon_ctrl.bad_commands",
     [](Sys s) { return s.ctrl_->stats().bad_commands; });
  fn("leon_ctrl.chunks_loaded",
     [](Sys s) { return s.ctrl_->stats().chunks_loaded; });
  fn("leon_ctrl.duplicate_chunks",
     [](Sys s) { return s.ctrl_->stats().duplicate_chunks; });
  fn("leon_ctrl.programs_started",
     [](Sys s) { return s.ctrl_->stats().programs_started; });
  fn("leon_ctrl.programs_completed",
     [](Sys s) { return s.ctrl_->stats().programs_completed; });
  fn("leon_ctrl.watchdog_trips",
     [](Sys s) { return s.ctrl_->stats().watchdog_trips; });
  fn("leon_ctrl.parity_read_errors",
     [](Sys s) { return s.ctrl_->stats().parity_read_errors; });
  fn("leon_ctrl.last_run_cycles",
     [](Sys s) { return s.ctrl_->last_run_cycles(); });
  fn("leon_ctrl.state",
     [](Sys s) { return static_cast<u64>(s.ctrl_->state()); });
  fn("cpp.control_packets",
     [](Sys s) { return s.cpp_->control_packets(); });
  fn("cpp.passthrough_packets",
     [](Sys s) { return s.cpp_->passthrough_packets(); });
  fn("pktgen.emitted", [](Sys s) { return s.pktgen_->emitted(); });
  fn("pktgen.responses_dropped",
     [](Sys s) { return s.pktgen_->responses_dropped(); });
}

void LiquidSystem::ingress_frame(std::span<const u8> frame) {
  if (auto d = wrappers_.ingress_frame(frame)) {
    cpp_->ingress(*d);
    sync_watchdog();  // a Start command arms the budget from here
    // Control commands can complete without any CPU involvement (status,
    // read memory): drain the generator immediately.
    while (auto resp = pktgen_->pop()) {
      egress_.push_back(wrappers_.egress_frame(*resp));
    }
  }
  if (ingress_hook_) ingress_hook_();
}

std::optional<Bytes> LiquidSystem::egress_frame() {
  if (egress_.empty()) return std::nullopt;
  Bytes f = std::move(egress_.front());
  egress_.pop_front();
  return f;
}

cpu::StepResult LiquidSystem::step() {
  const Cycles before = clock_;
  const cpu::StepResult r = pipe_->step();
  if (pipe_->state().error_mode && clock_ == before) {
    // A halted core (trap with ET=0) stops retiring but its clock tree
    // keeps running — the watchdog and timers must still see time pass.
    clock_ += 1;
  }
  if (flight_) {
    if (r.trapped) {
      flight_->record(clock_, FlightEventKind::kTrap, r.pc, r.tt);
    } else {
      flight_->record_retire(clock_, r.pc, r.raw);
    }
  }
  ctrl_->on_cpu_pc(r.pc);
  timer_.advance(clock_ - before);
  sync_watchdog();  // completion disarms before the budget is charged
  wdog_.advance(clock_ - before);
  periph_synced_at_ = clock_;  // per-step path leaves no backlog
  if (step_hook_armed_) step_hook_(r);
  while (auto resp = pktgen_->pop()) {
    egress_.push_back(wrappers_.egress_frame(*resp));
  }
  return r;
}

void LiquidSystem::drain_peripherals() {
  const Cycles delta = clock_ - periph_synced_at_;
  if (delta == 0) return;
  timer_.advance(delta);
  sync_watchdog();  // same ordering as the per-step path
  wdog_.advance(delta);
  periph_synced_at_ = clock_;
}

bool LiquidSystem::run_batched(u64 max_steps, const net::LeonState* until) {
  constexpr Cycles kNoEvent = ~Cycles{0};
  cpu::StepResult r;
  u64 i = 0;
  // The flight recorder must not tax the disabled configuration: the
  // inner loop is specialized at compile time on whether it records, so
  // recorder-off code is identical to a build without the recorder.
  FlightRecorder* const fr = flight_.get();
  while (i < max_steps) {
    if (until != nullptr && ctrl_->state() == *until) return true;
    if (pipe_->state().error_mode && !wdog_.armed()) break;

    // Next cycle at which a peripheral does something observable; until
    // then, per-step advance calls are provably no-ops and are skipped.
    periph_dirty_ = false;
    Cycles next_event = kNoEvent;
    Cycles delta = 0;
    if (timer_.next_event(delta)) next_event = periph_synced_at_ + delta;
    if (wdog_.armed()) {
      next_event = std::min(next_event, periph_synced_at_ + wdog_.remaining());
    }
    const net::LeonState s0 = ctrl_->state();
    // leon_ctrl only inspects the PC while a program is Running; in every
    // other state on_cpu_pc is a no-op and the control state cannot move
    // until a peripheral event or network ingress (never mid-run), so the
    // whole call is hoisted out of the batch.
    const bool track_pc = s0 == net::LeonState::kRunning;

    const auto inner = [&](auto with_flight) {
      while (i < max_steps) {
        if (pipe_->state().error_mode && !wdog_.armed()) break;
        const Cycles before = clock_;
        // The only per-step result this loop consumes is the stepped
        // instruction's PC, which is the architectural PC *before* the
        // step — so the result materialization itself can be skipped.
        const Addr pc = pipe_->state().pc;
        pipe_->step_into_hot(r);
        ++i;
        if (pipe_->state().error_mode && clock_ == before) clock_ += 1;
        // step_into_hot may skip materializing the result, so only the PC
        // is trustworthy here; traps come from the per-step path.
        if constexpr (with_flight.value) fr->record_retire(clock_, pc, 0);
        if (track_pc) {
          ctrl_->on_cpu_pc(pc);
          if (ctrl_->state() != s0) break;  // completion: drain + resync
        }
        if (clock_ >= next_event) break;  // timer/watchdog event due
        if (periph_dirty_) break;  // APB access: next event may be stale
      }
    };
    if (fr != nullptr) {
      inner(std::bool_constant<true>{});
    } else {
      inner(std::bool_constant<false>{});
    }

    // Batch boundary: everything the per-step path does after a step, in
    // the same order, over the accumulated delta.
    drain_peripherals();
    while (auto resp = pktgen_->pop()) {
      egress_.push_back(wrappers_.egress_frame(*resp));
    }
  }
  return until != nullptr && ctrl_->state() == *until;
}

void LiquidSystem::run(u64 max_steps) {
  // A CPU in error mode normally ends the run, but while the watchdog is
  // armed time must keep flowing so the trip (and its error packet) can
  // happen — that is the §4.1 recovery story.
  if (!slow_run_path()) {
    run_batched(max_steps, nullptr);
    return;
  }
  for (u64 i = 0; i < max_steps; ++i) {
    if (pipe_->state().error_mode && !wdog_.armed()) break;
    step();
  }
}

bool LiquidSystem::run_until(net::LeonState state, u64 max_steps) {
  if (!slow_run_path()) return run_batched(max_steps, &state);
  for (u64 i = 0; i < max_steps; ++i) {
    if (ctrl_->state() == state) return true;
    if (pipe_->state().error_mode && !wdog_.armed()) return false;
    step();
  }
  return ctrl_->state() == state;
}

void LiquidSystem::reconfigure(const cpu::PipelineConfig& pcfg) {
  span_begin("reconfigure");
  metrics_.counter("sim.reconfigurations").inc();
  cfg_.pipeline = pcfg;
  pipe_ = std::make_unique<cpu::LeonPipeline>(pcfg, bus_, &clock_,
                                              &map::cacheable);
  pipe_->reset(map::kRomBase);
  // An active trace stream survives the new image.
  if (tracer_) pipe_->set_observer(tracer_.get());
  span_end("reconfigure");
}

void LiquidSystem::reset_cpu() {
  pipe_->reset(map::kRomBase);
}

void LiquidSystem::enable_trace_stream(net::Ipv4Addr dst_ip, u16 dst_port,
                                       std::size_t batch) {
  tracer_ = std::make_unique<net::TraceStreamer>(
      [this, dst_ip, dst_port](Bytes payload) {
        net::UdpDatagram d;
        d.src_ip = cfg_.node_ip;
        d.src_port = net::kTracePort;
        d.dst_ip = dst_ip;
        d.dst_port = dst_port;
        d.payload = std::move(payload);
        egress_.push_back(wrappers_.egress_frame(d));
      },
      batch);
  pipe_->set_observer(tracer_.get());
}

void LiquidSystem::flush_trace_stream() {
  if (tracer_) tracer_->flush();
}

void LiquidSystem::disable_trace_stream() {
  if (tracer_) {
    tracer_->flush();
    pipe_->set_observer(nullptr);
    tracer_.reset();
  }
}

void LiquidSystem::attach_span_log(trace::SpanLog* log, u32 pid, u32 tid) {
  flush_spans();
  spans_ = log;
  span_pid_ = pid;
  span_tid_ = tid;
  if (spans_ != nullptr) span_root_ = spans_->mint();
}

void LiquidSystem::span_begin(std::string name) {
  if (spans_ == nullptr) return;
  open_spans_.push_back({std::move(name), spans_->now_us(), clock_});
}

void LiquidSystem::span_end(const std::string& name) {
  // Close the innermost open span of that name.
  const auto it =
      std::find_if(open_spans_.rbegin(), open_spans_.rend(),
                   [&](const OpenSpan& o) { return o.name == name; });
  if (it == open_spans_.rend()) return;
  OpenSpan open = std::move(*it);
  open_spans_.erase(std::next(it).base());
  emit_span(std::move(open), spans_->now_us());
}

void LiquidSystem::span_instant(std::string name) {
  if (spans_ == nullptr) return;
  const double now = spans_->now_us();
  emit_span({std::move(name), now, clock_}, now);
}

void LiquidSystem::flush_spans() {
  while (!open_spans_.empty()) {
    OpenSpan open = std::move(open_spans_.back());
    open_spans_.pop_back();
    emit_span(std::move(open), spans_->now_us());
  }
}

void LiquidSystem::emit_span(OpenSpan open, double end_us) {
  trace::TraceContext parent = span_root_;
  if (ctrl_->trace_id() != 0) {
    parent.trace_id = ctrl_->trace_id();
    parent.span_id = ctrl_->trace_span_id();
  }
  trace::Span s;
  s.trace_id = parent.trace_id;
  s.span_id = spans_->child(parent).span_id;
  s.parent_span_id = parent.span_id;
  s.name = std::move(open.name);
  s.pid = span_pid_;
  s.tid = span_tid_;
  s.start_us = open.start_us;
  s.dur_us = end_us > open.start_us ? end_us - open.start_us : 0.0;
  s.start_cycle = open.start_cycle;
  s.cycle = clock_;
  spans_->add(std::move(s));
}

FlightRecorder& LiquidSystem::enable_flight_recorder() {
  if (!flight_) {
    flight_ = std::make_unique<FlightRecorder>(cfg_.flight_capacity,
                                               cfg_.flight_pc_sample);
    ctrl_->set_flight_provider([this] {
      const std::string json = flight_->to_json("remote_dump", clock_, 0);
      return Bytes(json.begin(), json.end());
    });
  }
  return *flight_;
}

std::string LiquidSystem::take_flight_dump(const std::string& reason) const {
  if (!flight_) return {};
  return flight_->to_json(reason, clock_);
}

void LiquidSystem::on_ctrl_transition(net::LeonState prev,
                                      net::LeonState next) {
  if (spans_ != nullptr) {
    // Span edges follow the leon_ctrl state machine: LOADING brackets the
    // user-port program download, RUNNING brackets the measured execution
    // window (Start -> return to the polling loop, the §4 measurement).
    if (prev == net::LeonState::kLoading) span_end("program.load");
    if (prev == net::LeonState::kRunning) span_end("program.run");
    if (next == net::LeonState::kLoading) span_begin("program.load");
    if (next == net::LeonState::kRunning) span_begin("program.run");
    if (next == net::LeonState::kError) span_instant("leon_ctrl.error");
  }
  if (!flight_) return;
  flight_->record(clock_, FlightEventKind::kCtrlState,
                  static_cast<u64>(prev), static_cast<u64>(next));
  if (next != net::LeonState::kError) return;
  // Post-mortem: the error transition just landed in the ring, the PC the
  // processor is wedged at is its current architectural PC.  A trip-driven
  // error gets a kWatchdog event; a forced error only the transition.
  const u64 trips = ctrl_->stats().watchdog_trips;
  const bool tripped = trips != seen_wdog_trips_;
  seen_wdog_trips_ = trips;
  if (tripped) {
    flight_->record(clock_, FlightEventKind::kWatchdog, pipe_->state().pc,
                    cfg_.watchdog_budget);
  }
  last_flight_dump_ =
      flight_->to_json(tripped ? "watchdog" : "ctrl_error", clock_);
}

void LiquidSystem::sync_watchdog() {
  if (cfg_.watchdog_budget == 0) return;
  const net::LeonState s = ctrl_->state();
  if (s == wdog_state_) return;
  if (s == net::LeonState::kRunning) {
    wdog_.arm(cfg_.watchdog_budget);
  } else {
    wdog_.disarm();
  }
  wdog_state_ = s;
}

}  // namespace la::sim
