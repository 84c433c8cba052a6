#include "cpu/leon_pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <vector>

#include "cpu/sparc_semantics.hpp"
#include "isa/decode.hpp"

namespace la::cpu {

using isa::Instruction;
using isa::Mnemonic;
using isa::Trap;
using v8::kNoTrap;
using v8::tt_of;

namespace {

/// Big-endian scalar access into a cache line's byte storage.
u64 line_read(const u8* line, u32 off, unsigned size) {
  u64 v = 0;
  for (unsigned i = 0; i < size; ++i) v = (v << 8) | line[off + i];
  return v;
}

void line_write(u8* line, u32 off, unsigned size, u64 v) {
  for (unsigned i = 0; i < size; ++i) {
    line[off + i] = static_cast<u8>(v >> (8 * (size - 1 - i)));
  }
}

}  // namespace

LeonPipeline::LeonPipeline(const PipelineConfig& cfg, bus::AhbBus& bus,
                           Cycles* clock, CacheableFn cacheable)
    : cfg_(cfg),
      bus_(bus),
      clock_(clock),
      cacheable_(cacheable),
      icache_(cfg.icache, /*seed=*/1),
      dcache_(cfg.dcache, /*seed=*/2),
      st_(cfg.cpu),
      imirror_addr_(cfg.icache.num_lines(), kNoMirrorLine),
      imirror_ins_(static_cast<std::size_t>(cfg.icache.num_lines()) *
                   cfg.icache.words_per_line()),
      iline_mask_(cfg.icache.line_bytes - 1),
      iline_words_(cfg.icache.words_per_line()),
      iline_words_shift_(
          static_cast<u32>(std::countr_zero(cfg.icache.words_per_line()))),
      dline_mask_(cfg.dcache.line_bytes - 1),
      fast_(cfg.cpu.host_fast_paths),
      hot_ifetch_(cfg.cpu.host_fast_paths && cfg.icache_enabled) {
  assert(cfg.cpu.valid() && cfg.icache.valid() && cfg.dcache.valid());
  assert(clock != nullptr && cacheable != nullptr);
  // Doubleword accesses must never straddle a line.
  assert(cfg.icache.line_bytes >= 8 && cfg.dcache.line_bytes >= 8);
}

void LeonPipeline::reset(Addr entry) {
  st_ = CpuState(cfg_.cpu);
  st_.pc = entry;
  st_.npc = entry + 4;
  st_.psr.s = true;
  st_.psr.et = false;
  annul_next_ = false;
  wedged_ = false;
  irq_level_ = 0;
  wb_free_at_ = 0;
  flush_caches();
}

void LeonPipeline::flush_caches() {
  icache_.flush();
  // The mirror self-invalidates via the line-address check (nothing can
  // hit a flushed line without a refill, and the refill refreshes the
  // mirror); clearing it here is belt-and-braces hygiene off the hot path.
  std::fill(imirror_addr_.begin(), imirror_addr_.end(), kNoMirrorLine);
  // LEON's caches are write-through: dirty data cannot exist, so a plain
  // invalidate is a correct flush for the default policy.  For the
  // write-back extension the victims are pushed out over the bus.
  std::vector<cache::DirtyLine> dirty;
  dcache_.flush(&dirty);
  for (const cache::DirtyLine& d : dirty) {
    *clock_ += writeback_line(d.addr, d.data.data());
  }
}

Cycles LeonPipeline::writeback_line(Addr addr, const u8* bytes) {
  bool error = false;  // memory writeback errors are ignored, as before
  return bus_.write_line(bus::Master::kCpuData, addr, cfg_.dcache.line_bytes,
                         bytes, error);
}

u32 LeonPipeline::cache_control() const {
  u32 ccr = 0;
  if (cfg_.icache_enabled) ccr |= 0x3;        // ICS = enabled
  if (cfg_.dcache_enabled) ccr |= 0x3 << 2;   // DCS = enabled
  return ccr;
}

// ---------------------------------------------------------------------------
// Timed memory paths
// ---------------------------------------------------------------------------

void LeonPipeline::predecode_line(u32 slot, Addr line_addr, const u8* line) {
  imirror_addr_[slot] = line_addr;
  isa::Instruction* dst =
      &imirror_ins_[static_cast<std::size_t>(slot) * iline_words_];
  for (u32 w = 0; w < iline_words_; ++w) {
    const u32 word = static_cast<u32>(line_read(line, w * 4, 4));
    dst[w] = predecode_.lookup(word);
  }
}

LeonPipeline::MemResult LeonPipeline::ifetch(
    Addr pc, u32& word, const isa::Instruction*& /*predecoded*/) {
  // The predecoded pointer is never set here: a fill refreshes the mirror
  // and the *next* fetch of this pc hits ifetch_hot's mirror path, which
  // keeps this (cold) function free of the mirror-indexing arithmetic.
  MemResult r;
  const bool cached = cfg_.icache_enabled && cacheable_(pc);
  if (!cached) {
    u32 v = 0;
    bus::AhbTransfer t;
    t.addr = pc;
    t.data = &v;
    r.cycles = bus_.transfer(bus::Master::kCpuInstr, t);
    r.ok = !t.error;
    word = v;
    return r;
  }
  // The hit paths (ordinary hit + fresh/stale mirror) live in ifetch_hot();
  // callers try that first, so by the time we are here the probe already
  // missed (and touched nothing) or the fast paths are off.
  const auto out = icache_.access(pc, /*is_write=*/false);
  if (!out.hit) {
    bool error = false;
    r.cycles = bus_.fill_line(bus::Master::kCpuInstr, out.line_addr,
                              cfg_.icache.line_bytes, out.data, error);
    stats_.icache_stall += r.cycles;
    if (error) {
      icache_.invalidate_line(pc);
      imirror_addr_[out.slot] = kNoMirrorLine;
      r.ok = false;
      return r;
    }
    if (fast_) predecode_line(out.slot, out.line_addr, out.data);
    word = static_cast<u32>(line_read(out.data, pc - out.line_addr, 4));
    return r;
  }
  word = static_cast<u32>(line_read(out.data, pc - out.line_addr, 4));
  return r;
}

LeonPipeline::MemResult LeonPipeline::data_read(Addr addr, unsigned size) {
  MemResult r;
  const bool cached = cfg_.dcache_enabled && cacheable_(addr);
  if (!cached) {
    if (size == 8) {
      u32 buf[2] = {};
      bus::AhbTransfer t;
      t.addr = addr;
      t.beats = 2;
      t.burst = bus::HBurst::kIncr;
      t.data = buf;
      r.cycles = bus_.transfer(bus::Master::kCpuData, t);
      r.ok = !t.error;
      r.value = (u64{buf[0]} << 32) | buf[1];
    } else {
      u32 v = 0;
      bus::AhbTransfer t;
      t.addr = addr;
      t.beat_bytes = size;
      t.data = &v;
      r.cycles = bus_.transfer(bus::Master::kCpuData, t);
      r.ok = !t.error;
      r.value = v;
    }
    stats_.dcache_stall += r.cycles;
    return r;
  }

  if (fast_) {
    // Hot path: ordinary read hit (LRU/stats updated inside, identically
    // to the access() hit path below).
    const cache::HitRef h = dcache_.lookup_hit(addr);
    if (h.data != nullptr) {
      r.value = line_read(h.data, addr & dline_mask_, size);
      return r;
    }
  }
  const auto out = dcache_.access(addr, /*is_write=*/false);
  if (out.parity_discard) {
    // A poisoned dirty line lost the only copy of its data; fault.
    r.ok = false;
    return r;
  }
  if (out.writeback) {
    // Dirty victim (write-back extension): push its bytes out before the
    // fill overwrites the slot.
    r.cycles += writeback_line(out.victim_addr, out.data);
  }
  if (out.fill) {
    bool error = false;
    r.cycles += bus_.fill_line(bus::Master::kCpuData, out.line_addr,
                               cfg_.dcache.line_bytes, out.data, error);
    stats_.dcache_stall += r.cycles;
    if (error) {
      dcache_.invalidate_line(addr);
      r.ok = false;
      return r;
    }
  }
  r.value = line_read(out.data, addr - out.line_addr, size);
  return r;
}

LeonPipeline::MemResult LeonPipeline::data_write(Addr addr, unsigned size,
                                                 u64 value) {
  MemResult r;
  const bool cached = cfg_.dcache_enabled && cacheable_(addr);
  const bool write_back =
      cfg_.dcache.write_policy == cache::WritePolicy::kWriteBackAllocate;

  if (cached && write_back) {
    const auto out = dcache_.access(addr, /*is_write=*/true);
    if (out.parity_discard) {
      r.ok = false;
      return r;
    }
    if (out.writeback) {
      r.cycles += writeback_line(out.victim_addr, out.data);
    }
    if (out.fill) {
      // Write-allocate: fetch the line, then merge the store into it.
      bool error = false;
      r.cycles += bus_.fill_line(bus::Master::kCpuData, out.line_addr,
                                 cfg_.dcache.line_bytes, out.data, error);
      if (error) {
        dcache_.invalidate_line(addr);
        r.ok = false;
        return r;
      }
    }
    line_write(out.data, addr - out.line_addr, size, value);
    stats_.dcache_stall += r.cycles;
    return r;
  }

  // Write-through (or uncached): the store goes on the bus.
  if (cached) {
    const auto out = dcache_.access(addr, /*is_write=*/true);
    if (out.hit) {
      // Keep the resident line coherent with the memory write below.
      line_write(out.data, addr - out.line_addr, size, value);
    }
  }

  Cycles bus_cost = 0;
  bool error = false;
  if (size == 8) {
    u32 buf[2] = {static_cast<u32>(value >> 32), static_cast<u32>(value)};
    bus::AhbTransfer t;
    t.addr = addr;
    t.write = true;
    t.beats = 2;
    t.burst = bus::HBurst::kIncr;
    t.data = buf;
    bus_cost = bus_.transfer(bus::Master::kCpuData, t);
    error = t.error;
  } else {
    u32 v = static_cast<u32>(value);
    bus::AhbTransfer t;
    t.addr = addr;
    t.write = true;
    t.beat_bytes = size;
    t.data = &v;
    bus_cost = bus_.transfer(bus::Master::kCpuData, t);
    error = t.error;
  }
  if (error) {
    r.ok = false;
    r.cycles = bus_cost;
    return r;
  }

  const bool buffered = cached && cfg_.write_buffer_depth > 0;
  if (!buffered) {
    r.cycles = bus_cost;
    stats_.dcache_stall += bus_cost;
    return r;
  }
  // Write buffer: the store retires immediately unless the buffer is still
  // draining a previous store (single-entry drain model).
  const Cycles now = *clock_;
  const Cycles start = std::max(now, wb_free_at_);
  const Cycles stall = start - now;
  wb_free_at_ = start + bus_cost;
  r.cycles = stall;
  stats_.store_stall += stall;
  return r;
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

void LeonPipeline::take_trap(u8 tt) {
  ++stats_.traps;
  if (v8::enter_trap(st_, tt)) annul_next_ = false;
}

bool LeonPipeline::asi_access(const Instruction& ins, Addr ea,
                              StepResult& res) {
  // LEON ASI 2: system control registers — address 0 is the cache control
  // register.  Flush bits FI (21) and FD (22) invalidate the caches.
  if (ins.asi != 2 || ea != 0) return false;
  if (ins.mn == Mnemonic::kLda) {
    st_.set_reg(ins.rd, cache_control());
    res.cycles += cfg_.cpu.load_extra;
    return true;
  }
  if (ins.mn == Mnemonic::kSta) {
    const u32 v = st_.reg(ins.rd);
    if (v & (1u << 21)) icache_.flush();
    if (v & (1u << 22)) {
      std::vector<cache::DirtyLine> dirty;
      dcache_.flush(&dirty);
      for (const cache::DirtyLine& d : dirty) {
        res.cycles += writeback_line(d.addr, d.data.data());
      }
    }
    res.cycles += cfg_.cpu.store_extra;
    return true;
  }
  return false;
}

u8 LeonPipeline::execute(const Instruction& ins, StepResult& res) {
  auto& st = st_;

  const u32 ra = st.reg(ins.rs1);
  const u32 rb = v8::op2(st, ins);
  const Addr ea = ra + rb;  // memory address; jmpl/rett/flush target
  const bool subx_quirk = cfg_.cpu.quirk_subx_no_carry;

  // Memory operations: the shared legality checks, the ASI 2 cache
  // control, then the timed access.  `done` is set when no access is due.
  const auto mem_trap = [&](unsigned size, bool& done) {
    const bool alt = isa::is_alternate_space(ins.mn);
    const u8 tt = v8::mem_trap(st.psr, alt, size, ins.rd, ea);
    done = tt != kNoTrap || (alt && asi_access(ins, ea, res));
    return tt;
  };
  const auto accessed = [&](unsigned size, bool write, Cycles extra) -> u8 {
    res.cycles = 1 + extra;
    res.mem_access = true;
    res.mem_write = write;
    res.mem_addr = ea;
    res.mem_size = static_cast<u8>(size);
    return kNoTrap;
  };
  // always_inline: an outlined load path costs the per-step execute() (the
  // path step_into_hot and the reference loop call) about a sixth of its
  // throughput on sim_mips' leon_pipeline row.
  const auto do_load = [&](unsigned size,
                           bool sign) __attribute__((always_inline)) -> u8 {
    bool done = false;
    if (const u8 tt = mem_trap(size, done); done) return tt;
    const MemResult rr = data_read(ea, size);
    if (!rr.ok) return tt_of(Trap::kDataAccess);
    v8::load_result(st, ins.rd, size, sign, rr.value);
    ++stats_.loads;
    const CpuConfig& c = cfg_.cpu;
    return accessed(size, false,
                    (size == 8 ? c.load_double_extra : c.load_extra) +
                        rr.cycles);
  };
  const auto do_store = [&](unsigned size) -> u8 {
    bool done = false;
    if (const u8 tt = mem_trap(size, done); done) return tt;
    const MemResult wr =
        data_write(ea, size, v8::store_value(st, ins.rd, size));
    if (!wr.ok) return tt_of(Trap::kDataAccess);
    ++stats_.stores;
    const CpuConfig& c = cfg_.cpu;
    return accessed(size, true,
                    (size == 8 ? c.store_double_extra : c.store_extra) +
                        wr.cycles);
  };
  const auto do_atomic = [&](unsigned size) -> u8 {
    bool done = false;
    if (const u8 tt = mem_trap(size, done); done) return tt;
    const MemResult rr = data_read(ea, size);
    if (!rr.ok) return tt_of(Trap::kDataAccess);
    const MemResult wr =
        data_write(ea, size, v8::atomic_value(st, ins.rd, size));
    if (!wr.ok) return tt_of(Trap::kDataAccess);
    st.set_reg(ins.rd, static_cast<u32>(rr.value));
    ++stats_.loads;  // atomics count as both (isa::is_load / is_store)
    ++stats_.stores;
    return accessed(size, true,
                    cfg_.cpu.load_extra + cfg_.cpu.store_extra + rr.cycles +
                        wr.cycles);
  };

  // Instruction-mix accounting happens inline on the no-trap paths: the
  // retired-only counts, with the hot path dispatching once.
  switch (ins.mn) {
    case Mnemonic::kInvalid:
    case Mnemonic::kUnimp:
      return tt_of(Trap::kIllegalInstruction);

    case Mnemonic::kCall:
      cti_taken_ = true;
      cti_target_ = v8::call(st, ins.disp);
      res.cycles += cfg_.cpu.cti_extra;
      ++stats_.calls;
      return kNoTrap;

    case Mnemonic::kBicc: {
      ++stats_.branches;
      const v8::Branch br = v8::bicc(st.psr, ins.cond, ins.annul);
      annul_next_ = br.annul;
      if (br.taken) {
        cti_taken_ = true;
        cti_target_ = v8::branch_target(st.pc, ins.disp);
        res.cycles += cfg_.cpu.cti_extra;
        ++stats_.taken_branches;
      }
      return kNoTrap;
    }

    case Mnemonic::kJmpl: {
      if (const u8 tt = v8::jmpl(st, ins.rd, ea); tt != kNoTrap) return tt;
      cti_taken_ = true;
      cti_target_ = ea;
      res.cycles += cfg_.cpu.cti_extra;
      ++stats_.calls;
      return kNoTrap;
    }

    case Mnemonic::kRett: {
      if (const u8 tt = v8::rett(st, ea); tt != kNoTrap) return tt;
      cti_taken_ = true;
      cti_target_ = ea;
      res.cycles += cfg_.cpu.cti_extra;
      return kNoTrap;
    }

    case Mnemonic::kTicc:
      return v8::ticc(st.psr, ins.cond, ra, rb);

    case Mnemonic::kFlush: {
      // LEON flush: invalidate the I- and D-cache lines holding the
      // effective address (this is what makes the boot ROM's mailbox poll
      // see writes performed behind the processor's back, Fig 5).
      icache_.invalidate_line(ea);
      cache::DirtyLine d;
      if (dcache_.invalidate_line(ea, &d) && !d.data.empty()) {
        res.cycles += writeback_line(d.addr, d.data.data());
      }
      return kNoTrap;
    }

    // ALU -------------------------------------------------------------------
    case Mnemonic::kSethi:
      st.set_reg(ins.rd, v8::sethi(ins.imm22));
      return kNoTrap;

#define LA_PIPE_ALU(m)                                                    \
  case Mnemonic::m:                                                       \
    st.set_reg(ins.rd, v8::alu<Mnemonic::m>(st.psr, ra, rb, subx_quirk)); \
    return kNoTrap;
      LA_V8_ALU_OPS(LA_PIPE_ALU)
#undef LA_PIPE_ALU

    case Mnemonic::kTaddcc:
    case Mnemonic::kTaddcctv:
    case Mnemonic::kTsubcc:
    case Mnemonic::kTsubcctv:
      return v8::tagged(st, ins.mn, ins.rd, ra, rb);

    // Multiply / divide -------------------------------------------------------
    case Mnemonic::kMulscc:
      v8::mulscc(st, ins.rd, ra, rb);
      return kNoTrap;
    case Mnemonic::kUmul:
    case Mnemonic::kUmulcc:
    case Mnemonic::kSmul:
    case Mnemonic::kSmulcc: {
      const u8 tt = v8::multiply(st, ins.mn, ins.rd, ra, rb, cfg_.cpu.has_mul);
      if (tt != kNoTrap) return tt;
      res.cycles = cfg_.cpu.mul_latency;
      ++stats_.muldiv;
      return kNoTrap;
    }
    case Mnemonic::kUdiv:
    case Mnemonic::kUdivcc:
    case Mnemonic::kSdiv:
    case Mnemonic::kSdivcc: {
      const u8 tt = v8::divide(st, ins.mn, ins.rd, ra, rb, cfg_.cpu.has_div);
      if (tt != kNoTrap) return tt;
      res.cycles = cfg_.cpu.div_latency;
      ++stats_.muldiv;
      return kNoTrap;
    }

    // State registers ---------------------------------------------------------
    case Mnemonic::kRdy: return v8::rdy(st, ins.rd);
    case Mnemonic::kRdasr: return v8::rdasr(st, ins.rd, ins.rs1);
    case Mnemonic::kRdpsr: return v8::rdpsr(st, ins.rd);
    case Mnemonic::kRdwim: return v8::rdwim(st, ins.rd);
    case Mnemonic::kRdtbr: return v8::rdtbr(st, ins.rd);
    case Mnemonic::kWry: return v8::wry(st, ra ^ rb);
    case Mnemonic::kWrasr: return v8::wrasr(st, ins.rd, ra ^ rb);
    case Mnemonic::kWrpsr: return v8::wrpsr(st, ra ^ rb);
    case Mnemonic::kWrwim: return v8::wrwim(st, ra ^ rb);
    case Mnemonic::kWrtbr: return v8::wrtbr(st, ra ^ rb);

    // Windows -----------------------------------------------------------------
    case Mnemonic::kSave: return v8::save(st, ins.rd, ra, rb);
    case Mnemonic::kRestore: return v8::restore(st, ins.rd, ra, rb);

    // Memory ------------------------------------------------------------------
    case Mnemonic::kLd: case Mnemonic::kLda: return do_load(4, false);
    case Mnemonic::kLdub: case Mnemonic::kLduba: return do_load(1, false);
    case Mnemonic::kLduh: case Mnemonic::kLduha: return do_load(2, false);
    case Mnemonic::kLdsb: case Mnemonic::kLdsba: return do_load(1, true);
    case Mnemonic::kLdsh: case Mnemonic::kLdsha: return do_load(2, true);
    case Mnemonic::kLdd: case Mnemonic::kLdda: return do_load(8, false);
    case Mnemonic::kSt: case Mnemonic::kSta: return do_store(4);
    case Mnemonic::kStb: case Mnemonic::kStba: return do_store(1);
    case Mnemonic::kSth: case Mnemonic::kStha: return do_store(2);
    case Mnemonic::kStd: case Mnemonic::kStda: return do_store(8);
    case Mnemonic::kLdstub: case Mnemonic::kLdstuba: return do_atomic(1);
    case Mnemonic::kSwap: case Mnemonic::kSwapa: return do_atomic(4);

    // -- FP / coprocessor: neither unit is configured (see v8::mem_trap) ---
    case Mnemonic::kFbfcc: case Mnemonic::kFpop1: case Mnemonic::kFpop2:
    case Mnemonic::kLdf: case Mnemonic::kLdfsr: case Mnemonic::kLddf:
    case Mnemonic::kStf: case Mnemonic::kStfsr: case Mnemonic::kStdfq:
    case Mnemonic::kStdf:
      return tt_of(Trap::kFpDisabled);
    case Mnemonic::kCbccc: case Mnemonic::kCpop1: case Mnemonic::kCpop2:
    case Mnemonic::kLdc: case Mnemonic::kLdcsr: case Mnemonic::kLddc:
    case Mnemonic::kStc: case Mnemonic::kStcsr: case Mnemonic::kStdcq:
    case Mnemonic::kStdc:
      return tt_of(Trap::kCpDisabled);

    case Mnemonic::kCount:
      break;
  }
  return tt_of(Trap::kIllegalInstruction);
}

StepResult LeonPipeline::step() {
  StepResult res;
  step_into(res);
  return res;
}

void LeonPipeline::step_into(StepResult& res) { step_impl<true>(res); }

void LeonPipeline::step_into_hot(StepResult& res) {
  // The observer contract always gets a fully-populated result; without
  // one nothing can read `res.ins`, so the 32-byte copy is skipped.
  if (obs_ != nullptr) {
    step_impl<true>(res);
  } else {
    step_impl<false>(res);
  }
}

template <bool kCopyIns>
void LeonPipeline::step_impl(StepResult& res) {
  // kCopyIns=false is the observerless run-loop body: nothing outside this
  // call reads `res` (the caller reuses one instance and never looks at
  // it), so the per-step result materialization and the observer dispatch
  // are compiled out.  kCopyIns=true keeps the full step()/step_into()
  // contract: a completely populated result, observer notified.
  if constexpr (kCopyIns) {
    res.pc = st_.pc;
    res.raw = 0;
    res.annulled = false;
    res.trapped = false;
    res.tt = 0;
    res.mem_access = false;
    res.mem_write = false;
    res.mem_addr = 0;
    res.mem_size = 0;
  }
  res.cycles = 1;
  if (st_.error_mode) return;

  if (wedged_) {
    // A wedged CPU holds its architectural state and burns a cycle: the
    // clock (and everything hanging off it — timers, the watchdog) keeps
    // running while no instruction retires.
    res.cycles = 1;
    *clock_ += 1;
    stats_.cycles += 1;
    return;
  }

  if (v8::interrupt_pending(st_.psr, irq_level_)) {
    const u8 tt = v8::interrupt_tt(irq_level_);
    take_trap(tt);
    res.trapped = true;
    res.tt = tt;
    res.cycles = cfg_.cpu.trap_latency;
    *clock_ += res.cycles;
    stats_.cycles += res.cycles;
    if constexpr (kCopyIns) {
      if (obs_) obs_->on_step(res);
    }
    return;
  }

  u32 word = 0;
  const isa::Instruction* pins = nullptr;
  Cycles fetch_stall = 0;  // stall cycles beyond the base instruction cost
  if (!ifetch_hot(st_.pc, word, pins)) [[unlikely]] {
    const MemResult f = ifetch(st_.pc, word, pins);
    if (!f.ok) {
      take_trap(tt_of(Trap::kInstructionAccess));
      res.trapped = true;
      res.tt = tt_of(Trap::kInstructionAccess);
      res.cycles = cfg_.cpu.trap_latency + f.cycles;
      *clock_ += res.cycles;
      stats_.cycles += res.cycles;
      if constexpr (kCopyIns) {
        if (obs_) obs_->on_step(res);
      }
      return;
    }
    fetch_stall = f.cycles;
  }
  if constexpr (kCopyIns) res.raw = word;
  isa::Instruction local;
  if (pins == nullptr) {
    if (fast_) {
      pins = &predecode_.lookup(word);
    } else {
      local = isa::decode(word);
      pins = &local;
    }
  }
  if constexpr (kCopyIns) res.ins = *pins;

  if (annul_next_) {
    annul_next_ = false;
    res.annulled = true;
    st_.pc = st_.npc;
    st_.npc += 4;
    res.cycles = 1 + fetch_stall;
    ++stats_.annulled;
    *clock_ += res.cycles;
    stats_.cycles += res.cycles;
    if constexpr (kCopyIns) {
      if (obs_) obs_->on_step(res);
    }
    return;
  }

  cti_taken_ = false;
  res.cycles = 1;
  // Instruction-mix accounting (branches/calls/muldiv/loads/stores) lives
  // inside execute's no-trap paths — same retired-only counts, one switch.
  const u8 tt = execute(*pins, res);
  if (tt != kNoTrap) [[unlikely]] {
    take_trap(tt);
    res.trapped = true;
    res.tt = tt;
    res.cycles = cfg_.cpu.trap_latency + fetch_stall;
  } else {
    res.cycles += fetch_stall;
    const Addr new_pc = st_.npc;
    const Addr new_npc = cti_taken_ ? cti_target_ : st_.npc + 4;
    st_.pc = new_pc;
    st_.npc = new_npc;
    ++stats_.instructions;
  }
  *clock_ += res.cycles;
  stats_.cycles += res.cycles;
  if constexpr (kCopyIns) {
    if (obs_) obs_->on_step(res);
  }
}

// noinline: the per-step reference loop must keep the code generation the
// plain step() path always had — run()'s flatten below must not reach it.
__attribute__((noinline)) u64 LeonPipeline::run_slow(u64 max_steps,
                                                     Addr halt_pc) {
  u64 n = 0;
  while (n < max_steps && !st_.error_mode && st_.pc != halt_pc) {
    step();
    ++n;
  }
  return n;
}

// flatten: inline the whole step body (execute included) into the run
// loop so the reused StepResult never escapes and can live in registers.
__attribute__((flatten)) u64 LeonPipeline::run(u64 max_steps, Addr halt_pc) {
  if (obs_ == nullptr && fast_) {
    // Hot loop: one StepResult reused across iterations and never read
    // (see step_impl's kCopyIns contract); with no observer attached
    // nothing outside this frame can see the per-step results, so the
    // behaviour is identical.  Gated by host_fast_paths so the reference
    // configuration exercises the plain per-step path end to end.
    StepResult res;
    u64 n = 0;
    while (n < max_steps && !st_.error_mode && st_.pc != halt_pc) {
      step_impl<false>(res);
      ++n;
    }
    return n;
  }
  return run_slow(max_steps, halt_pc);
}

namespace {
constexpr u32 kPipeTag = snap_tag("PIPE");
}  // namespace

void LeonPipeline::save_state(SnapWriter& w) const {
  w.tag(kPipeTag);
  // Architectural CPU state.
  w.vec_u32(st_.regs.raw());
  w.u64v(st_.pc);
  w.u64v(st_.npc);
  w.u32v(st_.psr.pack());
  w.u32v(st_.wim);
  w.u32v(st_.tbr);
  w.u32v(st_.y);
  for (u32 a : st_.asr) w.u32v(a);
  w.b(st_.error_mode);
  // Inter-step pipeline latches.
  w.b(annul_next_);
  w.b(wedged_);
  w.u8v(irq_level_);
  w.b(cti_taken_);
  w.u64v(cti_target_);
  w.u64v(static_cast<u64>(wb_free_at_));
  // Stats.
  w.u64v(stats_.instructions);
  w.u64v(stats_.annulled);
  w.u64v(stats_.traps);
  w.u64v(static_cast<u64>(stats_.cycles));
  w.u64v(static_cast<u64>(stats_.icache_stall));
  w.u64v(static_cast<u64>(stats_.dcache_stall));
  w.u64v(static_cast<u64>(stats_.store_stall));
  w.u64v(stats_.loads);
  w.u64v(stats_.stores);
  w.u64v(stats_.branches);
  w.u64v(stats_.taken_branches);
  w.u64v(stats_.calls);
  w.u64v(stats_.muldiv);
  // Caches (tags, LRU, parity, line data, replacement RNG).
  icache_.save_state(w);
  dcache_.save_state(w);
}

bool LeonPipeline::load_state(SnapReader& r) {
  if (!r.expect(kPipeTag)) return false;
  if (!st_.regs.set_raw(r.vec_u32())) return false;
  st_.pc = r.u64v();
  st_.npc = r.u64v();
  st_.psr.unpack(r.u32v());
  st_.wim = r.u32v();
  st_.tbr = r.u32v();
  st_.y = r.u32v();
  for (u32& a : st_.asr) a = r.u32v();
  st_.error_mode = r.b();
  annul_next_ = r.b();
  wedged_ = r.b();
  irq_level_ = r.u8v();
  cti_taken_ = r.b();
  cti_target_ = r.u64v();
  wb_free_at_ = static_cast<Cycles>(r.u64v());
  stats_.instructions = r.u64v();
  stats_.annulled = r.u64v();
  stats_.traps = r.u64v();
  stats_.cycles = static_cast<Cycles>(r.u64v());
  stats_.icache_stall = static_cast<Cycles>(r.u64v());
  stats_.dcache_stall = static_cast<Cycles>(r.u64v());
  stats_.store_stall = static_cast<Cycles>(r.u64v());
  stats_.loads = r.u64v();
  stats_.stores = r.u64v();
  stats_.branches = r.u64v();
  stats_.taken_branches = r.u64v();
  stats_.calls = r.u64v();
  stats_.muldiv = r.u64v();
  if (!icache_.load_state(r) || !dcache_.load_state(r)) return false;
  // Every host-side memo is now stale: the mirror's decoded lines belong to
  // the pre-restore contents.  Invalidate; fills rebuild them on demand.
  std::fill(imirror_addr_.begin(), imirror_addr_.end(), kNoMirrorLine);
  last_iline_ = kNoMirrorLine;
  return r.ok();
}

}  // namespace la::cpu
