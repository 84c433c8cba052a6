#include "cpu/leon_pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <vector>

#include "common/bits.hpp"
#include "isa/decode.hpp"
#include "isa/traps.hpp"

namespace la::cpu {

using isa::Cond;
using isa::Instruction;
using isa::Mnemonic;
using isa::Trap;

namespace {
constexpr u8 kNoTrap = static_cast<u8>(Trap::kNone);
constexpr u8 tt_of(Trap t) { return static_cast<u8>(t); }

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
// Trap machinery (independent implementation; see integer_unit.cpp for the
// reference model)
// ---------------------------------------------------------------------------

void LeonPipeline::take_trap(u8 tt) {
  ++stats_.traps;
  if (!st_.psr.et && tt != tt_of(Trap::kReset)) {
    st_.set_tbr_tt(tt);
    st_.error_mode = true;
    return;
  }
  st_.psr.et = false;
  st_.psr.ps = st_.psr.s;
  st_.psr.s = true;
  st_.psr.cwp =
      static_cast<u8>((st_.psr.cwp + st_.nwindows - 1) % st_.nwindows);
  st_.set_reg(17, st_.pc);
  st_.set_reg(18, st_.npc);
  st_.set_tbr_tt(tt);
  st_.pc = (st_.tbr & 0xfffff000u) + (u32{tt} << 4);
  st_.npc = st_.pc + 4;
  annul_next_ = false;
}

void LeonPipeline::icc_from(u32 res, bool v, bool c) {
  st_.psr.n = (res >> 31) != 0;
  st_.psr.z = res == 0;
  st_.psr.v = v;
  st_.psr.c = c;
}

u32 LeonPipeline::op2val(const Instruction& ins) const {
  return ins.imm ? static_cast<u32>(ins.simm13) : st_.reg(ins.rs2);
}

bool LeonPipeline::asi_access(const Instruction& ins, StepResult& res,
                              u8& tt) {
  // LEON ASI 2: system control registers — address 0 is the cache control
  // register.  Flush bits FI (21) and FD (22) invalidate the caches.
  if (ins.asi != 2) return false;
  const Addr ea = st_.reg(ins.rs1) + st_.reg(ins.rs2);
  if (ea != 0) return false;
  tt = kNoTrap;
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

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

u8 LeonPipeline::execute(const Instruction& ins, StepResult& res) {
  auto& st = st_;
  const Addr pc = st.pc;
  const u32 ra = st.reg(ins.rs1);
  const u32 rb = op2val(ins);

  const auto branch_target = [&] {
    return pc + (static_cast<u32>(ins.disp) << 2);
  };

  switch (ins.mn) {
    case Mnemonic::kInvalid:
    case Mnemonic::kUnimp:
      return tt_of(Trap::kIllegalInstruction);

    case Mnemonic::kCall:
      st.set_reg(15, pc);
      cti_taken_ = true;
      cti_target_ = branch_target();
      res.cycles += cfg_.cpu.cti_extra;
      ++stats_.calls;
      return kNoTrap;

    case Mnemonic::kBicc: {
      // Instruction-mix accounting happens inline on the no-trap paths
      // (here and in every case below): it is exactly the retired-only
      // bookkeeping step_impl used to do in a second mnemonic switch,
      // folded in so the hot path dispatches once.
      ++stats_.branches;
      const bool taken =
          isa::eval_cond(ins.cond, st.psr.n, st.psr.z, st.psr.v, st.psr.c);
      if (ins.cond == Cond::kA) {
        cti_taken_ = true;
        cti_target_ = branch_target();
        annul_next_ = ins.annul;
        res.cycles += cfg_.cpu.cti_extra;
        ++stats_.taken_branches;
      } else if (taken) {
        cti_taken_ = true;
        cti_target_ = branch_target();
        res.cycles += cfg_.cpu.cti_extra;
        ++stats_.taken_branches;
      } else if (ins.annul) {
        annul_next_ = true;
      }
      return kNoTrap;
    }

    case Mnemonic::kFbfcc:
      return tt_of(Trap::kFpDisabled);
    case Mnemonic::kCbccc:
      return tt_of(Trap::kCpDisabled);

    case Mnemonic::kJmpl: {
      const Addr target = ra + rb;
      if ((target & 3u) != 0) return tt_of(Trap::kMemAddressNotAligned);
      st.set_reg(ins.rd, pc);
      cti_taken_ = true;
      cti_target_ = target;
      res.cycles += cfg_.cpu.cti_extra;
      ++stats_.calls;
      return kNoTrap;
    }

    case Mnemonic::kRett: {
      if (st.psr.et) {
        return st.psr.s ? tt_of(Trap::kIllegalInstruction)
                        : tt_of(Trap::kPrivilegedInstruction);
      }
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      const unsigned ncwp = (st.psr.cwp + 1) % st.nwindows;
      if ((st.wim >> ncwp) & 1u) return tt_of(Trap::kWindowUnderflow);
      const Addr target = ra + rb;
      if ((target & 3u) != 0) return tt_of(Trap::kMemAddressNotAligned);
      st.psr.cwp = static_cast<u8>(ncwp);
      st.psr.s = st.psr.ps;
      st.psr.et = true;
      cti_taken_ = true;
      cti_target_ = target;
      res.cycles += cfg_.cpu.cti_extra;
      return kNoTrap;
    }

    case Mnemonic::kTicc: {
      if (!isa::eval_cond(ins.cond, st.psr.n, st.psr.z, st.psr.v, st.psr.c)) {
        return kNoTrap;
      }
      return static_cast<u8>(0x80u + ((ra + rb) & 0x7fu));
    }

    case Mnemonic::kFlush: {
      // LEON flush: invalidate the I- and D-cache lines holding the
      // effective address (this is what makes the boot ROM's mailbox poll
      // see writes performed behind the processor's back, Fig 5).
      const Addr ea = ra + rb;
      icache_.invalidate_line(ea);
      cache::DirtyLine d;
      if (dcache_.invalidate_line(ea, &d) && !d.data.empty()) {
        res.cycles += writeback_line(d.addr, d.data.data());
      }
      return kNoTrap;
    }

    case Mnemonic::kSethi:
      st.set_reg(ins.rd, ins.imm22 << 10);
      return kNoTrap;

    // Logical ---------------------------------------------------------------
    case Mnemonic::kAnd: st.set_reg(ins.rd, ra & rb); return kNoTrap;
    case Mnemonic::kOr: st.set_reg(ins.rd, ra | rb); return kNoTrap;
    case Mnemonic::kXor: st.set_reg(ins.rd, ra ^ rb); return kNoTrap;
    case Mnemonic::kAndn: st.set_reg(ins.rd, ra & ~rb); return kNoTrap;
    case Mnemonic::kOrn: st.set_reg(ins.rd, ra | ~rb); return kNoTrap;
    case Mnemonic::kXnor: st.set_reg(ins.rd, ~(ra ^ rb)); return kNoTrap;
    case Mnemonic::kAndcc: case Mnemonic::kOrcc: case Mnemonic::kXorcc:
    case Mnemonic::kAndncc: case Mnemonic::kOrncc: case Mnemonic::kXnorcc: {
      u32 v = 0;
      switch (ins.mn) {
        case Mnemonic::kAndcc: v = ra & rb; break;
        case Mnemonic::kOrcc: v = ra | rb; break;
        case Mnemonic::kXorcc: v = ra ^ rb; break;
        case Mnemonic::kAndncc: v = ra & ~rb; break;
        case Mnemonic::kOrncc: v = ra | ~rb; break;
        default: v = ~(ra ^ rb); break;
      }
      icc_from(v, false, false);
      st.set_reg(ins.rd, v);
      return kNoTrap;
    }

    // Shifts ------------------------------------------------------------------
    case Mnemonic::kSll: st.set_reg(ins.rd, ra << (rb & 31u)); return kNoTrap;
    case Mnemonic::kSrl: st.set_reg(ins.rd, ra >> (rb & 31u)); return kNoTrap;
    case Mnemonic::kSra:
      st.set_reg(ins.rd, static_cast<u32>(static_cast<i32>(ra) >> (rb & 31u)));
      return kNoTrap;

    // Add / subtract ------------------------------------------------------------
    case Mnemonic::kAdd: st.set_reg(ins.rd, ra + rb); return kNoTrap;
    case Mnemonic::kSub: st.set_reg(ins.rd, ra - rb); return kNoTrap;
    case Mnemonic::kAddx:
      st.set_reg(ins.rd, ra + rb + (st.psr.c ? 1u : 0u));
      return kNoTrap;
    case Mnemonic::kSubx:
      st.set_reg(ins.rd,
                 ra - rb -
                     (!cfg_.cpu.quirk_subx_no_carry && st.psr.c ? 1u : 0u));
      return kNoTrap;
    case Mnemonic::kAddcc:
    case Mnemonic::kAddxcc: {
      const u32 cin =
          (ins.mn == Mnemonic::kAddxcc && st.psr.c) ? 1u : 0u;
      const u64 wide = u64{ra} + rb + cin;
      const u32 v = static_cast<u32>(wide);
      const bool ovf = ((~(ra ^ rb) & (ra ^ v)) >> 31) != 0;
      icc_from(v, ovf, (wide >> 32) != 0);
      st.set_reg(ins.rd, v);
      return kNoTrap;
    }
    case Mnemonic::kSubcc:
    case Mnemonic::kSubxcc: {
      const u32 cin =
          (ins.mn == Mnemonic::kSubxcc && st.psr.c) ? 1u : 0u;
      const u32 v = ra - rb - cin;
      const bool ovf = (((ra ^ rb) & (ra ^ v)) >> 31) != 0;
      const bool borrow = u64{ra} < u64{rb} + cin;
      icc_from(v, ovf, borrow);
      st.set_reg(ins.rd, v);
      return kNoTrap;
    }

    // Tagged ---------------------------------------------------------------------
    case Mnemonic::kTaddcc:
    case Mnemonic::kTaddcctv: {
      const u64 wide = u64{ra} + rb;
      const u32 v = static_cast<u32>(wide);
      const bool ovf = ((~(ra ^ rb) & (ra ^ v)) >> 31) != 0 ||
                       ((ra | rb) & 3u) != 0;
      if (ovf && ins.mn == Mnemonic::kTaddcctv) {
        return tt_of(Trap::kTagOverflow);
      }
      icc_from(v, ovf, (wide >> 32) != 0);
      st.set_reg(ins.rd, v);
      return kNoTrap;
    }
    case Mnemonic::kTsubcc:
    case Mnemonic::kTsubcctv: {
      const u32 v = ra - rb;
      const bool ovf = (((ra ^ rb) & (ra ^ v)) >> 31) != 0 ||
                       ((ra | rb) & 3u) != 0;
      if (ovf && ins.mn == Mnemonic::kTsubcctv) {
        return tt_of(Trap::kTagOverflow);
      }
      icc_from(v, ovf, u64{ra} < u64{rb});
      st.set_reg(ins.rd, v);
      return kNoTrap;
    }

    // Multiply / divide -------------------------------------------------------------
    case Mnemonic::kMulscc: {
      const u32 v1 = ((st.psr.n != st.psr.v) ? 0x80000000u : 0u) | (ra >> 1);
      const u32 v2 = (st.y & 1u) ? rb : 0u;
      const u64 wide = u64{v1} + v2;
      const u32 v = static_cast<u32>(wide);
      const bool ovf = ((~(v1 ^ v2) & (v1 ^ v)) >> 31) != 0;
      icc_from(v, ovf, (wide >> 32) != 0);
      st.y = (st.y >> 1) | ((ra & 1u) << 31);
      st.set_reg(ins.rd, v);
      return kNoTrap;
    }
    case Mnemonic::kUmul:
    case Mnemonic::kUmulcc:
    case Mnemonic::kSmul:
    case Mnemonic::kSmulcc: {
      if (!cfg_.cpu.has_mul) return tt_of(Trap::kIllegalInstruction);
      const bool sign =
          ins.mn == Mnemonic::kSmul || ins.mn == Mnemonic::kSmulcc;
      const u64 p = sign ? static_cast<u64>(i64{static_cast<i32>(ra)} *
                                            i64{static_cast<i32>(rb)})
                         : u64{ra} * u64{rb};
      st.y = static_cast<u32>(p >> 32);
      const u32 v = static_cast<u32>(p);
      if (ins.mn == Mnemonic::kUmulcc || ins.mn == Mnemonic::kSmulcc) {
        icc_from(v, false, false);
      }
      st.set_reg(ins.rd, v);
      res.cycles = cfg_.cpu.mul_latency;
      ++stats_.muldiv;
      return kNoTrap;
    }
    case Mnemonic::kUdiv:
    case Mnemonic::kUdivcc: {
      if (!cfg_.cpu.has_div) return tt_of(Trap::kIllegalInstruction);
      if (rb == 0) return tt_of(Trap::kDivisionByZero);
      const u64 dividend = (u64{st.y} << 32) | ra;
      u64 q = dividend / rb;
      const bool ovf = q > 0xffffffffull;
      if (ovf) q = 0xffffffffull;
      const u32 v = static_cast<u32>(q);
      if (ins.mn == Mnemonic::kUdivcc) icc_from(v, ovf, false);
      st.set_reg(ins.rd, v);
      res.cycles = cfg_.cpu.div_latency;
      ++stats_.muldiv;
      return kNoTrap;
    }
    case Mnemonic::kSdiv:
    case Mnemonic::kSdivcc: {
      if (!cfg_.cpu.has_div) return tt_of(Trap::kIllegalInstruction);
      if (rb == 0) return tt_of(Trap::kDivisionByZero);
      const i64 dividend = static_cast<i64>((u64{st.y} << 32) | ra);
      const i64 divisor = static_cast<i32>(rb);
      // INT64_MIN / -1 overflows the host idiv (SIGFPE); the architectural
      // quotient 2^63 overflows the 32-bit result anyway.
      i64 q = (dividend == std::numeric_limits<i64>::min() && divisor == -1)
                  ? std::numeric_limits<i64>::max()
                  : dividend / divisor;
      bool ovf = false;
      if (q > 0x7fffffffll) { q = 0x7fffffffll; ovf = true; }
      if (q < -0x80000000ll) { q = -0x80000000ll; ovf = true; }
      const u32 v = static_cast<u32>(static_cast<u64>(q));
      if (ins.mn == Mnemonic::kSdivcc) icc_from(v, ovf, false);
      st.set_reg(ins.rd, v);
      res.cycles = cfg_.cpu.div_latency;
      ++stats_.muldiv;
      return kNoTrap;
    }

    // State registers ------------------------------------------------------------------
    case Mnemonic::kRdy: st.set_reg(ins.rd, st.y); return kNoTrap;
    case Mnemonic::kRdasr:
      st.set_reg(ins.rd, st.asr[ins.rs1]);
      return kNoTrap;
    case Mnemonic::kRdpsr:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      st.set_reg(ins.rd, st.psr.pack());
      return kNoTrap;
    case Mnemonic::kRdwim:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      st.set_reg(ins.rd, st.wim & window_mask());
      return kNoTrap;
    case Mnemonic::kRdtbr:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      st.set_reg(ins.rd, st.tbr);
      return kNoTrap;
    case Mnemonic::kWry: st.y = ra ^ rb; return kNoTrap;
    case Mnemonic::kWrasr: st.asr[ins.rd] = ra ^ rb; return kNoTrap;
    case Mnemonic::kWrpsr: {
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      const u32 v = ra ^ rb;
      if ((v & 0x1fu) >= st.nwindows) return tt_of(Trap::kIllegalInstruction);
      st.psr.unpack(v);
      return kNoTrap;
    }
    case Mnemonic::kWrwim:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      st.wim = (ra ^ rb) & window_mask();
      return kNoTrap;
    case Mnemonic::kWrtbr:
      if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
      st.tbr = (st.tbr & 0x00000ff0u) | ((ra ^ rb) & 0xfffff000u);
      return kNoTrap;

    // Windows ----------------------------------------------------------------------------
    case Mnemonic::kSave:
    case Mnemonic::kRestore: {
      const unsigned ncwp =
          ins.mn == Mnemonic::kSave
              ? (st.psr.cwp + st.nwindows - 1) % st.nwindows
              : (st.psr.cwp + 1) % st.nwindows;
      if ((st.wim >> ncwp) & 1u) {
        return ins.mn == Mnemonic::kSave ? tt_of(Trap::kWindowOverflow)
                                         : tt_of(Trap::kWindowUnderflow);
      }
      const u32 v = ra + rb;
      st.psr.cwp = static_cast<u8>(ncwp);
      st.set_reg(ins.rd, v);
      return kNoTrap;
    }

    case Mnemonic::kFpop1: case Mnemonic::kFpop2:
      return tt_of(Trap::kFpDisabled);
    case Mnemonic::kCpop1: case Mnemonic::kCpop2:
      return tt_of(Trap::kCpDisabled);

    // Memory -----------------------------------------------------------------------------
    default:
      break;
  }

  // Loads, stores, atomics.
  const bool alt = isa::is_alternate_space(ins.mn);
  if (alt && !st.psr.s) return tt_of(Trap::kPrivilegedInstruction);

  if (alt) {
    u8 tt = kNoTrap;
    if (asi_access(ins, res, tt)) return tt;
  }

  // FP/CP memory ops trap *-disabled before any address or rd legality
  // check (SPARC V8 trap priority: fp/cp_disabled outranks
  // mem_address_not_aligned), matching the IntegerUnit reference.
  switch (ins.mn) {
    case Mnemonic::kLdf: case Mnemonic::kLdfsr: case Mnemonic::kLddf:
    case Mnemonic::kStf: case Mnemonic::kStfsr: case Mnemonic::kStdfq:
    case Mnemonic::kStdf:
      return tt_of(Trap::kFpDisabled);
    case Mnemonic::kLdc: case Mnemonic::kLdcsr: case Mnemonic::kLddc:
    case Mnemonic::kStc: case Mnemonic::kStcsr: case Mnemonic::kStdcq:
    case Mnemonic::kStdc:
      return tt_of(Trap::kCpDisabled);
    default: break;
  }

  const bool ld = isa::is_load(ins.mn);
  const bool stq = isa::is_store(ins.mn);
  const unsigned size = isa::access_size(ins.mn);
  const bool dbl = size == 8;
  const Addr ea = ra + (ins.imm ? static_cast<u32>(ins.simm13)
                                : st.reg(ins.rs2));

  if (dbl && (ins.rd & 1u)) return tt_of(Trap::kIllegalInstruction);
  const unsigned align = size;
  if ((ea & (align - 1)) != 0 && size > 1) {
    return tt_of(Trap::kMemAddressNotAligned);
  }

  if (ld && stq) {
    // Atomics: ldstub / swap.
    const unsigned asz = (ins.mn == Mnemonic::kLdstub ||
                          ins.mn == Mnemonic::kLdstuba)
                             ? 1
                             : 4;
    MemResult rr = data_read(ea, asz);
    if (!rr.ok) return tt_of(Trap::kDataAccess);
    const u64 newv =
        (asz == 1) ? 0xffull : u64{st.reg(ins.rd)};
    MemResult wr = data_write(ea, asz, newv);
    if (!wr.ok) return tt_of(Trap::kDataAccess);
    st.set_reg(ins.rd, static_cast<u32>(rr.value));
    res.cycles =
        1 + cfg_.cpu.load_extra + cfg_.cpu.store_extra + rr.cycles + wr.cycles;
    res.mem_access = true;
    res.mem_write = true;
    res.mem_addr = ea;
    res.mem_size = static_cast<u8>(asz);
    ++stats_.loads;  // atomics count as both (isa::is_load / is_store)
    ++stats_.stores;
    return kNoTrap;
  }

  if (ld) {
    MemResult rr = data_read(ea, size);
    if (!rr.ok) return tt_of(Trap::kDataAccess);
    if (dbl) {
      st.set_reg(ins.rd, static_cast<u32>(rr.value >> 32));
      st.set_reg(static_cast<u8>(ins.rd | 1u), static_cast<u32>(rr.value));
      res.cycles = 1 + cfg_.cpu.load_double_extra + rr.cycles;
    } else {
      u32 v = static_cast<u32>(rr.value);
      const bool sign = ins.mn == Mnemonic::kLdsb ||
                        ins.mn == Mnemonic::kLdsh ||
                        ins.mn == Mnemonic::kLdsba ||
                        ins.mn == Mnemonic::kLdsha;
      if (sign && size < 4) v = static_cast<u32>(sign_extend(v, size * 8));
      st.set_reg(ins.rd, v);
      res.cycles = 1 + cfg_.cpu.load_extra + rr.cycles;
    }
    res.mem_access = true;
    res.mem_addr = ea;
    res.mem_size = static_cast<u8>(size);
    ++stats_.loads;
    return kNoTrap;
  }

  if (stq) {
    u64 v;
    if (dbl) {
      v = (u64{st.reg(ins.rd)} << 32) | st.reg(static_cast<u8>(ins.rd | 1u));
    } else {
      v = st.reg(ins.rd);
    }
    MemResult wr = data_write(ea, size, v);
    if (!wr.ok) return tt_of(Trap::kDataAccess);
    res.cycles = 1 +
                 (dbl ? cfg_.cpu.store_double_extra : cfg_.cpu.store_extra) +
                 wr.cycles;
    res.mem_access = true;
    res.mem_write = true;
    res.mem_addr = ea;
    res.mem_size = static_cast<u8>(size);
    ++stats_.stores;
    return kNoTrap;
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

  if (st_.psr.et && irq_level_ != 0 &&
      (irq_level_ == 15 || irq_level_ > st_.psr.pil)) {
    const u8 tt = static_cast<u8>(0x10 + (irq_level_ & 0xf));
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
