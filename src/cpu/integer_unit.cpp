#include "cpu/integer_unit.hpp"

#include <cassert>

#include "cpu/block_engine.hpp"
#include "cpu/sparc_semantics.hpp"

namespace la::cpu {

using isa::Instruction;
using isa::Mnemonic;
using isa::Trap;

using v8::kNoTrap;
using v8::tt_of;

IntegerUnit::IntegerUnit(const CpuConfig& cfg, MemoryPort& mem)
    : cfg_(cfg), mem_(mem), st_(cfg) {
  assert(cfg.valid());
}

IntegerUnit::~IntegerUnit() = default;

void IntegerUnit::reset(Addr entry) {
  st_ = CpuState(cfg_);
  st_.pc = entry;
  st_.npc = entry + 4;
  st_.psr.s = true;
  st_.psr.et = false;  // traps disabled until boot code enables them
  annul_next_ = false;
  irq_level_ = 0;
  instret_ = 0;
  cycles_ = 0;
  trap_count_ = 0;
  last_tt_ = 0;
}

void IntegerUnit::take_trap(u8 tt) {
  ++trap_count_;
  last_tt_ = tt;
  // With traps disabled the processor enters error mode and halts (a real
  // LEON asserts its error output; the FPX circuitry reports it).
  if (v8::enter_trap(st_, tt)) annul_next_ = false;
}

u8 IntegerUnit::execute(const Instruction& ins, StepResult& res) {
  auto& st = st_;

  const u32 a = st.reg(ins.rs1);
  const u32 b = v8::op2(st, ins);
  const Addr ea = a + b;  // memory address; jmpl/rett target
  const bool subx_quirk = cfg_.quirk_subx_no_carry;

  // Memory operations: the shared legality checks, then the access.
  const auto mem_trap = [&](unsigned size) {
    return v8::mem_trap(st.psr, isa::is_alternate_space(ins.mn), size,
                        ins.rd, ea);
  };
  const auto accessed = [&](unsigned size, bool write, Cycles extra) -> u8 {
    res.mem_access = true;
    res.mem_write = write;
    res.mem_addr = ea;
    res.mem_size = static_cast<u8>(size);
    res.cycles = 1 + extra;
    return kNoTrap;
  };
  const auto do_load = [&](unsigned size, bool sign) -> u8 {
    if (const u8 tt = mem_trap(size); tt != kNoTrap) return tt;
    u64 v = 0;
    if (!mem_.read(ea, size, v)) return tt_of(Trap::kDataAccess);
    v8::load_result(st, ins.rd, size, sign, v);
    return accessed(size, false,
                    size == 8 ? cfg_.load_double_extra : cfg_.load_extra);
  };
  const auto do_store = [&](unsigned size) -> u8 {
    if (const u8 tt = mem_trap(size); tt != kNoTrap) return tt;
    if (!mem_.write(ea, size, v8::store_value(st, ins.rd, size))) {
      return tt_of(Trap::kDataAccess);
    }
    return accessed(size, true,
                    size == 8 ? cfg_.store_double_extra : cfg_.store_extra);
  };
  const auto do_atomic = [&](unsigned size) -> u8 {
    if (const u8 tt = mem_trap(size); tt != kNoTrap) return tt;
    u64 old = 0;
    if (!mem_.read(ea, size, old) ||
        !mem_.write(ea, size, v8::atomic_value(st, ins.rd, size))) {
      return tt_of(Trap::kDataAccess);
    }
    st.set_reg(ins.rd, static_cast<u32>(old));
    return accessed(size, true, cfg_.load_extra + cfg_.store_extra);
  };

  switch (ins.mn) {
    case Mnemonic::kInvalid:
    case Mnemonic::kUnimp:
      return tt_of(Trap::kIllegalInstruction);

    // -- Control transfer -------------------------------------------------
    case Mnemonic::kCall:
      cti_taken_ = true;
      cti_target_ = v8::call(st, ins.disp);
      res.cycles = 1 + cfg_.cti_extra;
      return kNoTrap;

    case Mnemonic::kBicc: {
      const v8::Branch br = v8::bicc(st.psr, ins.cond, ins.annul);
      if (br.annul) annul_next_ = true;
      if (br.taken) {
        cti_taken_ = true;
        cti_target_ = v8::branch_target(st.pc, ins.disp);
        res.cycles = 1 + cfg_.cti_extra;
      }
      return kNoTrap;
    }

    case Mnemonic::kJmpl: {
      if (const u8 tt = v8::jmpl(st, ins.rd, ea); tt != kNoTrap) return tt;
      cti_taken_ = true;
      cti_target_ = ea;
      res.cycles = 1 + cfg_.cti_extra;
      return kNoTrap;
    }

    case Mnemonic::kRett: {
      if (const u8 tt = v8::rett(st, ea); tt != kNoTrap) return tt;
      cti_taken_ = true;
      cti_target_ = ea;
      res.cycles = 1 + cfg_.cti_extra;
      return kNoTrap;
    }

    case Mnemonic::kTicc:
      return v8::ticc(st.psr, ins.cond, a, b);

    case Mnemonic::kFlush:
      // Functionally a no-op (the timed model invalidates the I-cache line).
      return kNoTrap;

    // -- ALU ----------------------------------------------------------------
    case Mnemonic::kSethi:
      st.set_reg(ins.rd, v8::sethi(ins.imm22));
      return kNoTrap;

#define LA_IU_ALU(m)                                                   \
  case Mnemonic::m:                                                    \
    st.set_reg(ins.rd, v8::alu<Mnemonic::m>(st.psr, a, b, subx_quirk)); \
    return kNoTrap;
      LA_V8_ALU_OPS(LA_IU_ALU)
#undef LA_IU_ALU

    case Mnemonic::kTaddcc:
    case Mnemonic::kTaddcctv:
    case Mnemonic::kTsubcc:
    case Mnemonic::kTsubcctv:
      return v8::tagged(st, ins.mn, ins.rd, a, b);

    // -- Multiply / divide -------------------------------------------------
    case Mnemonic::kMulscc:
      v8::mulscc(st, ins.rd, a, b);
      return kNoTrap;
    case Mnemonic::kUmul:
    case Mnemonic::kUmulcc:
    case Mnemonic::kSmul:
    case Mnemonic::kSmulcc: {
      const u8 tt = v8::multiply(st, ins.mn, ins.rd, a, b, cfg_.has_mul);
      if (tt == kNoTrap) res.cycles = cfg_.mul_latency;
      return tt;
    }
    case Mnemonic::kUdiv:
    case Mnemonic::kUdivcc:
    case Mnemonic::kSdiv:
    case Mnemonic::kSdivcc: {
      const u8 tt = v8::divide(st, ins.mn, ins.rd, a, b, cfg_.has_div);
      if (tt == kNoTrap) res.cycles = cfg_.div_latency;
      return tt;
    }

    // -- State registers ---------------------------------------------------
    case Mnemonic::kRdy: return v8::rdy(st, ins.rd);
    case Mnemonic::kRdasr: return v8::rdasr(st, ins.rd, ins.rs1);
    case Mnemonic::kRdpsr: return v8::rdpsr(st, ins.rd);
    case Mnemonic::kRdwim: return v8::rdwim(st, ins.rd);
    case Mnemonic::kRdtbr: return v8::rdtbr(st, ins.rd);
    case Mnemonic::kWry: return v8::wry(st, a ^ b);
    case Mnemonic::kWrasr: return v8::wrasr(st, ins.rd, a ^ b);
    case Mnemonic::kWrpsr: return v8::wrpsr(st, a ^ b);
    case Mnemonic::kWrwim: return v8::wrwim(st, a ^ b);
    case Mnemonic::kWrtbr: return v8::wrtbr(st, a ^ b);

    // -- Register windows --------------------------------------------------
    case Mnemonic::kSave: return v8::save(st, ins.rd, a, b);
    case Mnemonic::kRestore: return v8::restore(st, ins.rd, a, b);

    // -- Loads -------------------------------------------------------------
    case Mnemonic::kLd: case Mnemonic::kLda: return do_load(4, false);
    case Mnemonic::kLdub: case Mnemonic::kLduba: return do_load(1, false);
    case Mnemonic::kLduh: case Mnemonic::kLduha: return do_load(2, false);
    case Mnemonic::kLdsb: case Mnemonic::kLdsba: return do_load(1, true);
    case Mnemonic::kLdsh: case Mnemonic::kLdsha: return do_load(2, true);
    case Mnemonic::kLdd: case Mnemonic::kLdda: return do_load(8, false);

    // -- Stores ------------------------------------------------------------
    case Mnemonic::kSt: case Mnemonic::kSta: return do_store(4);
    case Mnemonic::kStb: case Mnemonic::kStba: return do_store(1);
    case Mnemonic::kSth: case Mnemonic::kStha: return do_store(2);
    case Mnemonic::kStd: case Mnemonic::kStda: return do_store(8);

    // -- Atomics -----------------------------------------------------------
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

StepResult IntegerUnit::step() {
  StepResult res;
  step_into(res);
  return res;
}

void IntegerUnit::step_into(StepResult& res) {
  res.pc = st_.pc;
  res.raw = 0;
  res.annulled = false;
  res.trapped = false;
  res.tt = 0;
  res.cycles = 1;
  res.mem_access = false;
  res.mem_write = false;
  res.mem_addr = 0;
  res.mem_size = 0;
  if (st_.error_mode) return;

  // External interrupt check (between instructions, before fetch).
  if (irq_pending()) {
    const u8 tt = v8::interrupt_tt(irq_level_);
    take_trap(tt);
    res.trapped = true;
    res.tt = tt;
    res.cycles = cfg_.trap_latency;
    cycles_ += res.cycles;
    if (obs_) obs_->on_step(res);
    return;
  }

  u32 word = 0;
  if (!mem_.fetch(st_.pc, word)) {
    take_trap(tt_of(Trap::kInstructionAccess));
    res.trapped = true;
    res.tt = tt_of(Trap::kInstructionAccess);
    res.cycles = cfg_.trap_latency;
    cycles_ += res.cycles;
    if (obs_) obs_->on_step(res);
    return;
  }
  res.raw = word;
  res.ins = cfg_.host_fast_paths ? predecode_.lookup(word)
                                 : isa::decode(word);

  if (annul_next_) {
    annul_next_ = false;
    res.annulled = true;
    st_.pc = st_.npc;
    st_.npc += 4;
    res.cycles = 1;
    cycles_ += 1;
    if (obs_) obs_->on_step(res);
    return;
  }

  cti_taken_ = false;
  const u8 tt = execute(res.ins, res);
  if (tt != kNoTrap) {
    take_trap(tt);
    res.trapped = true;
    res.tt = tt;
    res.cycles = cfg_.trap_latency;
  } else {
    const Addr new_pc = st_.npc;
    const Addr new_npc = cti_taken_ ? cti_target_ : st_.npc + 4;
    st_.pc = new_pc;
    st_.npc = new_npc;
    ++instret_;
  }
  cycles_ += res.cycles;
  if (obs_) obs_->on_step(res);
}

u64 IntegerUnit::run(u64 max_steps, Addr halt_pc) {
  if (obs_ == nullptr && cfg_.host_fast_paths) {
    // Basic-block translation tier: decode each block once, execute via
    // threaded dispatch.  Bit-identical to the per-step loop below (the
    // engine re-checks the same between-instruction conditions and routes
    // every irregular case back through step_into); engages only
    // observerless, so tracing and single-stepping always see the
    // per-step path.
    if (!block_) block_ = std::make_unique<BlockEngine>();
    return block_->run(*this, max_steps, halt_pc);
  }
  u64 n = 0;
  while (n < max_steps && !st_.error_mode && st_.pc != halt_pc) {
    step();
    ++n;
  }
  return n;
}

}  // namespace la::cpu
