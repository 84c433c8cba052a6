// SPARC V8 instruction semantics, shared by every CPU model.
//
// The functional IntegerUnit, its block engine and the timed LeonPipeline
// all execute instructions through these functions.  Each model keeps its
// own dispatch (one `case` per mnemonic calls in here), cycle costs,
// statistics, memory path and control-transfer bookkeeping; what the
// architecture defines lives here once: results and condition codes, the
// state-register rules, window rotation, trap entry, and which trap an
// instruction raises.
//
// Everything is constexpr over plain values, Psr and CpuState, so the
// boundary cases are pinned at compile time (tests/cpu/semantics_static_
// test.cpp); constant evaluation rejects undefined behaviour, so those
// asserts also show the arithmetic here is UB-free.
//
// Functions that can trap return the tt to raise (kNoTrap for none) and
// leave the state untouched when they do.
#pragma once

#include <limits>

#include "common/bits.hpp"
#include "common/types.hpp"
#include "cpu/state.hpp"
#include "isa/isa.hpp"
#include "isa/traps.hpp"

namespace la::cpu::v8 {

using isa::Mnemonic;
using isa::Trap;

constexpr u8 tt_of(Trap t) { return static_cast<u8>(t); }
/// "No trap pending" as a tt byte.
inline constexpr u8 kNoTrap = tt_of(Trap::kNone);

// -- Operands and condition codes -------------------------------------------

/// Operand 2: the sign-extended simm13 when the i bit is set, else rs2.
constexpr u32 op2(const CpuState& st, const isa::Instruction& ins) {
  return ins.imm ? static_cast<u32>(ins.simm13) : st.reg(ins.rs2);
}

/// Sets icc from a result and its overflow/carry; returns the result.
constexpr u32 set_icc(Psr& p, u32 r, bool v, bool c) {
  p.n = (r >> 31) != 0;
  p.z = r == 0;
  p.v = v;
  p.c = c;
  return r;
}

constexpr bool add_overflow(u32 a, u32 b, u32 r) {
  return (((a & b & ~r) | (~a & ~b & r)) >> 31) != 0;
}

constexpr bool sub_overflow(u32 a, u32 b, u32 r) {
  return (((a & ~b & ~r) | (~a & b & r)) >> 31) != 0;
}

/// a + b + cin with the add's icc.
constexpr u32 add_cc(Psr& p, u32 a, u32 b, bool cin) {
  const u64 wide = u64{a} + b + (cin ? 1u : 0u);
  const u32 r = static_cast<u32>(wide);
  return set_icc(p, r, add_overflow(a, b, r), (wide >> 32) != 0);
}

/// a - b - cin with the subtract's icc (C is the borrow).
constexpr u32 sub_cc(Psr& p, u32 a, u32 b, bool cin) {
  const u32 r = a - b - (cin ? 1u : 0u);
  const bool borrow = u64{a} < u64{b} + (cin ? 1u : 0u);
  return set_icc(p, r, sub_overflow(a, b, r), borrow);
}

// -- Register-to-register ALU -----------------------------------------------

/// sethi's result; the block engine predigests it as operand 2.
constexpr u32 sethi(u32 imm22) { return imm22 << 10; }

template <Mnemonic>
inline constexpr bool kNotAnAluOp = false;

/// Result of one logic, shift or add/sub operation on operands a (rs1) and
/// b (operand 2), updating icc for the cc forms.  Shift counts are the low
/// five bits of b.  `subx_no_carry` is CpuConfig::quirk_subx_no_carry, the
/// deliberate fault that makes subx ignore the carry-in.  For kSethi, b is
/// already sethi(imm22) (block engine only).  The mnemonic is a template
/// argument so every call site compiles to just its own operation.
template <Mnemonic M>
constexpr u32 alu(Psr& p, u32 a, u32 b, [[maybe_unused]] bool subx_no_carry) {
  using enum Mnemonic;
  if constexpr (M == kAnd) return a & b;
  else if constexpr (M == kAndcc) return set_icc(p, a & b, false, false);
  else if constexpr (M == kAndn) return a & ~b;
  else if constexpr (M == kAndncc) return set_icc(p, a & ~b, false, false);
  else if constexpr (M == kOr) return a | b;
  else if constexpr (M == kOrcc) return set_icc(p, a | b, false, false);
  else if constexpr (M == kOrn) return a | ~b;
  else if constexpr (M == kOrncc) return set_icc(p, a | ~b, false, false);
  else if constexpr (M == kXor) return a ^ b;
  else if constexpr (M == kXorcc) return set_icc(p, a ^ b, false, false);
  else if constexpr (M == kXnor) return ~(a ^ b);
  else if constexpr (M == kXnorcc) return set_icc(p, ~(a ^ b), false, false);
  else if constexpr (M == kSll) return a << (b & 31u);
  else if constexpr (M == kSrl) return a >> (b & 31u);
  else if constexpr (M == kSra) {
    return static_cast<u32>(static_cast<i32>(a) >> (b & 31u));
  } else if constexpr (M == kAdd) return a + b;
  else if constexpr (M == kAddcc) return add_cc(p, a, b, false);
  else if constexpr (M == kAddx) return a + b + (p.c ? 1u : 0u);
  else if constexpr (M == kAddxcc) return add_cc(p, a, b, p.c);
  else if constexpr (M == kSub) return a - b;
  else if constexpr (M == kSubcc) return sub_cc(p, a, b, false);
  else if constexpr (M == kSubx) {
    return a - b - (!subx_no_carry && p.c ? 1u : 0u);
  } else if constexpr (M == kSubxcc) return sub_cc(p, a, b, p.c);
  else if constexpr (M == kSethi) return b;
  else static_assert(kNotAnAluOp<M>, "not a register-to-register ALU op");
}

/// The mnemonics alu<> implements apart from kSethi, for the models'
/// case labels: LA_V8_ALU_OPS(X) expands X(kAnd) X(kAndcc) ...
#define LA_V8_ALU_OPS(X)                                                   \
  X(kAnd) X(kAndcc) X(kAndn) X(kAndncc) X(kOr) X(kOrcc) X(kOrn) X(kOrncc)  \
  X(kXor) X(kXorcc) X(kXnor) X(kXnorcc) X(kSll) X(kSrl) X(kSra)            \
  X(kAdd) X(kAddcc) X(kAddx) X(kAddxcc) X(kSub) X(kSubcc) X(kSubx)         \
  X(kSubxcc)

// -- Tagged arithmetic ------------------------------------------------------

/// taddcc/taddcctv/tsubcc/tsubcctv.  V also flags a nonzero tag (low two
/// bits of either operand); the tv forms raise tag_overflow instead of
/// writing anything when V would be set.
constexpr u8 tagged(CpuState& st, Mnemonic mn, u8 rd, u32 a, u32 b) {
  const bool sub = mn == Mnemonic::kTsubcc || mn == Mnemonic::kTsubcctv;
  const u32 r = sub ? a - b : a + b;
  const bool v =
      (sub ? sub_overflow(a, b, r) : add_overflow(a, b, r)) ||
      ((a | b) & 3u) != 0;
  if (v && (mn == Mnemonic::kTaddcctv || mn == Mnemonic::kTsubcctv)) {
    return tt_of(Trap::kTagOverflow);
  }
  const bool c = sub ? a < b : ((u64{a} + b) >> 32) != 0;
  st.set_reg(rd, set_icc(st.psr, r, v, c));
  return kNoTrap;
}

// -- Multiply / divide ------------------------------------------------------

/// One step of the iterative multiply (V8 manual B.18).
constexpr void mulscc(CpuState& st, u8 rd, u32 a, u32 b) {
  const u32 v1 = ((st.psr.n != st.psr.v) ? 0x80000000u : 0u) | (a >> 1);
  const u32 v2 = (st.y & 1u) ? b : 0u;
  const u32 r = add_cc(st.psr, v1, v2, false);
  st.y = (st.y >> 1) | ((a & 1u) << 31);
  st.set_reg(rd, r);
}

/// umul/umulcc/smul/smulcc: the 64-bit product's high word goes to Y; the
/// cc forms set N/Z from the low word and clear V/C.  Without a hardware
/// multiplier they raise illegal_instruction.
constexpr u8 multiply(CpuState& st, Mnemonic mn, u8 rd, u32 a, u32 b,
                      bool has_mul) {
  if (!has_mul) return tt_of(Trap::kIllegalInstruction);
  const bool sign = mn == Mnemonic::kSmul || mn == Mnemonic::kSmulcc;
  const u64 p = sign ? static_cast<u64>(i64{static_cast<i32>(a)} *
                                        i64{static_cast<i32>(b)})
                     : u64{a} * b;
  st.y = static_cast<u32>(p >> 32);
  const u32 r = static_cast<u32>(p);
  if (mn == Mnemonic::kUmulcc || mn == Mnemonic::kSmulcc) {
    set_icc(st.psr, r, false, false);
  }
  st.set_reg(rd, r);
  return kNoTrap;
}

/// A 32-bit quotient and whether it was clamped (the cc forms' V).
struct Quotient {
  u32 q = 0;
  bool overflow = false;
};

/// (Y:a) / b unsigned, clamped to 0xffffffff.  b must be nonzero.
constexpr Quotient udiv(u32 y, u32 a, u32 b) {
  const u64 q = ((u64{y} << 32) | a) / b;
  if (q > 0xffffffffull) return {0xffffffffu, true};
  return {static_cast<u32>(q), false};
}

/// (Y:a) / b signed, clamped to [-2^31, 2^31 - 1].  b must be nonzero.
constexpr Quotient sdiv(u32 y, u32 a, u32 b) {
  const i64 dividend = static_cast<i64>((u64{y} << 32) | a);
  const i64 divisor = static_cast<i32>(b);
  // INT64_MIN / -1 overflows the host division (SIGFPE); its architectural
  // quotient 2^63 clamps like any other overflow.
  const i64 q = (dividend == std::numeric_limits<i64>::min() && divisor == -1)
                    ? std::numeric_limits<i64>::max()
                    : dividend / divisor;
  if (q > 0x7fffffffll) return {0x7fffffffu, true};
  if (q < -0x80000000ll) return {0x80000000u, true};
  return {static_cast<u32>(static_cast<u64>(q)), false};
}

/// udiv/udivcc/sdiv/sdivcc.  Without a hardware divider they raise
/// illegal_instruction; b == 0 raises division_by_zero.  The cc forms set
/// N/Z, V on a clamped quotient, and clear C.
constexpr u8 divide(CpuState& st, Mnemonic mn, u8 rd, u32 a, u32 b,
                    bool has_div) {
  if (!has_div) return tt_of(Trap::kIllegalInstruction);
  if (b == 0) return tt_of(Trap::kDivisionByZero);
  const bool sign = mn == Mnemonic::kSdiv || mn == Mnemonic::kSdivcc;
  const Quotient q = sign ? sdiv(st.y, a, b) : udiv(st.y, a, b);
  if (mn == Mnemonic::kUdivcc || mn == Mnemonic::kSdivcc) {
    set_icc(st.psr, q.q, q.overflow, false);
  }
  st.set_reg(rd, q.q);
  return kNoTrap;
}

// -- State registers --------------------------------------------------------

/// WIM bits that name an existing window.
constexpr u32 window_mask(unsigned nwindows) {
  return nwindows == 32 ? ~0u : ((1u << nwindows) - 1u);
}

// The wr* instructions write rs1 XOR operand 2, passed in as `v`; rdasr
// with rs1 = 15 and rd = 0 is stbar, a store barrier (a no-op here).  The
// PSR, WIM and TBR forms are privileged.
constexpr u8 rdy(CpuState& st, u8 rd) { st.set_reg(rd, st.y); return kNoTrap; }
constexpr u8 wry(CpuState& st, u32 v) { st.y = v; return kNoTrap; }
constexpr u8 rdasr(CpuState& st, u8 rd, u8 rs1) {
  st.set_reg(rd, st.asr[rs1]);
  return kNoTrap;
}
constexpr u8 wrasr(CpuState& st, u8 rd, u32 v) {
  st.asr[rd] = v;
  return kNoTrap;
}

constexpr u8 rdpsr(CpuState& st, u8 rd) {
  if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
  st.set_reg(rd, st.psr.pack());
  return kNoTrap;
}

/// Bits for windows that do not exist read as zero.
constexpr u8 rdwim(CpuState& st, u8 rd) {
  if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
  st.set_reg(rd, st.wim & window_mask(st.nwindows));
  return kNoTrap;
}

constexpr u8 rdtbr(CpuState& st, u8 rd) {
  if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
  st.set_reg(rd, st.tbr);
  return kNoTrap;
}

/// A CWP naming a window that does not exist is illegal_instruction.
constexpr u8 wrpsr(CpuState& st, u32 v) {
  if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
  if (bits(v, 4, 0) >= st.nwindows) return tt_of(Trap::kIllegalInstruction);
  st.psr.unpack(v);
  return kNoTrap;
}

constexpr u8 wrwim(CpuState& st, u32 v) {
  if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
  st.wim = v & window_mask(st.nwindows);
  return kNoTrap;
}

/// Only the trap base address field (31:12) is writable.
constexpr u8 wrtbr(CpuState& st, u32 v) {
  if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
  st.tbr = (st.tbr & 0x00000ff0u) | (v & 0xfffff000u);
  return kNoTrap;
}

// -- Register windows and traps ---------------------------------------------

/// CWP after a save or a trap (unchecked), and after a restore or rett.
constexpr u8 cwp_down(const CpuState& st) {
  return static_cast<u8>((st.psr.cwp + st.nwindows - 1) % st.nwindows);
}
constexpr u8 cwp_up(const CpuState& st) {
  return static_cast<u8>((st.psr.cwp + 1) % st.nwindows);
}

constexpr bool window_invalid(const CpuState& st, unsigned cwp) {
  return ((st.wim >> cwp) & 1u) != 0;
}

/// save / restore: rs1 + operand 2 is computed in the old window and
/// written to rd in the new one.
constexpr u8 save(CpuState& st, u8 rd, u32 a, u32 b) {
  const u8 cwp = cwp_down(st);
  if (window_invalid(st, cwp)) return tt_of(Trap::kWindowOverflow);
  st.psr.cwp = cwp;
  st.set_reg(rd, a + b);
  return kNoTrap;
}

constexpr u8 restore(CpuState& st, u8 rd, u32 a, u32 b) {
  const u8 cwp = cwp_up(st);
  if (window_invalid(st, cwp)) return tt_of(Trap::kWindowUnderflow);
  st.psr.cwp = cwp;
  st.set_reg(rd, a + b);
  return kNoTrap;
}

/// rett to `target`: with traps enabled it is illegal (supervisor) or
/// privileged (user); then the window check and the target's alignment.
/// On success rotates the window up and restores S from PS with ET = 1;
/// the caller performs the delayed transfer.
constexpr u8 rett(CpuState& st, Addr target) {
  if (st.psr.et) {
    return st.psr.s ? tt_of(Trap::kIllegalInstruction)
                    : tt_of(Trap::kPrivilegedInstruction);
  }
  if (!st.psr.s) return tt_of(Trap::kPrivilegedInstruction);
  const u8 cwp = cwp_up(st);
  if (window_invalid(st, cwp)) return tt_of(Trap::kWindowUnderflow);
  if ((target & 3u) != 0) return tt_of(Trap::kMemAddressNotAligned);
  st.psr.cwp = cwp;
  st.psr.s = st.psr.ps;
  st.psr.et = true;
  return kNoTrap;
}

/// Trap entry (V8 §7): decrement CWP without a window check, save pc/npc
/// into the new window's l1/l2, set S, save S to PS, clear ET, latch tt
/// into TBR and vector through it.  A trap while ET = 0 (other than reset)
/// instead enters error mode with only tt latched.  Returns false in that
/// case.
constexpr bool enter_trap(CpuState& st, u8 tt) {
  if (!st.psr.et && tt != tt_of(Trap::kReset)) {
    st.set_tbr_tt(tt);
    st.error_mode = true;
    return false;
  }
  st.psr.et = false;
  st.psr.ps = st.psr.s;
  st.psr.s = true;
  st.psr.cwp = cwp_down(st);
  st.set_reg(17, st.pc);
  st.set_reg(18, st.npc);
  st.set_tbr_tt(tt);
  st.pc = (st.tbr & 0xfffff000u) + (u32{tt} << 4);
  st.npc = st.pc + 4;
  return true;
}

/// An external interrupt at `level` is taken between instructions when
/// traps are enabled and it is level 15 or above PIL.
constexpr bool interrupt_pending(const Psr& p, u8 level) {
  return p.et && level != 0 && (level == 15 || level > p.pil);
}

constexpr u8 interrupt_tt(u8 level) {
  return static_cast<u8>(tt_of(Trap::kInterruptBase) + (level & 0xfu));
}

// -- Control transfer -------------------------------------------------------

constexpr Addr branch_target(Addr pc, i32 disp) {
  return pc + (static_cast<u32>(disp) << 2);
}

/// call: writes its own address to %o7; returns the target.
constexpr Addr call(CpuState& st, i32 disp) {
  st.set_reg(15, st.pc);
  return branch_target(st.pc, disp);
}

/// Outcome of a Bicc: whether it transfers, and whether it annuls its
/// delay slot (ba,a always does; any other condition only when untaken).
struct Branch {
  bool taken = false;
  bool annul = false;
};

constexpr Branch bicc(const Psr& p, isa::Cond cond, bool annul_bit) {
  if (cond == isa::Cond::kA) return {true, annul_bit};
  const bool taken = isa::eval_cond(cond, p.n, p.z, p.v, p.c);
  return {taken, annul_bit && !taken};
}

/// jmpl to `target`, writing its own address to rd.
constexpr u8 jmpl(CpuState& st, u8 rd, Addr target) {
  if ((target & 3u) != 0) return tt_of(Trap::kMemAddressNotAligned);
  st.set_reg(rd, st.pc);
  return kNoTrap;
}

/// Ticc: when the condition holds, trap 0x80 + (rs1 + operand 2) mod 128.
constexpr u8 ticc(const Psr& p, isa::Cond cond, u32 a, u32 b) {
  if (!isa::eval_cond(cond, p.n, p.z, p.v, p.c)) return kNoTrap;
  return static_cast<u8>(tt_of(Trap::kTrapInstructionBase) + ((a + b) & 0x7fu));
}

// -- Memory operations ------------------------------------------------------

/// Trap an integer load, store or atomic of `size` bytes at `ea` raises
/// before touching memory, in V8 priority order (Table 7-1):
/// privileged_instruction for an alternate-space form in user mode (6),
/// then illegal_instruction for a doubleword with an odd rd (7), then
/// mem_address_not_aligned (10).  FP and coprocessor loads and stores sit
/// between the first two (fp/cp_disabled, 8), but V8 gives them no
/// alternate-space form and no FPU or coprocessor is configured, so that
/// trap is all they raise: the models return it from their case labels.
constexpr u8 mem_trap(const Psr& psr, bool alt, unsigned size, u8 rd,
                      Addr ea) {
  if (alt && !psr.s) return tt_of(Trap::kPrivilegedInstruction);
  if (size == 8 && (rd & 1u) != 0) return tt_of(Trap::kIllegalInstruction);
  if ((ea & (size - 1u)) != 0) return tt_of(Trap::kMemAddressNotAligned);
  return kNoTrap;
}

/// Writes loaded data `v` to rd: a doubleword fills the even/odd pair
/// (high word first); a signed byte or half is sign-extended.
constexpr void load_result(CpuState& st, u8 rd, unsigned size, bool sign,
                           u64 v) {
  if (size == 8) {
    st.set_reg(rd, static_cast<u32>(v >> 32));
    st.set_reg(static_cast<u8>(rd | 1u), static_cast<u32>(v));
    return;
  }
  const u32 w = static_cast<u32>(v);
  st.set_reg(rd, sign ? static_cast<u32>(sign_extend(w, size * 8)) : w);
}

/// Data a store of `size` bytes writes: rd, or the rd/rd+1 pair.
constexpr u64 store_value(const CpuState& st, u8 rd, unsigned size) {
  if (size == 8) {
    return (u64{st.reg(rd)} << 32) | st.reg(static_cast<u8>(rd | 1u));
  }
  return st.reg(rd);
}

/// What ldstub (size 1) or swap (size 4) writes back.
constexpr u64 atomic_value(const CpuState& st, u8 rd, unsigned size) {
  return size == 1 ? 0xffu : st.reg(rd);
}

}  // namespace la::cpu::v8
