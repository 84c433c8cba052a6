// Compile-time checks of the shared SPARC V8 semantics.  Constant
// evaluation rejects undefined behaviour (signed overflow, oversized
// shifts, out-of-range register indices), so each assert below also shows
// the operation it evaluates is free of UB for those operands.
#include "cpu/sparc_semantics.hpp"

namespace la::cpu::v8 {
namespace {

using enum isa::Mnemonic;

/// icc after alu<M>(a, b) on a fresh PSR with the given carry-in.
template <isa::Mnemonic M>
constexpr Psr icc(u32 a, u32 b, bool carry = false) {
  Psr p;
  p.c = carry;
  alu<M>(p, a, b, false);
  return p;
}

template <isa::Mnemonic M>
constexpr u32 result(u32 a, u32 b, bool carry = false) {
  Psr p;
  p.c = carry;
  return alu<M>(p, a, b, false);
}

// 0x7fffffff + 1 overflows into the sign bit: V, not C.
static_assert(result<kAddcc>(0x7fffffffu, 1) == 0x80000000u);
static_assert(icc<kAddcc>(0x7fffffffu, 1).v);
static_assert(!icc<kAddcc>(0x7fffffffu, 1).c);
static_assert(icc<kAddcc>(0x7fffffffu, 1).n);
// 0xffffffff + 1 carries out: C and Z, not V.
static_assert(icc<kAddcc>(0xffffffffu, 1).c && icc<kAddcc>(0xffffffffu, 1).z);
static_assert(!icc<kAddcc>(0xffffffffu, 1).v);

// 0 - 1 borrows: C, not V.
static_assert(result<kSubcc>(0, 1) == 0xffffffffu);
static_assert(icc<kSubcc>(0, 1).c && !icc<kSubcc>(0, 1).v);
// The carry-in feeds addx/subx; the quirk drops it from subx only.
static_assert(result<kAddxcc>(0xffffffffu, 0, true) == 0);
static_assert(icc<kAddxcc>(0xffffffffu, 0, true).c);
static_assert(result<kSubx>(5, 1, true) == 3);
static_assert([] {
  Psr p;
  p.c = true;
  return alu<kSubx>(p, 5, 1, /*subx_no_carry=*/true);
}() == 4);

// sra by 31 smears the sign; only the low five bits of the count count.
static_assert(result<kSra>(0x80000000u, 31) == 0xffffffffu);
static_assert(result<kSra>(0x7fffffffu, 31) == 0);
static_assert(result<kSra>(0x80000000u, 63) == 0xffffffffu);
static_assert(result<kSll>(1, 32) == 1);

/// PSR.V after a tagged op on a fresh state; tt in `trap`.
constexpr bool tagged_v(isa::Mnemonic mn, u32 a, u32 b) {
  CpuState st;
  tagged(st, mn, 8, a, b);
  return st.psr.v;
}

// A tag bit set in either operand sets V with no arithmetic overflow.
static_assert(tagged_v(kTaddcc, 1, 4));
static_assert(tagged_v(kTaddcc, 4, 2));
static_assert(!tagged_v(kTaddcc, 4, 8));
static_assert(tagged_v(kTsubcc, 8, 3));
// The tv form traps instead, leaving rd and icc alone.
static_assert([] {
  CpuState st;
  st.set_reg(8, 5);
  return tagged(st, kTaddcctv, 8, 1, 4) == tt_of(Trap::kTagOverflow) &&
         st.reg(8) == 5 && !st.psr.v;
}());

// sdiv of INT64_MIN (Y:a = 0x80000000:0) by -1 clamps to 0x7fffffff, V.
static_assert(sdiv(0x80000000u, 0, 0xffffffffu).q == 0x7fffffffu);
static_assert(sdiv(0x80000000u, 0, 0xffffffffu).overflow);
static_assert(sdiv(0xffffffffu, 0xfffffffeu, 1).q == 0xfffffffeu);  // -2
static_assert(sdiv(0x80000000u, 0, 1).q == 0x80000000u);
static_assert(sdiv(0x80000000u, 0, 1).overflow);
// udiv of 2^32 by 1 clamps to 0xffffffff, V.
static_assert(udiv(1, 0, 1).q == 0xffffffffu && udiv(1, 0, 1).overflow);
static_assert(udiv(0, 10, 3).q == 3 && !udiv(0, 10, 3).overflow);
// The cc forms report the clamp in V and clear C.
static_assert([] {
  CpuState st;
  st.y = 0x80000000u;
  st.psr.c = true;
  return divide(st, kSdivcc, 8, 0, 0xffffffffu, true) == kNoTrap &&
         st.reg(8) == 0x7fffffffu && st.psr.v && !st.psr.c;
}());
static_assert([] {
  CpuState st;
  return divide(st, kUdiv, 8, 1, 0, true) == tt_of(Trap::kDivisionByZero);
}());

// Memory legality in V8 priority order.
constexpr Psr kUser = [] {
  Psr p;
  p.s = false;
  return p;
}();
constexpr Psr kSuper;
static_assert(mem_trap(kUser, true, 8, 7, 0x40000010u) ==
              tt_of(Trap::kPrivilegedInstruction));
static_assert(mem_trap(kSuper, true, 8, 7, 0x40000010u) ==
              tt_of(Trap::kIllegalInstruction));
static_assert(mem_trap(kSuper, false, 8, 6, 0x40000014u) ==
              tt_of(Trap::kMemAddressNotAligned));
static_assert(mem_trap(kUser, false, 2, 6, 0x40000012u) == kNoTrap);
static_assert(mem_trap(kUser, false, 1, 7, 0x40000013u) == kNoTrap);

// State-register rules.
static_assert(window_mask(8) == 0xffu && window_mask(32) == ~0u);
static_assert([] {
  CpuState st;  // 8 windows
  return wrpsr(st, 0x8) == tt_of(Trap::kIllegalInstruction) &&
         wrwim(st, 0xffffffffu) == kNoTrap && st.wim == 0xffu &&
         wrtbr(st, 0x12345678u) == kNoTrap && st.tbr == 0x12345000u;
}());

// Trap entry: window down, pc/npc into l1/l2, vector through TBR.
static_assert([] {
  CpuState st;
  st.psr.et = true;
  st.psr.s = false;
  st.pc = 0x40000100u;
  st.npc = 0x40000104u;
  st.tbr = 0x40010000u;
  return enter_trap(st, tt_of(Trap::kPrivilegedInstruction)) &&
         st.psr.cwp == 7 && !st.psr.et && st.psr.s && !st.psr.ps &&
         st.reg(17) == 0x40000100u && st.reg(18) == 0x40000104u &&
         st.pc == 0x40010030u && st.npc == 0x40010034u && !st.error_mode;
}());
// With ET = 0 a trap enters error mode and only latches tt.
static_assert([] {
  CpuState st;
  st.pc = 0x100;
  return !enter_trap(st, tt_of(Trap::kIllegalInstruction)) &&
         st.error_mode && st.tbr_tt() == 0x02 && st.pc == 0x100 &&
         st.psr.cwp == 0;
}());

// save/restore rotate through the WIM check.
static_assert([] {
  CpuState st;
  st.wim = 1u << 7;
  return save(st, 8, 1, 2) == tt_of(Trap::kWindowOverflow) &&
         restore(st, 8, 1, 2) == kNoTrap && st.psr.cwp == 1 &&
         st.reg(8) == 3;
}());

// Ticc vectors to 0x80 + (rs1 + operand 2) mod 128.
static_assert(ticc(kSuper, isa::Cond::kA, 0x7f, 2) == 0x81);
static_assert(ticc(kSuper, isa::Cond::kN, 0, 0) == kNoTrap);

}  // namespace
}  // namespace la::cpu::v8
