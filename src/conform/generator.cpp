#include "conform/generator.hpp"

#include <cassert>

#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "isa/encode.hpp"

namespace la::conform {

using isa::Cond;
using isa::Instruction;
using isa::Mnemonic;

std::vector<Mnemonic> corpus_mnemonics() {
  std::vector<Mnemonic> v;
  for (u16 i = 1; i < static_cast<u16>(Mnemonic::kCount); ++i) {
    v.push_back(static_cast<Mnemonic>(i));
  }
  return v;
}

std::string corpus_key(Mnemonic mn) {
  switch (mn) {
    case Mnemonic::kRdy: return "rdy";
    case Mnemonic::kRdasr: return "rdasr";
    case Mnemonic::kRdpsr: return "rdpsr";
    case Mnemonic::kRdwim: return "rdwim";
    case Mnemonic::kRdtbr: return "rdtbr";
    case Mnemonic::kWry: return "wry";
    case Mnemonic::kWrasr: return "wrasr";
    case Mnemonic::kWrpsr: return "wrpsr";
    case Mnemonic::kWrwim: return "wrwim";
    case Mnemonic::kWrtbr: return "wrtbr";
    case Mnemonic::kBicc: return "bicc";
    case Mnemonic::kTicc: return "ticc";
    case Mnemonic::kFbfcc: return "fbfcc";
    case Mnemonic::kCbccc: return "cbccc";
    default: return std::string(isa::mnemonic_name(mn));
  }
}

Mnemonic mnemonic_from_key(const std::string& key) {
  for (const Mnemonic mn : corpus_mnemonics()) {
    if (corpus_key(mn) == key) return mn;
  }
  return Mnemonic::kInvalid;
}

u32 flat_index(unsigned nwindows, unsigned cwp, u8 r) {
  assert(r < 32 && cwp < nwindows);
  if (r < 8) return r;
  if (r < 16) return 8 + cwp * 16 + (r - 8u);
  if (r < 24) return 8 + cwp * 16 + 8 + (r - 16u);
  const unsigned next = cwp + 1u == nwindows ? 0u : cwp + 1u;
  return 8 + next * 16 + (r - 24u);
}

namespace {

/// Everything a vector needs before the reference run: the pre-state
/// pieces, the memory prefill, and the code words.  set_reg() resolves
/// window-relative register numbers against the scenario's own CWP.
struct Scenario {
  VecConfig cfg;
  cpu::Psr psr;
  u32 pc = kVecCodeBase;
  u32 npc = kVecCodeBase + 4;
  u32 y = 0;
  u32 wim = 0;
  u32 tbr = kVecTrapBase;
  std::map<u32, u32> regs;  // flat index -> value
  std::map<u32, u32> asr;
  std::map<u32, u32> mem;  // word prefill
  std::vector<std::pair<u32, u32>> code;
  int steps = 1;

  Scenario() {
    psr.s = true;
    psr.et = true;
  }

  void set_reg(u8 r, u32 v) {
    if (r == 0) return;
    regs[flat_index(cfg.nwindows, psr.cwp, r)] = v;
  }

  void emit(u32 word) {
    code.emplace_back(pc + 4 * static_cast<u32>(code.size()), word);
  }
};

/// MemoryPort wrapper that remembers the pre-image of every data word the
/// reference run touches.  Instruction fetches pass through unrecorded —
/// the code words are listed in the vector explicitly.
class RecordingMemory final : public cpu::MemoryPort {
 public:
  explicit RecordingMemory(cpu::FlatMemory& inner) : inner_(inner) {}

  bool read(Addr addr, unsigned size, u64& out) override {
    record(addr, size);
    return inner_.read(addr, size, out);
  }

  bool write(Addr addr, unsigned size, u64 value) override {
    record(addr, size);
    return inner_.write(addr, size, value);
  }

  bool fetch(Addr addr, u32& insn) override {
    return inner_.fetch(addr, insn);
  }

  const std::map<u32, u32>& preimages() const { return preimages_; }

 private:
  void record(Addr addr, unsigned size) {
    for (Addr w = addr & ~Addr{3}; w < addr + size; w += 4) {
      if (preimages_.count(static_cast<u32>(w)) != 0) continue;
      u64 v = 0;
      if (inner_.read(w, 4, v)) {
        preimages_.emplace(static_cast<u32>(w), static_cast<u32>(v));
      }
    }
  }

  cpu::FlatMemory& inner_;
  std::map<u32, u32> preimages_;
};

/// Run the scenario on the IntegerUnit reference and freeze the result.
TestVector build_vector(std::string name, const Scenario& sc) {
  TestVector v;
  v.name = std::move(name);
  v.cfg = sc.cfg;
  v.steps = sc.steps;
  v.code = sc.code;
  v.pre.pc = sc.pc;
  v.pre.npc = sc.npc;
  v.pre.psr = sc.psr.pack();
  v.pre.y = sc.y;
  v.pre.wim = sc.wim;
  v.pre.tbr = sc.tbr;
  for (const auto& [i, val] : sc.regs) {
    if (val != 0) v.pre.regs[i] = val;
  }
  for (const auto& [i, val] : sc.asr) {
    if (val != 0) v.pre.asr[i] = val;
  }

  cpu::FlatMemory flat(kVecMemSize, kVecMemBase);
  for (const auto& [a, w] : sc.mem) flat.write(a, 4, w);
  for (const auto& [a, w] : sc.code) flat.write(a, 4, w);
  RecordingMemory rec(flat);

  cpu::IntegerUnit iu(sc.cfg.cpu_config(false), rec);
  iu.reset(sc.pc);
  apply_state(v.pre, iu.state());
  for (int i = 0; i < sc.steps; ++i) {
    const cpu::StepResult r = iu.step();
    if (r.trapped) {
      v.ref.trapped = true;
      v.ref.tt = r.tt;
    }
  }
  v.ref.cycles = iu.cycle_count();
  v.post = capture_state(iu.state());
  v.pre.mem = rec.preimages();
  for (const auto& [w, unused] : rec.preimages()) {
    (void)unused;
    v.post.mem[w] = flat.word_at(w);
  }
  return v;
}

// --- seeded random scenarios --------------------------------------------

/// Random-but-safe starting point: supervisor, traps enabled, random icc
/// flags / CWP / Y, trap table in place, a few noise registers.
Scenario random_base(Rng& rng) {
  Scenario sc;
  sc.psr.n = rng.chance(0.5);
  sc.psr.z = rng.chance(0.5);
  sc.psr.v = rng.chance(0.5);
  sc.psr.c = rng.chance(0.5);
  sc.psr.ps = rng.chance(0.5);
  sc.psr.pil = static_cast<u8>(rng.below(16));
  sc.psr.cwp = static_cast<u8>(rng.below(sc.cfg.nwindows));
  sc.y = rng.next_u32();
  sc.tbr = kVecTrapBase | (rng.below(256) << 4);
  for (int i = 0; i < 3; ++i) {
    sc.set_reg(static_cast<u8>(rng.below(32)), rng.next_u32());
  }
  return sc;
}

/// Benign delay-slot filler (xor never traps); marks the scenario 2-step.
void emit_slot(Scenario& sc, Rng& rng) {
  const u8 rd = static_cast<u8>(rng.between(1, 7));
  const u8 rs1 = static_cast<u8>(rng.below(8));
  const i32 imm = static_cast<i32>(rng.between(0, 4095)) - 2048;
  sc.emit(isa::encode_arith_ri(Mnemonic::kXor, rd, rs1, imm));
  sc.steps = 2;
}

/// Generic two-operand format-2 case: random rd/rs1 and a random second
/// operand (register or immediate), with the source registers seeded.
void alu_case(Scenario& sc, Rng& rng, Mnemonic mn) {
  Instruction ins;
  ins.mn = mn;
  ins.rd = static_cast<u8>(rng.below(32));
  ins.rs1 = static_cast<u8>(rng.below(32));
  if (rng.chance(0.5)) {
    ins.imm = true;
    ins.simm13 = static_cast<i32>(rng.between(0, 8191)) - 4096;
  } else {
    ins.rs2 = static_cast<u8>(rng.below(32));
    sc.set_reg(ins.rs2, rng.next_u32());
  }
  sc.set_reg(ins.rs1, rng.next_u32());
  sc.emit(isa::encode(ins));
}

constexpr u8 kSafeAsis[] = {0x08, 0x09, 0x0a, 0x0b, 0x1c};  // never 2

/// Integer/atomic memory case: the effective address is constructed into
/// the data region with the access's natural alignment (misalignment and
/// privilege violations are edge cases, not random ones).
void mem_case(Scenario& sc, Rng& rng, Mnemonic mn) {
  const unsigned size = isa::access_size(mn);
  const bool dbl = size == 8;
  const unsigned align = size;

  Instruction ins;
  ins.mn = mn;
  ins.rd = dbl ? static_cast<u8>(rng.below(16) * 2)
               : static_cast<u8>(rng.below(32));
  ins.rs1 = static_cast<u8>(rng.between(1, 31));

  // Stores read rd (and rd|1); seed them before the address registers so
  // an rd == rs1 collision resolves in favour of the address.
  if (isa::is_store(mn)) {
    sc.set_reg(ins.rd, rng.next_u32());
    if (dbl) sc.set_reg(static_cast<u8>(ins.rd | 1), rng.next_u32());
  }

  const u32 span = 0x380;
  const Addr ea = kVecDataBase + rng.below(span / align) * align;

  const bool alt = isa::is_alternate_space(mn);
  if (!alt && rng.chance(0.5)) {
    ins.imm = true;
    const i32 m = static_cast<i32>(4000 / align);
    const i32 off = static_cast<i32>(align) *
                    (static_cast<i32>(rng.between(0, 2 * m)) - m);
    ins.simm13 = off;
    sc.set_reg(ins.rs1, static_cast<u32>(ea) - static_cast<u32>(off));
  } else {
    // Alternate-space ops must use the register form (i=1 decodes as
    // illegal) and an ASI other than 2 (the pipeline's cache-control ASI).
    ins.rs2 = static_cast<u8>(rng.between(1, 31));
    if (ins.rs2 == ins.rs1) ins.rs2 = static_cast<u8>(ins.rs1 % 31 + 1);
    if (alt) ins.asi = kSafeAsis[rng.below(5)];
    const u32 off = rng.next_u32();
    sc.set_reg(ins.rs2, off);
    sc.set_reg(ins.rs1, static_cast<u32>(ea) - off);
  }

  for (Addr w = ea & ~Addr{3}; w < ea + size; w += 4) {
    sc.mem[static_cast<u32>(w)] = rng.next_u32();
  }
  sc.emit(isa::encode(ins));
}

Scenario random_scenario(Mnemonic mn, Rng& rng) {
  Scenario sc = random_base(rng);
  Instruction ins;
  ins.mn = mn;

  switch (mn) {
    case Mnemonic::kCall:
      ins.disp = static_cast<i32>(rng.between(0, 1u << 20)) - (1 << 19);
      sc.emit(isa::encode(ins));
      emit_slot(sc, rng);
      break;

    case Mnemonic::kBicc:
      ins.cond = static_cast<Cond>(rng.below(16));
      ins.annul = rng.chance(0.5);
      ins.disp = static_cast<i32>(rng.between(0, 2047)) - 1024;
      sc.emit(isa::encode(ins));
      emit_slot(sc, rng);
      break;

    case Mnemonic::kFbfcc:
    case Mnemonic::kCbccc:
      // Decoded but trap fp/cp_disabled at execute; no delay slot runs.
      ins.cond = static_cast<Cond>(rng.below(16));
      ins.annul = rng.chance(0.5);
      ins.disp = static_cast<i32>(rng.between(0, 2047)) - 1024;
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kUnimp:
      ins.imm22 = rng.next_u32() & 0x3fffffu;
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kSethi:
      ins.rd = static_cast<u8>(rng.below(32));
      ins.imm22 = rng.next_u32() & 0x3fffffu;
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kJmpl: {
      ins.rd = static_cast<u8>(rng.below(32));
      ins.rs1 = static_cast<u8>(rng.between(1, 31));
      const Addr target = kVecMemBase + rng.below(kVecMemSize / 4) * 4;
      if (rng.chance(0.5)) {
        ins.imm = true;
        ins.simm13 = static_cast<i32>(rng.between(0, 8188)) - 4096;
        ins.simm13 &= ~3;
        sc.set_reg(ins.rs1,
                   static_cast<u32>(target) - static_cast<u32>(ins.simm13));
      } else {
        ins.rs2 = static_cast<u8>(rng.between(1, 31));
        if (ins.rs2 == ins.rs1) ins.rs2 = static_cast<u8>(ins.rs1 % 31 + 1);
        const u32 off = rng.next_u32() & ~3u;
        sc.set_reg(ins.rs2, off);
        sc.set_reg(ins.rs1, static_cast<u32>(target) - off);
      }
      sc.emit(isa::encode(ins));
      emit_slot(sc, rng);
      break;
    }

    case Mnemonic::kRett: {
      // The return-from-trap path: ET must be 0, the next window free.
      sc.psr.et = false;
      sc.psr.ps = rng.chance(0.5);
      sc.wim = 0;
      ins.rs1 = static_cast<u8>(rng.between(1, 31));
      ins.imm = true;
      ins.simm13 = static_cast<i32>(rng.between(0, 2044)) & ~3;
      const Addr target = kVecMemBase + rng.below(kVecMemSize / 4) * 4;
      sc.set_reg(ins.rs1,
                 static_cast<u32>(target) - static_cast<u32>(ins.simm13));
      sc.emit(isa::encode(ins));
      emit_slot(sc, rng);
      break;
    }

    case Mnemonic::kTicc:
      ins.cond = static_cast<Cond>(rng.below(16));
      ins.rs1 = static_cast<u8>(rng.below(32));
      ins.imm = true;
      ins.simm13 = static_cast<i32>(rng.below(128));
      sc.set_reg(ins.rs1, rng.below(64));
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kFlush:
      ins.rs1 = static_cast<u8>(rng.below(32));
      ins.imm = true;
      ins.simm13 = static_cast<i32>(rng.between(0, 8191)) - 4096;
      sc.set_reg(ins.rs1, rng.next_u32());
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kRdy:
      ins.rd = static_cast<u8>(rng.below(32));
      ins.rs1 = 0;  // rs1 != 0 would be RDASR
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kRdasr:
      ins.rd = static_cast<u8>(rng.below(32));
      ins.rs1 = static_cast<u8>(rng.between(1, 31));
      sc.asr[ins.rs1] = rng.next_u32();
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kRdpsr:
    case Mnemonic::kRdtbr:
      ins.rd = static_cast<u8>(rng.below(32));
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kRdwim:
      ins.rd = static_cast<u8>(rng.below(32));
      sc.wim = rng.next_u32() & 0xffu;  // nwindows=8 mask
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kWry:
      ins.rd = 0;  // rd != 0 would be WRASR
      ins.rs1 = static_cast<u8>(rng.below(32));
      ins.imm = rng.chance(0.5);
      if (ins.imm) {
        ins.simm13 = static_cast<i32>(rng.between(0, 8191)) - 4096;
      } else {
        ins.rs2 = static_cast<u8>(rng.below(32));
        sc.set_reg(ins.rs2, rng.next_u32());
      }
      sc.set_reg(ins.rs1, rng.next_u32());
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kWrasr:
      ins.rd = static_cast<u8>(rng.between(1, 31));
      ins.rs1 = static_cast<u8>(rng.below(32));
      ins.imm = true;
      ins.simm13 = static_cast<i32>(rng.between(0, 8191)) - 4096;
      sc.set_reg(ins.rs1, rng.next_u32());
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kWrpsr: {
      // Operand is rs1 ^ operand2; use b = 0 so the written value is
      // exactly the constructed PSR (CWP kept legal — the illegal-CWP
      // trap is an edge case).
      cpu::Psr p;
      p.n = rng.chance(0.5);
      p.z = rng.chance(0.5);
      p.v = rng.chance(0.5);
      p.c = rng.chance(0.5);
      p.s = rng.chance(0.8);
      p.ps = rng.chance(0.5);
      p.et = rng.chance(0.8);
      p.pil = static_cast<u8>(rng.below(16));
      p.cwp = static_cast<u8>(rng.below(sc.cfg.nwindows));
      ins.rs1 = static_cast<u8>(rng.between(1, 31));
      ins.imm = true;
      ins.simm13 = 0;
      sc.set_reg(ins.rs1, p.pack());
      sc.emit(isa::encode(ins));
      break;
    }

    case Mnemonic::kWrwim:
    case Mnemonic::kWrtbr:
      ins.rs1 = static_cast<u8>(rng.below(32));
      ins.imm = true;
      ins.simm13 = static_cast<i32>(rng.between(0, 8191)) - 4096;
      sc.set_reg(ins.rs1, rng.next_u32());
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kSave:
    case Mnemonic::kRestore:
      ins.rd = static_cast<u8>(rng.below(32));
      ins.rs1 = static_cast<u8>(rng.below(32));
      ins.imm = rng.chance(0.5);
      if (ins.imm) {
        ins.simm13 = static_cast<i32>(rng.between(0, 8191)) - 4096;
      } else {
        ins.rs2 = static_cast<u8>(rng.below(32));
        sc.set_reg(ins.rs2, rng.next_u32());
      }
      sc.set_reg(ins.rs1, rng.next_u32());
      // Mostly window-trap-free; a blocked window about 1 time in 4.
      sc.wim = rng.chance(0.25) ? (rng.next_u32() & 0xffu) : 0;
      sc.emit(isa::encode(ins));
      break;

    case Mnemonic::kFpop1:
    case Mnemonic::kFpop2:
    case Mnemonic::kCpop1:
    case Mnemonic::kCpop2:
      ins.rd = static_cast<u8>(rng.below(32));
      ins.rs1 = static_cast<u8>(rng.below(32));
      ins.rs2 = static_cast<u8>(rng.below(32));
      ins.opf = static_cast<u16>(rng.below(512));
      sc.emit(isa::encode(ins));
      break;

    // FP / coprocessor memory ops trap before the address is even formed.
    case Mnemonic::kLdf: case Mnemonic::kLdfsr: case Mnemonic::kLddf:
    case Mnemonic::kStf: case Mnemonic::kStfsr: case Mnemonic::kStdfq:
    case Mnemonic::kStdf:
    case Mnemonic::kLdc: case Mnemonic::kLdcsr: case Mnemonic::kLddc:
    case Mnemonic::kStc: case Mnemonic::kStcsr: case Mnemonic::kStdcq:
    case Mnemonic::kStdc:
      ins.rd = static_cast<u8>(rng.below(32));
      ins.rs1 = static_cast<u8>(rng.below(32));
      ins.imm = true;
      ins.simm13 = static_cast<i32>(rng.between(0, 8191)) - 4096;
      sc.emit(isa::encode(ins));
      break;

    default:
      if (isa::is_load(mn) || isa::is_store(mn)) {
        mem_case(sc, rng, mn);
      } else {
        alu_case(sc, rng, mn);  // the whole format-2 ALU family
      }
      break;
  }
  return sc;
}

// --- edge cases ----------------------------------------------------------

/// Deterministic starting point for the hand-written edges.
Scenario fixed_base() {
  Scenario sc;
  sc.psr.cwp = 3;
  return sc;
}

/// rr-form ALU with operands preloaded into %g1/%g2, result to %g3.
void rr(Scenario& sc, Mnemonic mn, u32 a, u32 b) {
  sc.set_reg(1, a);
  sc.set_reg(2, b);
  sc.emit(isa::encode_arith_rr(mn, 3, 1, 2));
}

/// ri-form ALU with the operand preloaded into %g1.
void ri(Scenario& sc, Mnemonic mn, u32 a, i32 simm) {
  sc.set_reg(1, a);
  sc.emit(isa::encode_arith_ri(mn, 3, 1, simm));
}

/// Memory op with the effective address in %g1 (immediate offset 0).
void memop(Scenario& sc, Mnemonic mn, Addr ea, u8 rd = 6) {
  sc.set_reg(1, static_cast<u32>(ea));
  if (isa::is_alternate_space(mn)) {
    // rs2 = %g0 so the address is %g1 alone; ASI 0x0b (user data).
    sc.emit(isa::encode_mem_rr(mn, rd, 1, 0, 0x0b));
  } else {
    sc.emit(isa::encode_mem_ri(mn, rd, 1, 0));
  }
}

void add_edges(Mnemonic mn, std::vector<TestVector>& out) {
  const std::string k = corpus_key(mn);
  auto add = [&](const char* what, const Scenario& sc) {
    out.push_back(build_vector(k + "/edge_" + what, sc));
  };

  switch (mn) {
    case Mnemonic::kAddcc: {
      Scenario sc = fixed_base();
      rr(sc, mn, 0x7fffffffu, 1);
      add("ovf", sc);
      sc = fixed_base();
      rr(sc, mn, 0xffffffffu, 1);
      add("carry", sc);
      sc = fixed_base();
      rr(sc, mn, 0, 0);
      add("zero", sc);
      break;
    }
    case Mnemonic::kSubcc: {
      Scenario sc = fixed_base();
      rr(sc, mn, 0, 1);
      add("borrow", sc);
      sc = fixed_base();
      rr(sc, mn, 0x80000000u, 1);
      add("ovf", sc);
      break;
    }
    case Mnemonic::kAddx:
    case Mnemonic::kAddxcc: {
      Scenario sc = fixed_base();
      sc.psr.c = true;
      rr(sc, mn, 0xffffffffu, 0);
      add("carry_in", sc);
      break;
    }
    case Mnemonic::kSubx: {
      // The deliberate-fault config axis: the same pre-state with the
      // quirk on must produce a different (carry-dropping) result, and
      // the replay legs must honour the vector's own config.
      Scenario sc = fixed_base();
      sc.psr.c = true;
      rr(sc, mn, 10, 3);
      add("carry_in", sc);
      sc = fixed_base();
      sc.psr.c = true;
      sc.cfg.quirk_subx = true;
      rr(sc, mn, 10, 3);
      add("carry_in_quirk", sc);
      break;
    }
    case Mnemonic::kSubxcc: {
      Scenario sc = fixed_base();
      sc.psr.c = true;
      rr(sc, mn, 0, 0);
      add("carry_in", sc);
      break;
    }
    case Mnemonic::kSll:
    case Mnemonic::kSrl:
    case Mnemonic::kSra: {
      Scenario sc = fixed_base();
      ri(sc, mn, 0x80000001u, 0);
      add("count0", sc);
      sc = fixed_base();
      ri(sc, mn, 0x80000001u, 31);
      add("count31", sc);
      break;
    }
    case Mnemonic::kMulscc: {
      Scenario sc = fixed_base();
      sc.psr.n = true;  // N xor V feeds the shifted-in bit
      sc.y = 0x80000001u;
      rr(sc, mn, 0x12345679u, 0x1000u);
      add("step", sc);
      break;
    }
    case Mnemonic::kUmul:
    case Mnemonic::kUmulcc: {
      Scenario sc = fixed_base();
      rr(sc, mn, 0xffffffffu, 0xffffffffu);
      add("allones", sc);
      sc = fixed_base();
      sc.cfg.has_mul = false;
      rr(sc, mn, 2, 3);
      add("nomul", sc);
      break;
    }
    case Mnemonic::kSmul:
    case Mnemonic::kSmulcc: {
      Scenario sc = fixed_base();
      rr(sc, mn, 0x80000000u, 0x80000000u);
      add("minxmin", sc);
      sc = fixed_base();
      sc.cfg.has_mul = false;
      rr(sc, mn, 2, 3);
      add("nomul", sc);
      break;
    }
    case Mnemonic::kUdiv:
    case Mnemonic::kUdivcc: {
      Scenario sc = fixed_base();
      sc.y = 1;  // dividend 2^32, divisor 1 -> quotient clamps to all-ones
      rr(sc, mn, 0, 1);
      add("clamp", sc);
      sc = fixed_base();
      rr(sc, mn, 5, 0);
      add("dbz", sc);
      sc = fixed_base();
      sc.cfg.has_div = false;
      rr(sc, mn, 6, 3);
      add("nodiv", sc);
      break;
    }
    case Mnemonic::kSdiv:
    case Mnemonic::kSdivcc: {
      // The fuzzer-minimized PR 2 repro: 64-bit dividend INT64_MIN with
      // divisor -1 SIGFPEs a naive host idiv; architecturally the
      // quotient overflows and clamps to 0x7fffffff.
      Scenario sc = fixed_base();
      sc.y = 0x80000000u;
      ri(sc, mn, 0, -1);
      add("int64min_repro", sc);
      sc = fixed_base();
      sc.y = 0xffffffffu;  // dividend -2^32 / 1 clamps negative
      ri(sc, mn, 0, 1);
      add("negclamp", sc);
      sc = fixed_base();
      rr(sc, mn, 5, 0);
      add("dbz", sc);
      sc = fixed_base();
      sc.cfg.has_div = false;
      rr(sc, mn, 6, 3);
      add("nodiv", sc);
      break;
    }
    case Mnemonic::kTaddcc:
    case Mnemonic::kTsubcc: {
      Scenario sc = fixed_base();
      rr(sc, mn, 0x101u, 0x4u);  // tag bits set -> V, no trap
      add("tagged", sc);
      break;
    }
    case Mnemonic::kTaddcctv:
    case Mnemonic::kTsubcctv: {
      Scenario sc = fixed_base();
      rr(sc, mn, 0x101u, 0x4u);  // tag bits set -> tag_overflow trap
      add("trap", sc);
      sc = fixed_base();
      rr(sc, mn, 0x100u, 0x4u);  // clean tags -> executes
      add("clean", sc);
      break;
    }
    case Mnemonic::kUnimp: {
      Scenario sc = fixed_base();
      sc.psr.et = false;  // trap with ET=0 -> error mode
      Instruction ins;
      ins.mn = mn;
      ins.imm22 = 0xbad;
      sc.emit(isa::encode(ins));
      add("et0_error_mode", sc);
      sc = fixed_base();
      sc.psr.cwp = 0;  // trap CWP decrement wraps to nwindows-1
      Instruction ins2;
      ins2.mn = mn;
      ins2.imm22 = 1;
      sc.emit(isa::encode(ins2));
      add("cwp_wrap", sc);
      break;
    }
    case Mnemonic::kSethi: {
      Scenario sc = fixed_base();
      sc.emit(isa::encode_sethi(0, 0));  // canonical NOP
      add("nop", sc);
      break;
    }
    case Mnemonic::kCall: {
      Scenario sc = fixed_base();
      Instruction ins;
      ins.mn = mn;
      ins.disp = -16;
      sc.emit(isa::encode(ins));
      sc.emit(isa::encode_arith_ri(Mnemonic::kXor, 4, 1, 0x155));
      sc.steps = 2;
      add("back", sc);
      break;
    }
    case Mnemonic::kBicc: {
      struct BEdge {
        const char* what;
        Cond cond;
        bool annul;
        bool z;
      };
      const BEdge edges[] = {
          {"ba_annul", Cond::kA, true, false},   // slot annulled
          {"bn_annul", Cond::kN, true, false},   // untaken + annul
          {"taken", Cond::kE, false, true},      // conditional taken
          {"untaken", Cond::kE, false, false},   // falls through
      };
      for (const BEdge& e : edges) {
        Scenario sc = fixed_base();
        sc.psr.z = e.z;
        Instruction ins;
        ins.mn = mn;
        ins.cond = e.cond;
        ins.annul = e.annul;
        ins.disp = 8;
        sc.emit(isa::encode(ins));
        sc.set_reg(1, 0x1111u);
        sc.emit(isa::encode_arith_ri(Mnemonic::kXor, 4, 1, 0x155));
        sc.steps = 2;
        add(e.what, sc);
      }
      break;
    }
    case Mnemonic::kTicc: {
      Scenario sc = fixed_base();
      sc.emit(isa::encode_ticc(Cond::kA, 0, 0x2a));
      add("ta", sc);
      sc = fixed_base();
      sc.emit(isa::encode_ticc(Cond::kN, 0, 0x2a));
      add("tn", sc);
      sc = fixed_base();
      sc.psr.et = false;
      sc.emit(isa::encode_ticc(Cond::kA, 0, 1));
      add("et0_error_mode", sc);
      break;
    }
    case Mnemonic::kJmpl: {
      Scenario sc = fixed_base();
      sc.set_reg(1, kVecDataBase + 2);  // misaligned target
      sc.emit(isa::encode_arith_ri(mn, 15, 1, 0));
      add("misaligned", sc);
      break;
    }
    case Mnemonic::kRett: {
      Scenario sc = fixed_base();  // ET=1 -> illegal trap (vectored)
      sc.set_reg(1, kVecDataBase);
      sc.emit(isa::encode_arith_ri(mn, 0, 1, 0));
      add("et1_illegal", sc);

      sc = fixed_base();  // blocked next window, ET=0 -> error mode
      sc.psr.et = false;
      sc.wim = 1u << ((sc.psr.cwp + 1) % 8);
      sc.set_reg(1, kVecDataBase);
      sc.emit(isa::encode_arith_ri(mn, 0, 1, 0));
      add("underflow_error_mode", sc);

      sc = fixed_base();  // misaligned target, ET=0 -> error mode
      sc.psr.et = false;
      sc.set_reg(1, kVecDataBase + 2);
      sc.emit(isa::encode_arith_ri(mn, 0, 1, 0));
      add("misaligned_error_mode", sc);

      sc = fixed_base();  // return to user mode (PS=0)
      sc.psr.et = false;
      sc.psr.ps = false;
      sc.set_reg(1, kVecDataBase + 0x40);
      sc.emit(isa::encode_arith_ri(mn, 0, 1, 0));
      sc.emit(isa::encode_arith_ri(Mnemonic::kXor, 4, 1, 0x155));
      sc.steps = 2;
      add("to_user", sc);
      break;
    }
    case Mnemonic::kSave: {
      Scenario sc = fixed_base();
      sc.wim = 1u << ((sc.psr.cwp + 8 - 1) % 8);
      rr(sc, mn, 0x100u, 0x20u);
      add("overflow", sc);
      sc = fixed_base();
      sc.cfg.nwindows = 4;
      sc.psr.cwp = 0;  // decrement wraps to window 3
      rr(sc, mn, 0x100u, 0x20u);
      add("nw4_wrap", sc);
      break;
    }
    case Mnemonic::kRestore: {
      Scenario sc = fixed_base();
      sc.wim = 1u << ((sc.psr.cwp + 1) % 8);
      rr(sc, mn, 0x100u, 0x20u);
      add("underflow", sc);
      sc = fixed_base();
      sc.psr.cwp = 7;  // increment wraps to window 0
      rr(sc, mn, 0x100u, 0x20u);
      add("wrap", sc);
      break;
    }
    case Mnemonic::kWrpsr: {
      Scenario sc = fixed_base();
      cpu::Psr bad;
      bad.cwp = 0x1f;  // >= nwindows -> illegal instruction
      sc.set_reg(1, bad.pack());
      sc.emit(isa::encode_arith_ri(mn, 0, 1, 0));
      add("bad_cwp", sc);
      break;
    }
    case Mnemonic::kRdasr: {
      Scenario sc = fixed_base();
      sc.asr[15] = 0xdeadbeefu;
      sc.emit(isa::encode_arith_rr(mn, 0, 15, 0));  // STBAR form
      add("stbar", sc);
      break;
    }
    case Mnemonic::kRdwim: {
      Scenario sc = fixed_base();
      sc.wim = 0xaau;
      sc.emit(isa::encode_arith_rr(mn, 5, 0, 0));
      add("pattern", sc);
      break;
    }
    case Mnemonic::kLd: {
      Scenario sc = fixed_base();
      memop(sc, mn, kVecDataBase + 2);  // misaligned word
      add("misaligned", sc);
      sc = fixed_base();
      sc.psr.et = false;
      memop(sc, mn, kVecDataBase + 2);
      add("misaligned_et0", sc);
      break;
    }
    case Mnemonic::kLduh:
    case Mnemonic::kLdsh:
    case Mnemonic::kSth: {
      Scenario sc = fixed_base();
      sc.set_reg(6, 0xcafe1234u);
      memop(sc, mn, kVecDataBase + 1);  // misaligned half
      add("misaligned", sc);
      break;
    }
    case Mnemonic::kSt: {
      Scenario sc = fixed_base();
      sc.set_reg(6, 0xcafe1234u);
      memop(sc, mn, kVecDataBase + 2);
      add("misaligned", sc);
      break;
    }
    case Mnemonic::kLdd:
    case Mnemonic::kStd: {
      Scenario sc = fixed_base();
      sc.set_reg(6, 0x11111111u);
      sc.set_reg(7, 0x22222222u);
      memop(sc, mn, kVecDataBase + 8, /*rd=*/7);  // odd rd -> illegal
      add("odd_rd", sc);
      sc = fixed_base();
      sc.set_reg(6, 0x11111111u);
      sc.set_reg(7, 0x22222222u);
      memop(sc, mn, kVecDataBase + 4);  // 4-aligned but not 8
      add("misaligned8", sc);
      break;
    }
    case Mnemonic::kSwap: {
      Scenario sc = fixed_base();
      sc.set_reg(6, 0x55aa55aau);
      memop(sc, mn, kVecDataBase + 1);
      add("misaligned", sc);
      break;
    }
    case Mnemonic::kLdstub: {
      Scenario sc = fixed_base();
      sc.mem[kVecDataBase + 0x40] = 0xab000000u;  // old byte 0xab
      memop(sc, mn, kVecDataBase + 0x40);
      add("sets_ff", sc);
      break;
    }
    case Mnemonic::kLda: case Mnemonic::kLduba: case Mnemonic::kLduha:
    case Mnemonic::kLdda: case Mnemonic::kLdsba: case Mnemonic::kLdsha:
    case Mnemonic::kSta: case Mnemonic::kStba: case Mnemonic::kStha:
    case Mnemonic::kStda: case Mnemonic::kLdstuba: case Mnemonic::kSwapa: {
      Scenario sc = fixed_base();
      sc.psr.s = false;  // alternate space from user mode -> privileged
      sc.set_reg(6, 0x12345678u);
      if (isa::access_size(mn) == 8) sc.set_reg(7, 0x9abcdef0u);
      memop(sc, mn, kVecDataBase + 0x10, /*rd=*/6);
      add("user_privileged", sc);
      if (isa::access_size(mn) == 8) {
        // Odd rd as well: privileged_instruction (V8 priority 6) outranks
        // illegal_instruction (7).
        sc = fixed_base();
        sc.psr.s = false;
        sc.set_reg(6, 0x12345678u);
        sc.set_reg(7, 0x9abcdef0u);
        memop(sc, mn, kVecDataBase + 0x10, /*rd=*/7);
        add("user_oddrd", sc);
      }
      break;
    }
    case Mnemonic::kFpop1: {
      Scenario sc = fixed_base();
      sc.psr.et = false;
      Instruction ins;
      ins.mn = mn;
      ins.opf = 0x41;
      sc.emit(isa::encode(ins));
      add("et0_error_mode", sc);
      break;
    }
    default:
      break;
  }
}

}  // namespace

CorpusFile generate_corpus(Mnemonic mn, u64 seed, int cases) {
  CorpusFile f;
  f.mnemonic = corpus_key(mn);
  f.seed = seed;
  f.cases = cases;
  // One stream per mnemonic so adding a mnemonic never disturbs the
  // others' cases (file-level determinism, not corpus-level ordering).
  u64 sm = seed ^ (0x9e37u + static_cast<u64>(mn) * 0x10001ull);
  Rng rng(splitmix64(sm));
  for (int i = 0; i < cases; ++i) {
    const Scenario sc = random_scenario(mn, rng);
    f.vectors.push_back(
        build_vector(f.mnemonic + "/r" + std::to_string(i), sc));
  }
  add_edges(mn, f.vectors);
  return f;
}

}  // namespace la::conform
