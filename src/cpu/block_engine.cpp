#include "cpu/block_engine.hpp"

#include <algorithm>

#include "cpu/integer_unit.hpp"
#include "cpu/sparc_semantics.hpp"

namespace la::cpu {

using isa::HandlerKind;
using v8::kNoTrap;

// -- Block cache ------------------------------------------------------------

BlockEngine::Block* BlockEngine::lookup(Addr pc) {
  Block* b = l1_[l1_index(pc)];
  if (b != nullptr && b->start == pc) return b;
  auto it = blocks_.find(pc);
  if (it == blocks_.end()) return nullptr;
  b = it->second.get();
  l1_[l1_index(pc)] = b;
  return b;
}

BlockEngine::Block* BlockEngine::translate(IntegerUnit& iu, Addr pc,
                                           Addr halt_pc) {
  // Refuse blocks that could wrap the 32-bit address space mid-trace; the
  // per-step interpreter handles the top few words of memory, if any.
  if (pc >= 0xfffffc00u) return nullptr;
  u32 word = 0;
  if (!iu.mem_.fetch(pc, word)) return nullptr;  // per-step raises the trap

  auto owned = std::make_unique<Block>();
  Block* blk = owned.get();
  blk->start = pc;
  Addr cur = pc;
  // Predigest one op into its 8-byte trace entry (see BlockOp's field
  // contract): inline ALU forms resolve the i-bit into the token choice so
  // the dispatcher never tests it (sethi always carries its shifted
  // immediate); Bicc folds cond/annul/displacement; generic and CTI ops
  // park the full decoded instruction in the block's side table.
  const auto digest = [blk](BlockOp& o, const isa::Instruction& i) {
    if (o.kind == kOpBicc) {
      o.a = static_cast<u8>(i.cond);
      o.b = i.annul ? 1 : 0;
      o.bimm = static_cast<u32>(i.disp) << 2;
      return;
    }
    if (o.kind >= kOpGeneric) {
      o.bimm = static_cast<u32>(blk->insns.size());
      blk->insns.push_back(i);
      return;
    }
    o.a = i.rs1;
    o.b = i.rs2;
    o.d = i.rd;
    if (o.kind == static_cast<u8>(isa::HandlerKind::kSethi)) {
      o.kind = static_cast<u8>(kOpAluImmBase + o.kind);
      o.bimm = v8::sethi(i.imm22);
    } else if (i.imm) {
      o.kind = static_cast<u8>(kOpAluImmBase + o.kind);
      o.bimm = static_cast<u32>(i.simm13);
    }
  };
  for (;;) {
    const isa::Instruction ins = iu.predecode_.lookup(word);
    const isa::HandlerInfo hi = isa::handler_info(ins.mn);
    BlockOp op;
    cur += 4;
    if (hi.ends_block) {
      op.kind = ins.mn == isa::Mnemonic::kBicc ? u8{kOpBicc} : u8{kOpCti};
      digest(op, ins);
      blk->ops.push_back(op);
      // Append the delay slot when it is an ordinary fetchable non-CTI
      // word; otherwise end at the CTI alone and let the sentinel's
      // regularity checks push the odd case (DCTI couple, unfetchable
      // slot) back to the per-step interpreter.
      u32 slot_word = 0;
      if (cur != halt_pc && iu.mem_.fetch(cur, slot_word)) {
        const isa::Instruction slot = iu.predecode_.lookup(slot_word);
        const isa::HandlerInfo shi = isa::handler_info(slot.mn);
        if (!shi.ends_block) {
          // The slot instruction runs through its own (often inline-ALU)
          // handler: a non-CTI slot retires exactly like a straight-line
          // op — pc=npc, npc+=4 — because cti_taken_ is false during the
          // slot step.  An annulment gate is emitted ahead of it only
          // when this CTI can actually annul — a Bicc with the a-bit set;
          // no other trace op ever sets annul_next_, and blocks are never
          // entered with an annulment pending.
          if (ins.mn == isa::Mnemonic::kBicc && ins.annul) {
            BlockOp gate;
            gate.kind = kOpSlotGate;
            blk->ops.push_back(gate);
          }
          BlockOp body;
          body.kind = static_cast<u8>(shi.kind);
          digest(body, slot);
          blk->ops.push_back(body);
          cur += 4;
        }
      }
      break;
    }
    op.kind = static_cast<u8>(hi.kind);
    digest(op, ins);
    blk->ops.push_back(op);
    if (blk->ops.size() >= kMaxBlockOps) break;
    if (cur == halt_pc) break;  // never translate the halt instruction
    if (!iu.mem_.fetch(cur, word)) break;  // next word would fault
  }
  blk->end = cur;
  BlockOp end;
  end.kind = kOpEnd;
  blk->ops.push_back(end);

  blocks_[pc] = std::move(owned);
  l1_[l1_index(pc)] = blk;
  for (u32 page = pc >> kPageShift; page <= (cur - 1) >> kPageShift; ++page) {
    pages_[page].push_back(blk);
  }
  code_lo_ = std::min(code_lo_, pc);
  code_hi_ = std::max(code_hi_, cur);
  ++stat_translated_;
  return blk;
}

void BlockEngine::erase_block(Block* b) {
  for (u32 page = b->start >> kPageShift; page <= (b->end - 1) >> kPageShift;
       ++page) {
    auto it = pages_.find(page);
    if (it == pages_.end()) continue;
    auto& v = it->second;
    v.erase(std::remove(v.begin(), v.end(), b), v.end());
    if (v.empty()) pages_.erase(it);
  }
  Block*& l1 = l1_[l1_index(b->start)];
  if (l1 == b) l1 = nullptr;
  auto it = blocks_.find(b->start);
  if (it != blocks_.end()) {
    // The dispatcher may still be inside this very block when the store
    // that killed it executes; park it until the trace unwinds.
    graveyard_.push_back(std::move(it->second));
    blocks_.erase(it);
  }
}

void BlockEngine::invalidate_store(Addr addr, unsigned size) {
  const u32 first = addr >> kPageShift;
  const u32 last = (addr + size - 1) >> kPageShift;
  for (u32 page = first; page <= last; ++page) {
    auto it = pages_.find(page);
    if (it == pages_.end()) continue;
    const std::vector<Block*> victims = std::move(it->second);
    pages_.erase(it);
    for (Block* b : victims) erase_block(b);
  }
  ++stat_invalidations_;
  ++gen_;  // sever every chain link; survivors re-link on next exit
}

void BlockEngine::flush() {
  blocks_.clear();
  pages_.clear();
  l1_.fill(nullptr);
  graveyard_.clear();
  code_lo_ = ~0u;
  code_hi_ = 0;
  ++gen_;
}

// -- Outer loop -------------------------------------------------------------

u64 BlockEngine::run(IntegerUnit& iu, u64 max_steps, Addr halt_pc) {
  // Translations never outlive one run() call: between calls the harness
  // may rewrite memory behind the core's back (program load, snapshot
  // restore), and only stores the core itself executes are observable to
  // the invalidation hooks.  At run()'s kChunk-style granularity a full
  // retranslation is noise; correctness is unconditional.
  flush();
  u64 n = 0;
  StepResult res;
  CpuState& st = iu.st_;
  while (n < max_steps && !st.error_mode && st.pc != halt_pc) {
    graveyard_.clear();  // safe: the dispatcher has unwound
    if (iu.annul_next_ || st.npc != st.pc + 4 ||
        (iu.irq_level_ != 0 && iu.irq_pending())) {
      // Delay-slot entry, pending annulment, or deliverable interrupt:
      // exactly the per-step interpreter's job.
      iu.step_into(res);
      ++n;
      continue;
    }
    Block* blk = lookup(st.pc);
    if (blk == nullptr) blk = translate(iu, st.pc, halt_pc);
    if (blk == nullptr) {
      iu.step_into(res);  // unfetchable first word: raise the trap there
      ++n;
      continue;
    }
    n += exec(iu, blk, max_steps - n, halt_pc, res);
  }
  return n;
}

// -- Threaded dispatcher ----------------------------------------------------

u64 BlockEngine::exec(IntegerUnit& iu, Block* blk, u64 steps_left,
                      Addr halt_pc, StepResult& res) {
  u64 n = 0;
  CpuState& st = iu.st_;
  const BlockOp* op = blk->ops.data();
  // Architectural pc/npc and the retire counters live in locals across the
  // trace; `st`/`iu` are re-synced only around execute()/take_trap() (which
  // read and may rewrite them) and at every exit.  irq_level_ can only
  // change from outside the core, never mid-trace, so its zero test hoists.
  Addr pc = st.pc;
  Addr npc = st.npc;
  // Retire accounting: the common case (one cycle, one retired
  // instruction per op) rides on `n` alone; the rare paths accumulate
  // deviations — extra cycles for CTIs/generics/traps, missed retires for
  // annulled slots and trap entries — folded back in at exit.
  u64 cyc_extra = 0;
  u64 ret_miss = 0;
  const bool irq_watch = iu.irq_level_ != 0;
  const bool subx_quirk = iu.cfg_.quirk_subx_no_carry;

  // Branch-free register maps for the inline ALU handlers: rp[r]/wp[r]
  // point straight into the register file's backing store for the current
  // window, with %g0 redirected to a constant-zero source and a write
  // sink.  Rebuilt whenever an execute()-backed op changes CWP (save,
  // restore, wrpsr, rett); trap exits leave the trace, so take_trap's CWP
  // decrement never needs one.
  u32 zero_src = 0;
  u32 g0_sink = 0;
  u32* rp[32];
  u32* wp[32];
  unsigned cached_cwp = st.psr.cwp;
  const auto rebuild_regmap = [&](unsigned cwp) {
    u32* base = st.regs.data();
    rp[0] = &zero_src;
    wp[0] = &g0_sink;
    for (unsigned r = 1; r < 32; ++r) {
      u32* p = base + st.regs.slot(cwp, static_cast<u8>(r));
      rp[r] = p;
      wp[r] = p;
    }
  };
  rebuild_regmap(cached_cwp);

// X-macro over the inline ALU handlers, in HandlerKind order.  Each body
// is v8::alu<> of the same-named mnemonic — the function both
// IntegerUnit::execute() and LeonPipeline::execute() call — instantiated
// twice: a register form (B = rs2) and an immediate form (B = simm13, or
// sethi's predigested constant), selected by the translator via the i-bit.
#define LA_BE_ALU_LIST(M)                                                \
  M(kAnd) M(kAndn) M(kOr) M(kXor) M(kXnor) M(kSll) M(kSrl) M(kSra)       \
  M(kSethi) M(kAdd) M(kAddx) M(kSub) M(kSubx) M(kAndcc) M(kOrcc)         \
  M(kXorcc) M(kAddcc) M(kAddxcc) M(kSubcc) M(kSubxcc)

#if defined(__GNUC__) || defined(__clang__)
  // Token-threaded dispatch: one indirect jump per op, no central loop.
  // Table order must match the token numbering: the HandlerKind ALU range,
  // the structural tokens, then the immediate ALU twins at kOpAluImmBase.
#define LA_BE_LABEL_REG(kind) &&lab_##kind,
#define LA_BE_LABEL_IMM(kind) &&lab_##kind##_i,
  static const void* const kLabels[] = {
      LA_BE_ALU_LIST(LA_BE_LABEL_REG)
      &&lab_generic, &&lab_bicc, &&lab_cti, &&lab_slot_gate, &&lab_end,
      LA_BE_ALU_LIST(LA_BE_LABEL_IMM)
  };
#undef LA_BE_LABEL_IMM
#undef LA_BE_LABEL_REG
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kOpKinds);
#define LA_BE_JUMP() goto* kLabels[op->kind]
#else
  // Portable fallback: a jump-table switch reached by every handler.
#define LA_BE_JUMP() goto dispatch
#endif

// Per-op prologue: exactly the conditions the per-step run loop checks
// between instructions.  Exiting BEFORE executing means the outer loop's
// step_into() reproduces interrupts / budget exhaustion / halt exactly.
// The halt test lives at block boundaries only: the translator never emits
// the op at halt_pc, callers never enter a block that starts there, and
// every path that sets pc to a non-sequential address runs through the
// kOpEnd sentinel — so mid-trace pc can never equal halt_pc.
#define LA_BE_PROLOGUE()                                      \
  do {                                                        \
    if (n >= steps_left) goto out_sync;                       \
    if (irq_watch && iu.irq_pending()) goto out_sync;         \
  } while (0)

#define LA_BE_NEXT() \
  do {               \
    ++op;            \
    LA_BE_JUMP();    \
  } while (0)

// Inline ALU handler: the shared v8::alu<> on the mapped registers, then
// the straight-line retire — the translator guarantees npc == pc + 4 on
// every body op.
#define LA_BE_ALU(label, BEXPR, kind)                                    \
  label : {                                                              \
    LA_BE_PROLOGUE();                                                    \
    const u32 A = *rp[op->a];                                            \
    const u32 B = (BEXPR);                                               \
    *wp[op->d] = v8::alu<isa::Mnemonic::kind>(st.psr, A, B, subx_quirk); \
    pc = npc;                                                            \
    npc += 4;                                                            \
    ++n;                                                                 \
    LA_BE_NEXT();                                                        \
  }

#define LA_BE_ALU_REG(kind) LA_BE_ALU(lab_##kind, *rp[op->b], kind)
#define LA_BE_ALU_IMM(kind) LA_BE_ALU(lab_##kind##_i, op->bimm, kind)

  LA_BE_JUMP();

#if !(defined(__GNUC__) || defined(__clang__))
#define LA_BE_CASE_REG(kind) \
  case static_cast<u8>(HandlerKind::kind): goto lab_##kind;
#define LA_BE_CASE_IMM(kind)                                \
  case kOpAluImmBase + static_cast<u8>(HandlerKind::kind):  \
    goto lab_##kind##_i;
dispatch:
  switch (op->kind) {
    LA_BE_ALU_LIST(LA_BE_CASE_REG)
    LA_BE_ALU_LIST(LA_BE_CASE_IMM)
    case kOpGeneric: goto lab_generic;
    case kOpBicc: goto lab_bicc;
    case kOpCti: goto lab_cti;
    case kOpSlotGate: goto lab_slot_gate;
    default: goto lab_end;
  }
#undef LA_BE_CASE_IMM
#undef LA_BE_CASE_REG
#endif

  LA_BE_ALU_LIST(LA_BE_ALU_REG)
  LA_BE_ALU_LIST(LA_BE_ALU_IMM)

lab_generic : {
  // Everything stateful (memory, muldiv, windows, state registers, Ticc)
  // runs through the interpreter's switch — the single semantic truth.
  LA_BE_PROLOGUE();
  res.cycles = 1;
  res.mem_access = false;
  res.mem_write = false;
  iu.cti_taken_ = false;
  st.pc = pc;  // execute()/take_trap() read the architectural pair
  st.npc = npc;
  const u8 tt = iu.execute(blk->insns[op->bimm], res);
  if (tt != kNoTrap) {
    iu.take_trap(tt);
    cyc_extra += iu.cfg_.trap_latency - 1;
    ++ret_miss;  // a trapped step does not retire
    ++n;
    goto out;  // take_trap redirected st.pc/npc (or entered error mode)
  }
  pc = npc;
  npc = iu.cti_taken_ ? iu.cti_target_ : npc + 4;
  cyc_extra += res.cycles - 1;
  ++n;
  if (st.psr.cwp != cached_cwp) {  // save/restore/wrpsr moved the window
    cached_cwp = st.psr.cwp;
    rebuild_regmap(cached_cwp);
  }
  if (res.mem_write && store_hits_code(res.mem_addr, res.mem_size)) {
    invalidate_store(res.mem_addr, res.mem_size);
    goto out_sync;  // this trace may be gone; re-enter from the outer loop
  }
  LA_BE_NEXT();
}

lab_bicc : {
  // Inline integer conditional branch: v8::bicc() decides, as in
  // execute()'s kBicc case.  Predigested: a = cond, b = annul bit,
  // bimm = displacement << 2.
  LA_BE_PROLOGUE();
  const v8::Branch br =
      v8::bicc(st.psr, static_cast<isa::Cond>(op->a), op->b != 0);
  if (br.annul) iu.annul_next_ = true;
  const Addr tgt = pc + op->bimm;
  pc = npc;
  if (br.taken) {
    npc = tgt;
    cyc_extra += iu.cfg_.cti_extra;
  } else {
    npc += 4;
  }
  ++n;
  LA_BE_NEXT();
}

lab_cti : {
  // call / jmpl / rett / fbfcc / cbccc via execute(); none write memory.
  LA_BE_PROLOGUE();
  res.cycles = 1;
  iu.cti_taken_ = false;
  st.pc = pc;  // call/jmpl read pc; rett and trap entry read both
  st.npc = npc;
  const u8 tt = iu.execute(blk->insns[op->bimm], res);
  if (tt != kNoTrap) {
    iu.take_trap(tt);
    cyc_extra += iu.cfg_.trap_latency - 1;
    ++ret_miss;
    ++n;
    goto out;
  }
  pc = npc;
  npc = iu.cti_taken_ ? iu.cti_target_ : npc + 4;
  cyc_extra += res.cycles - 1;
  ++n;
  if (st.psr.cwp != cached_cwp) {  // rett moved the window
    cached_cwp = st.psr.cwp;
    rebuild_regmap(cached_cwp);
  }
  LA_BE_NEXT();
}

lab_slot_gate : {
  // Annulment gate ahead of the delay-slot entry.  An annulled slot
  // retires without executing (and without counting as an instruction) —
  // same bookkeeping as step_into()'s annul path; its fetch outcome
  // cannot have changed since translation because stores into the
  // block's pages invalidate it.  Un-annulled slots fall through to the
  // next trace entry: the slot instruction under its own handler.
  LA_BE_PROLOGUE();
  if (iu.annul_next_) {
    iu.annul_next_ = false;
    pc = npc;
    npc += 4;
    ++ret_miss;  // annulled slots charge a cycle but do not retire
    ++n;
    op += 2;  // skip the slot body; land on the kOpEnd sentinel
    LA_BE_JUMP();
  }
  LA_BE_NEXT();
}

lab_end : {
  // Chain into the successor only from a regular boundary; anything odd
  // (pending annulment, mid-transfer npc) goes back to the outer loop.
  if (iu.annul_next_ || npc != pc + 4 || pc == halt_pc) goto out_sync;
  const Addr target = pc;
  if (target == blk->start) {  // tight loop: this very block, still valid
    op = blk->ops.data();
    LA_BE_JUMP();
  }
  Block* next = nullptr;
  if (blk->chain_addr[0] == target && blk->chain_gen[0] == gen_) {
    next = blk->chain_blk[0];
  } else if (blk->chain_addr[1] == target && blk->chain_gen[1] == gen_) {
    next = blk->chain_blk[1];
  } else {
    next = lookup(target);
    if (next == nullptr) next = translate(iu, target, halt_pc);
    if (next != nullptr) {
      const u8 s = blk->chain_victim;
      blk->chain_addr[s] = target;
      blk->chain_blk[s] = next;
      blk->chain_gen[s] = gen_;
      blk->chain_victim = s ^ 1;
      ++stat_chains_;
    }
  }
  if (next == nullptr) goto out_sync;
  blk = next;
  op = blk->ops.data();
  LA_BE_JUMP();
}

out_sync:
  // Regular exits: the locals are ahead of the architectural pair.  Trap
  // exits skip this — take_trap() already rewrote st.pc/npc (or error mode
  // latched them), and the locals are stale by design.
  st.pc = pc;
  st.npc = npc;
out:
  iu.cycles_ += n + cyc_extra;
  iu.instret_ += n - ret_miss;
  stat_instructions_ += n;
  return n;

#undef LA_BE_ALU_IMM
#undef LA_BE_ALU_REG
#undef LA_BE_ALU
#undef LA_BE_ALU_LIST
#undef LA_BE_NEXT
#undef LA_BE_PROLOGUE
#undef LA_BE_JUMP
}

}  // namespace la::cpu
