#include "conform/replay.hpp"

#include "bus/ahb.hpp"
#include "common/hex.hpp"
#include "conform/generator.hpp"
#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "cpu/leon_pipeline.hpp"
#include "mem/sram.hpp"

namespace la::conform {

const char* leg_name(Leg leg) {
  switch (leg) {
    case Leg::kIuSlow: return "iu-slow";
    case Leg::kIuFast: return "iu-fast";
    case Leg::kIuBlock: return "iu-block";
    case Leg::kPipeSlow: return "pipe-slow";
    case Leg::kPipeFast: return "pipe-fast";
  }
  return "?";
}

bool leg_from_name(const std::string& name, Leg& out) {
  for (const Leg l : kAllLegs) {
    if (name == leg_name(l)) {
      out = l;
      return true;
    }
  }
  return false;
}

namespace {

bool all_cacheable(Addr) { return true; }

/// What a leg produced; compared field-by-field against the vector.
struct RunOutcome {
  ArchState got;
  bool trapped = false;
  u8 tt = 0;
  u64 cycles = 0;
};

void note_trap(RunOutcome& o, const cpu::StepResult& r) {
  if (r.trapped) {
    o.trapped = true;
    o.tt = r.tt;
  }
}

RunOutcome run_iu(const TestVector& v, bool fast) {
  cpu::FlatMemory flat(kVecMemSize, kVecMemBase);
  for (const auto& [a, w] : v.pre.mem) flat.write(a, 4, w);
  for (const auto& [a, w] : v.code) flat.write(a, 4, w);

  cpu::IntegerUnit iu(v.cfg.cpu_config(fast), flat);
  iu.reset(v.pre.pc);
  apply_state(v.pre, iu.state());

  RunOutcome o;
  for (int i = 0; i < v.steps; ++i) note_trap(o, iu.step());
  o.cycles = iu.cycle_count();
  o.got = capture_state(iu.state());
  for (const auto& [a, want] : v.post.mem) {
    (void)want;
    o.got.mem[a] = flat.word_at(a);
  }
  return o;
}

// The block leg drives the observerless run() loop — the only entry point
// that engages the translation engine — and reads the trap outcome from
// the IntegerUnit's own bookkeeping (take_trap counts every trap and
// latches the most recent tt, matching note_trap's last-trap-wins rule).
RunOutcome run_iu_block(const TestVector& v) {
  cpu::FlatMemory flat(kVecMemSize, kVecMemBase);
  for (const auto& [a, w] : v.pre.mem) flat.write(a, 4, w);
  for (const auto& [a, w] : v.code) flat.write(a, 4, w);

  cpu::IntegerUnit iu(v.cfg.cpu_config(true), flat);
  iu.reset(v.pre.pc);
  apply_state(v.pre, iu.state());

  RunOutcome o;
  iu.run(static_cast<u64>(v.steps));
  o.trapped = iu.trap_count() != 0;
  if (o.trapped) o.tt = iu.last_trap_tt();
  o.cycles = iu.cycle_count();
  o.got = capture_state(iu.state());
  for (const auto& [a, want] : v.post.mem) {
    (void)want;
    o.got.mem[a] = flat.word_at(a);
  }
  return o;
}

RunOutcome run_pipe(const TestVector& v, bool fast) {
  mem::Sram sram(kVecMemBase, kVecMemSize);
  bus::AhbBus bus;
  bus.attach(kVecMemBase, kVecMemSize, &sram);
  Cycles clock = 0;

  cpu::PipelineConfig pcfg;
  pcfg.cpu = v.cfg.cpu_config(fast);
  cpu::LeonPipeline pipe(pcfg, bus, &clock, &all_cacheable);
  pipe.reset(v.pre.pc);
  apply_state(v.pre, pipe.state());
  for (const auto& [a, w] : v.pre.mem) sram.backdoor_write_word(a, w);
  for (const auto& [a, w] : v.code) sram.backdoor_write_word(a, w);

  RunOutcome o;
  for (int i = 0; i < v.steps; ++i) note_trap(o, pipe.step());
  pipe.flush_caches();  // write-back configs: memory = architectural view
  o.cycles = pipe.stats().cycles;
  o.got = capture_state(pipe.state());
  for (const auto& [a, want] : v.post.mem) {
    (void)want;
    o.got.mem[a] = sram.backdoor_word(a);
  }
  return o;
}

}  // namespace

std::string replay_vector(const TestVector& v, Leg leg) {
  const bool iu = leg == Leg::kIuSlow || leg == Leg::kIuFast ||
                  leg == Leg::kIuBlock;
  const bool fast = leg == Leg::kIuFast || leg == Leg::kPipeFast;
  const RunOutcome o = leg == Leg::kIuBlock ? run_iu_block(v)
                       : iu                 ? run_iu(v, fast)
                                            : run_pipe(v, fast);

  const std::string tag = v.name + " [" + leg_name(leg) + "] ";
  if (auto d = diff_states(o.got, v.post); !d.empty()) return tag + d;
  if (o.trapped != v.ref.trapped) {
    return tag + "trapped: " + (o.trapped ? "1" : "0") + " vs " +
           (v.ref.trapped ? "1" : "0");
  }
  if (o.trapped && o.tt != v.ref.tt) {
    return tag + "tt: " + hex8(o.tt) + " vs " + hex8(v.ref.tt);
  }
  if (iu && o.cycles != v.ref.cycles) {
    return tag + "cycles: " + std::to_string(o.cycles) + " vs " +
           std::to_string(v.ref.cycles);
  }
  return "";
}

std::string replay_vector_all(const TestVector& v) {
  for (const Leg leg : kAllLegs) {  // all five legs
    if (auto d = replay_vector(v, leg); !d.empty()) return d;
  }
  return "";
}

}  // namespace la::conform
