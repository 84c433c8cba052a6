// Functional SPARC V8 integer unit — the architectural reference model.
//
// Executes one instruction per step() with full V8 semantics: register
// windows, delayed control transfer with annulment, the complete trap
// model (including error mode), multiply/divide with the Y register,
// tagged arithmetic, and the atomic memory operations.
//
// The instruction semantics live in cpu/sparc_semantics.hpp, shared with
// the block engine and the LeonPipeline; this class owns the sequencing,
// the nominal timing (config latencies, no memory stalls) and a flat
// memory port.  The committed conformance corpus (tests/vectors/) is the
// oracle for those semantics; the property tests compare this class with
// the LeonPipeline's caches, bus and timing.
#pragma once

#include <memory>

#include "common/types.hpp"
#include "cpu/config.hpp"
#include "cpu/memory_port.hpp"
#include "cpu/sparc_semantics.hpp"
#include "cpu/state.hpp"
#include "isa/decode.hpp"
#include "isa/decode_cache.hpp"
#include "isa/isa.hpp"
#include "isa/traps.hpp"

namespace la::cpu {

/// What happened during one step() — consumed by tracing and tests.
struct StepResult {
  Addr pc = 0;            // address of the (attempted) instruction
  u32 raw = 0;            // fetched word (0 if the fetch itself faulted)
  isa::Instruction ins;   // decoded form
  bool annulled = false;  // instruction was in an annulled delay slot
  bool trapped = false;   // a trap was taken this step
  u8 tt = 0;              // trap type when trapped
  Cycles cycles = 1;      // nominal cycles charged by the functional model
  // Memory side effects (at most one data access per V8 instruction,
  // except LDD/STD/SWAP/LDSTUB which we report as their primary access).
  bool mem_access = false;
  bool mem_write = false;
  Addr mem_addr = 0;
  u8 mem_size = 0;
};

/// Observer for execution tracing (drives liquid::TraceAnalyzer).
class ExecObserver {
 public:
  virtual ~ExecObserver() = default;
  virtual void on_step(const StepResult& r) = 0;
};

class BlockEngine;

class IntegerUnit {
 public:
  IntegerUnit(const CpuConfig& cfg, MemoryPort& mem);
  ~IntegerUnit();  // out of line: BlockEngine is incomplete here

  CpuState& state() { return st_; }
  const CpuState& state() const { return st_; }
  const CpuConfig& config() const { return cfg_; }

  /// Reset: supervisor mode, traps disabled, PC at `entry`.
  void reset(Addr entry = 0);

  /// Execute one instruction (or take one trap).  No-op in error mode.
  StepResult step();

  /// Hot-path form of step(): writes the result into `res` instead of
  /// materializing a fresh StepResult.  All fields the step produces are
  /// overwritten; on early-out paths (error mode, traps, annulled slots)
  /// `res.ins` keeps its previous contents — callers that reuse one
  /// StepResult across steps (the run loop) must not read it on those
  /// paths.  step() wraps this with a default-constructed result, so its
  /// observable behaviour is unchanged.
  void step_into(StepResult& res);

  /// Run until `steps` instructions retired, error mode, or the PC hits
  /// `halt_pc` (use the address of a self-branch / final instruction).
  /// Returns the number of steps actually executed.
  u64 run(u64 max_steps, Addr halt_pc = 0xffffffff);

  /// Assert an external interrupt at `level` (1..15); 0 clears.
  void set_irq(u8 level) { irq_level_ = level; }

  u64 instret() const { return instret_; }
  Cycles cycle_count() const { return cycles_; }

  /// Trap bookkeeping, identical in every execution mode (maintained by
  /// take_trap itself): how many traps were taken since reset and the tt
  /// of the most recent one.  Lets run()-driven harnesses (the iu-block
  /// conformance leg, the SMC tests) observe traps without an observer.
  u64 trap_count() const { return trap_count_; }
  u8 last_trap_tt() const { return last_tt_; }

  void set_observer(ExecObserver* obs) { obs_ = obs; }

  /// The block translation engine, if any run() call has engaged it
  /// (nullptr otherwise).  Host-side statistics only.
  const BlockEngine* block_engine() const { return block_.get(); }

 private:
  friend class BlockEngine;  // drives execute()/take_trap() on our state
  // Trap entry (v8::enter_trap) plus this model's trap bookkeeping.
  void take_trap(u8 tt);

  // Execute the decoded instruction; returns a pending trap or kNone.
  // On success fills the next-pc pair.
  u8 execute(const isa::Instruction& ins, StepResult& res);

  /// Deliverable external interrupt (the exact between-instructions test
  /// step_into performs; the block dispatcher re-checks it before every
  /// translated op).
  bool irq_pending() const {
    return v8::interrupt_pending(st_.psr, irq_level_);
  }

  CpuConfig cfg_;
  MemoryPort& mem_;
  CpuState st_;
  isa::DecodeCache predecode_;  // host perf only; see host_fast_paths

  bool annul_next_ = false;
  u8 irq_level_ = 0;
  u64 instret_ = 0;
  Cycles cycles_ = 0;
  u64 trap_count_ = 0;
  u8 last_tt_ = 0;
  ExecObserver* obs_ = nullptr;

  // Basic-block translation tier (host perf only; see host_fast_paths).
  // Created lazily by the first observerless run() with the switch on.
  std::unique_ptr<BlockEngine> block_;

  // Set by execute() for control transfers: next npc after the delay slot.
  bool cti_taken_ = false;
  Addr cti_target_ = 0;
};

}  // namespace la::cpu
