// LEON2-style timed processor model.
//
// This is the CPU the Liquid system actually runs: a single-issue in-order
// integer pipeline with LEON2 instruction latencies, configurable I/D
// caches, a write-through store path with a small write buffer, and all
// memory traffic routed over the AMBA AHB (so SDRAM handshakes, burst
// behaviour, and peripheral access costs all land in the cycle count the
// paper's hardware counter measures).
//
// The instruction semantics are cpu/sparc_semantics.hpp, shared with
// cpu::IntegerUnit; this model owns the timing, caches, bus traffic and
// statistics.  tests/property/cpu_equivalence_test.cpp runs random
// programs through both and requires identical architectural state, which
// checks sequencing, windows, traps and memory across the two.
#pragma once

#include <vector>

#include "bus/ahb.hpp"
#include "cache/cache.hpp"
#include "common/types.hpp"
#include "cpu/config.hpp"
#include "cpu/integer_unit.hpp"  // StepResult + ExecObserver
#include "cpu/state.hpp"
#include "isa/decode_cache.hpp"

namespace la::cpu {

struct PipelineConfig {
  CpuConfig cpu;
  cache::CacheConfig icache{.size_bytes = 1024, .line_bytes = 32, .ways = 1};
  cache::CacheConfig dcache{.size_bytes = 1024, .line_bytes = 32, .ways = 1};
  bool icache_enabled = true;
  bool dcache_enabled = true;
  /// Write buffer entries for the write-through store path; 0 makes every
  /// store wait for its bus write synchronously.
  unsigned write_buffer_depth = 1;
};

struct PipelineStats {
  u64 instructions = 0;
  u64 annulled = 0;
  u64 traps = 0;
  Cycles cycles = 0;
  Cycles icache_stall = 0;   // cycles waiting on instruction line fills
  Cycles dcache_stall = 0;   // cycles waiting on data fills / uncached data
  Cycles store_stall = 0;    // cycles waiting on the write buffer

  // Instruction mix (retired instructions only).
  u64 loads = 0;
  u64 stores = 0;
  u64 branches = 0;        // Bicc (+FB/CB) encountered
  u64 taken_branches = 0;  // control actually transferred
  u64 calls = 0;           // call + jmpl
  u64 muldiv = 0;
};

/// Cacheability decision for an address (the system wires this to its
/// memory map; tests can cache everything).  The decision must be uniform
/// within a cache line: cacheability comes from the memory map per AHB
/// slave, and device ranges are vastly larger than a line.  The fill path
/// relies on this (a whole line is filled by one access), and so does the
/// hot fetch path (a resident line implies its addresses are cacheable).
using CacheableFn = bool (*)(Addr);

class LeonPipeline {
 public:
  /// `clock` is the global cycle counter the pipeline advances; sharing it
  /// with the SDRAM adapter and peripherals keeps one timebase.
  LeonPipeline(const PipelineConfig& cfg, bus::AhbBus& bus, Cycles* clock,
               CacheableFn cacheable);

  void reset(Addr entry);
  StepResult step();
  /// Hot-path form of step(): see IntegerUnit::step_into for the reuse
  /// contract (early-out paths leave `res.ins` untouched).
  void step_into(StepResult& res);
  /// Hottest form: additionally skips filling `res.ins` when no observer
  /// is attached (the observer contract still gets a full result).  Only
  /// for run loops whose callers never read `res.ins`.
  void step_into_hot(StepResult& res);
  u64 run(u64 max_steps, Addr halt_pc = 0xffffffff);

  CpuState& state() { return st_; }

 private:
  /// The per-step half of run(): used when an observer is attached or the
  /// host fast paths are off (the reference configuration).
  u64 run_slow(u64 max_steps, Addr halt_pc);

 public:
  const CpuState& state() const { return st_; }

  cache::Cache& icache() { return icache_; }
  cache::Cache& dcache() { return dcache_; }
  const PipelineStats& stats() const { return stats_; }
  void reset_stats() { stats_ = PipelineStats{}; }

  void set_irq(u8 level) { irq_level_ = level; }
  void set_observer(ExecObserver* obs) { obs_ = obs; }

  /// Fault injection: a wedged CPU burns cycles without fetching or
  /// retiring anything (clock-gating glitch / livelock).  The wedge holds
  /// until cleared or the pipeline is reset; only an external watchdog can
  /// notice.
  void set_wedged(bool wedged) { wedged_ = wedged; }
  bool wedged() const { return wedged_; }

  /// Invalidate both caches (reconfiguration, leon_ctrl restart).
  void flush_caches();

  Cycles now() const { return *clock_; }

  /// LEON cache control register (ASI 2 at address 0).
  u32 cache_control() const;

  const PipelineConfig& config() const { return cfg_; }

  /// Snapshot support: full architectural state (all windows, PSR/WIM/Y,
  /// ASRs, error/wedge flags), the inter-step pipeline latches, both caches,
  /// and the stats.  load_state requires the same architectural
  /// configuration (window count, cache geometry) and invalidates every
  /// host-side fast-path memo; the host switch may differ freely between the
  /// capturing and restoring pipeline.
  void save_state(SnapWriter& w) const;
  bool load_state(SnapReader& r);

 private:
  // --- timed memory paths ---------------------------------------------------
  struct MemResult {
    bool ok = true;
    Cycles cycles = 0;  // stall cycles beyond the base instruction cost
    u64 value = 0;
  };

  /// Fetch the word at `pc`.  When the predecoded mirror has the decoded
  /// form, `predecoded` is pointed at it (valid until the next I-cache
  /// fill); otherwise it is left untouched (caller pre-nulls it).
  /// ifetch_hot() below handles the hit paths; this handles the rest.
  MemResult ifetch(Addr pc, u32& word, const isa::Instruction*& predecoded);

  /// Header-inline zero-stall fetch: ordinary I-cache hit, served from the
  /// predecoded mirror (or the resident bytes when the mirror is stale).
  /// Returns false without touching anything observable when the fetch
  /// needs the full ifetch() path — fast paths off, uncacheable address,
  /// or a miss/poisoned line (lookup_hit touches nothing on those).
  /// No cacheable_() call here: a hit means the line was filled, which
  /// required a cacheable address, and cacheability is line-uniform (see
  /// CacheableFn) — an uncacheable pc can never hit, so the probe itself
  /// is the cacheability check.
  ///
  /// The streak memo (last_iline_/last_islot_/last_igen_) skips even the
  /// tag probe while fetching within one line: it is valid exactly while
  /// the I-cache's content generation is unchanged (no fill, flush,
  /// invalidate, or poison since the memoized hit — see Cache::gen()),
  /// and touch_read_hit applies the identical LRU/stats update the full
  /// probe would have.
  bool ifetch_hot(Addr pc, u32& word, const isa::Instruction*& predecoded) {
    if (!hot_ifetch_) return false;
    const Addr line = pc & ~static_cast<Addr>(iline_mask_);
    if (line == last_iline_ && icache_.gen() == last_igen_) [[likely]] {
      icache_.touch_read_hit(last_islot_);
      predecoded = last_imirror_ + ((pc & iline_mask_) >> 2);
      word = predecoded->raw;
      return true;
    }
    const cache::HitRef h = icache_.lookup_hit(pc);
    if (h.data == nullptr) return false;
    if (imirror_addr_[h.slot] == line) [[likely]] {
      last_iline_ = line;
      last_islot_ = h.slot;
      last_igen_ = icache_.gen();
      last_imirror_ = &imirror_ins_[static_cast<std::size_t>(h.slot)
                                    << iline_words_shift_];
      predecoded = last_imirror_ + ((pc & iline_mask_) >> 2);
      word = predecoded->raw;
      return true;
    }
    // Mirror stale (line filled behind our back): big-endian word from the
    // resident bytes; the access() stats/LRU effects already happened in
    // lookup_hit, so we must not fall back to ifetch().
    const u8* p = h.data + (pc & iline_mask_);
    word = (u32{p[0]} << 24) | (u32{p[1]} << 16) | (u32{p[2]} << 8) | p[3];
    return true;
  }
  MemResult data_read(Addr addr, unsigned size);
  MemResult data_write(Addr addr, unsigned size, u64 value);
  /// Timed burst write of a full line's bytes (dirty victim eviction).
  Cycles writeback_line(Addr addr, const u8* bytes);
  /// Decode the freshly filled I-cache line into the mirror slot.
  void predecode_line(u32 slot, Addr line_addr, const u8* line);

  // --- architectural execution ----------------------------------------------
  /// Shared step body; kCopyIns=false skips the `res.ins` copy (run loops
  /// with no consumer of the decoded form).
  template <bool kCopyIns>
  void step_impl(StepResult& res);
  u8 execute(const isa::Instruction& ins, StepResult& res);
  void take_trap(u8 tt);

  // ASI-mediated cache control (lda/sta with asi 2 at address `ea`);
  // true when it handled the access.
  bool asi_access(const isa::Instruction& ins, Addr ea, StepResult& res);

  PipelineConfig cfg_;
  bus::AhbBus& bus_;
  Cycles* clock_;
  CacheableFn cacheable_;

  cache::Cache icache_;
  cache::Cache dcache_;
  CpuState st_;
  PipelineStats stats_;

  // --- host fast-path state (never affects simulated time/state) ------------
  isa::DecodeCache predecode_;  // word-keyed; see CpuConfig::host_fast_paths
  /// Per-I-cache-slot mirror of the resident line's decoded instructions,
  /// (re)built whenever a line is filled.  `imirror_addr_[slot]` is the
  /// line address the mirror content belongs to (kNoMirrorLine = none);
  /// a fast-path fetch uses it only when the slot's resident line address
  /// matches, so replacement/flush/reload invalidation is implicit: any
  /// event that changes the bytes a fetch can hit goes through a fill,
  /// and the fill refreshes the mirror.
  static constexpr Addr kNoMirrorLine = ~Addr{0};
  std::vector<Addr> imirror_addr_;
  std::vector<isa::Instruction> imirror_ins_;  // num_lines * words_per_line
  /// Fetch-streak memo: the line/slot of the last mirror-served hit and
  /// the I-cache generation it was observed at (see ifetch_hot).
  /// kNoMirrorLine can never be a real line base (pc is word-aligned and
  /// lines are >= 8 bytes), so no separate valid flag is needed.
  Addr last_iline_ = kNoMirrorLine;
  u32 last_islot_ = 0;
  u64 last_igen_ = 0;
  /// Mirror base of the memoized slot (imirror_ins_ never reallocates
  /// after construction, so the pointer stays valid for the object's
  /// lifetime; the gen check governs whether its *contents* are current).
  const isa::Instruction* last_imirror_ = nullptr;
  u32 iline_mask_ = 0;    // icache line_bytes - 1
  u32 iline_words_ = 0;   // icache line_bytes / 4
  u32 iline_words_shift_ = 0;  // log2(iline_words_): mirror slot stride
  u32 dline_mask_ = 0;    // dcache line_bytes - 1
  bool fast_ = false;     // cfg_.cpu.host_fast_paths (hoisted)
  bool hot_ifetch_ = false;  // fast_ && icache_enabled (hoisted)

  bool annul_next_ = false;
  bool wedged_ = false;
  u8 irq_level_ = 0;
  bool cti_taken_ = false;
  Addr cti_target_ = 0;
  Cycles wb_free_at_ = 0;  // when the write buffer can accept a new store
  ExecObserver* obs_ = nullptr;
};

}  // namespace la::cpu
