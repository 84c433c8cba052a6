// Predecode-mirror invalidation: self-modifying code must behave
// identically with the host fast paths (predecoded I-cache line mirror,
// word-keyed decode cache) on and off — including the architecturally
// stale case, where a store to the line the PC is executing from is NOT
// visible until the line is flushed (LEON caches snoop nothing).
#include <gtest/gtest.h>

#include <string>

#include "pipeline_test_util.hpp"

namespace la::test {
namespace {

/// Self-modifying kernel.  Pass 1 executes `patch:` as `add %g5, 1, %g5`,
/// stores the word at `newins:` (`add %g5, 10, %g5`) over it, optionally
/// flushes the patched line, and loops; pass 2 re-executes `patch:` and
/// exits.  Final %g5: 2 when the second pass fetched the stale cached
/// instruction, 11 when it fetched the patched one.
std::string smc_kernel(bool with_flush) {
  return std::string(R"(
      .org 0x40000100
  _start:
      mov 0, %g5
      mov 0, %g6
      set patch, %o0
      set newins, %o1
      ld [%o1], %o2
  patch:
      add %g5, 1, %g5
      cmp %g6, 1
      be done
      nop
      mov 1, %g6
      st %o2, [%o0]
  )") + (with_flush ? "    flush %o0\n" : "") + R"(
      ba patch
      nop
  newins:
      add %g5, 10, %g5
  done: ba done
      nop
  )";
}

void expect_identical(PipeSys& fast, PipeSys& slow) {
  const cpu::CpuState& a = fast.pipe().state();
  const cpu::CpuState& b = slow.pipe().state();
  EXPECT_EQ(a.pc, b.pc);
  EXPECT_EQ(a.npc, b.npc);
  EXPECT_EQ(a.psr.pack(), b.psr.pack());
  for (u8 r = 0; r < 32; ++r) EXPECT_EQ(a.reg(r), b.reg(r)) << "reg " << +r;
  EXPECT_EQ(fast.clock(), slow.clock());

  const cpu::PipelineStats& sa = fast.pipe().stats();
  const cpu::PipelineStats& sb = slow.pipe().stats();
  EXPECT_EQ(sa.instructions, sb.instructions);
  EXPECT_EQ(sa.annulled, sb.annulled);
  EXPECT_EQ(sa.traps, sb.traps);
  EXPECT_EQ(sa.cycles, sb.cycles);
  EXPECT_EQ(sa.icache_stall, sb.icache_stall);
  EXPECT_EQ(sa.dcache_stall, sb.dcache_stall);
  EXPECT_EQ(sa.store_stall, sb.store_stall);
  EXPECT_EQ(sa.loads, sb.loads);
  EXPECT_EQ(sa.stores, sb.stores);
  EXPECT_EQ(sa.branches, sb.branches);
  EXPECT_EQ(sa.taken_branches, sb.taken_branches);
  EXPECT_EQ(sa.calls, sb.calls);
  EXPECT_EQ(sa.muldiv, sb.muldiv);

  const auto cmp_cache = [](const cache::CacheStats& x,
                            const cache::CacheStats& y) {
    EXPECT_EQ(x.read_hits, y.read_hits);
    EXPECT_EQ(x.read_misses, y.read_misses);
    EXPECT_EQ(x.write_hits, y.write_hits);
    EXPECT_EQ(x.write_misses, y.write_misses);
    EXPECT_EQ(x.evictions, y.evictions);
    EXPECT_EQ(x.writebacks, y.writebacks);
  };
  cmp_cache(fast.pipe().icache().stats(), slow.pipe().icache().stats());
  cmp_cache(fast.pipe().dcache().stats(), slow.pipe().dcache().stats());
}

cpu::PipelineConfig with_fast(cpu::PipelineConfig cfg, bool fast) {
  cfg.cpu.host_fast_paths = fast;
  return cfg;
}

/// Run the kernel under fast and slow paths, assert both agree with each
/// other AND with the architecturally expected %g5.
void check_smc(bool with_flush, const cpu::PipelineConfig& base,
               u32 expect_g5) {
  const std::string src = smc_kernel(with_flush);
  PipeSys fast(src, with_fast(base, true));
  PipeSys slow(src, with_fast(base, false));
  fast.run_to("done");
  slow.run_to("done");
  EXPECT_EQ(fast.g(5), expect_g5);
  EXPECT_EQ(slow.g(5), expect_g5);
  expect_identical(fast, slow);
}

TEST(Predecode, SmcStaleWithoutFlushCacheOn) {
  // The patched line stays resident, so pass 2 executes the old
  // instruction: the mirror must be exactly as stale as the I-cache.
  check_smc(/*with_flush=*/false, cpu::PipelineConfig{}, 2);
}

TEST(Predecode, SmcVisibleAfterFlushCacheOn) {
  // `flush` invalidates the patched I-line; the refill re-reads memory
  // and must re-predecode the line (a stale mirror here would execute
  // the old instruction only on the fast path).
  check_smc(/*with_flush=*/true, cpu::PipelineConfig{}, 11);
}

TEST(Predecode, SmcVisibleImmediatelyCacheOff) {
  // No caches: every fetch goes to memory, so the store is visible on
  // the very next execution of the line, flush or not.
  cpu::PipelineConfig nocache;
  nocache.icache_enabled = false;
  nocache.dcache_enabled = false;
  nocache.write_buffer_depth = 0;
  check_smc(/*with_flush=*/false, nocache, 11);
  check_smc(/*with_flush=*/true, nocache, 11);
}

TEST(Predecode, SmcStaleWithTinyCache) {
  // 128 B / 16 B-line I-cache: the patch loop still fits in four lines,
  // but cross-check under the geometry the fuzz rotation uses.
  cpu::PipelineConfig tiny;
  tiny.icache.size_bytes = 128;
  tiny.icache.line_bytes = 16;
  tiny.dcache.size_bytes = 128;
  tiny.dcache.line_bytes = 16;
  check_smc(/*with_flush=*/false, tiny, 2);
  check_smc(/*with_flush=*/true, tiny, 11);
}

}  // namespace
}  // namespace la::test
