// Property: the host fast paths are unobservable.  The same random
// program on the same rig must leave LeonPipeline with bit-identical
// architectural state, statistics (cycles included), cache statistics,
// and memory with `CpuConfig::host_fast_paths` on vs off — and leave
// IntegerUnit bit-identical across the three-way grid: reference step(),
// fast step() (decode cache) and fast run() (block engine).
//
// This is the direct fast-vs-slow sibling of cpu_equivalence_test (which
// checks the pipeline against the functional model); programs
// come from the same shared generator, seed count from LA_PROPERTY_SEEDS.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ios>
#include <memory>
#include <string>
#include <vector>

#include "bus/ahb.hpp"
#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "cpu/leon_pipeline.hpp"
#include "fuzz/differential.hpp"  // compare_full
#include "fuzz/program_generator.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"

namespace la::test {
namespace {

constexpr Addr kMemBase = 0x40000000;
constexpr u32 kMemSize = 1u << 20;

bool all_cacheable(Addr) { return true; }

int seed_count() {
  if (const char* env = std::getenv("LA_PROPERTY_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 20;
}

std::vector<u64> seeds() {
  std::vector<u64> v;
  for (int i = 1; i <= seed_count(); ++i) v.push_back(static_cast<u64>(i));
  return v;
}

/// One leg: assemble + run the program to its `done` symbol on a bare
/// SRAM-backed bus, then flush caches so memory holds the architectural
/// contents (write-back configs).
struct Leg {
  explicit Leg(const sasm::Image& img, const cpu::PipelineConfig& cfg)
      : sram(kMemBase, kMemSize), clock(0) {
    sram.backdoor_write(img.base, img.data);
    bus.attach(kMemBase, kMemSize, &sram);
    pipe = std::make_unique<cpu::LeonPipeline>(cfg, bus, &clock,
                                               &all_cacheable);
    pipe->reset(img.entry);
  }

  mem::Sram sram;
  bus::AhbBus bus;
  Cycles clock;
  std::unique_ptr<cpu::LeonPipeline> pipe;
};

void check_seed(u64 seed, cpu::PipelineConfig base, int chunks) {
  fuzz::GenOptions opts;
  opts.mode = fuzz::ProgramMode::kCore;
  opts.instructions = chunks;
  fuzz::ProgramGenerator gen(seed);
  const fuzz::ProgramSpec spec = gen.generate(opts);

  sasm::Assembler as;
  sasm::AsmResult ar = as.assemble(spec.render());
  ASSERT_TRUE(ar.ok) << "seed " << seed << ": " << ar.error_text();
  const sasm::Image& img = ar.image;
  const Addr done = img.symbol(fuzz::kDoneSymbol);
  const u64 budget = 4096 + 16u * (img.data.size() / 4);

  base.cpu.host_fast_paths = true;
  Leg fast(img, base);
  base.cpu.host_fast_paths = false;
  Leg slow(img, base);

  const u64 nf = fast.pipe->run(budget, done);
  const u64 ns = slow.pipe->run(budget, done);
  fast.pipe->flush_caches();
  slow.pipe->flush_caches();

  EXPECT_EQ(nf, ns) << "seed " << seed << ": step counts differ";
  EXPECT_EQ(fast.clock, slow.clock) << "seed " << seed << ": clocks differ";

  const std::string d =
      fuzz::compare_full(fast.pipe->state(), slow.pipe->state());
  EXPECT_TRUE(d.empty()) << "seed " << seed << " state diverged: " << d
                         << "\nprogram:\n"
                         << spec.render();

  const cpu::PipelineStats& sa = fast.pipe->stats();
  const cpu::PipelineStats& sb = slow.pipe->stats();
  EXPECT_EQ(sa.instructions, sb.instructions) << "seed " << seed;
  EXPECT_EQ(sa.annulled, sb.annulled) << "seed " << seed;
  EXPECT_EQ(sa.traps, sb.traps) << "seed " << seed;
  EXPECT_EQ(sa.cycles, sb.cycles) << "seed " << seed;
  EXPECT_EQ(sa.icache_stall, sb.icache_stall) << "seed " << seed;
  EXPECT_EQ(sa.dcache_stall, sb.dcache_stall) << "seed " << seed;
  EXPECT_EQ(sa.store_stall, sb.store_stall) << "seed " << seed;
  EXPECT_EQ(sa.loads, sb.loads) << "seed " << seed;
  EXPECT_EQ(sa.stores, sb.stores) << "seed " << seed;
  EXPECT_EQ(sa.branches, sb.branches) << "seed " << seed;
  EXPECT_EQ(sa.taken_branches, sb.taken_branches) << "seed " << seed;
  EXPECT_EQ(sa.calls, sb.calls) << "seed " << seed;
  EXPECT_EQ(sa.muldiv, sb.muldiv) << "seed " << seed;

  // Cache statistics: lookup_hit must count exactly like access().
  const auto cmp_cache = [seed](const char* which, const cache::CacheStats& x,
                                const cache::CacheStats& y) {
    EXPECT_EQ(x.read_hits, y.read_hits) << "seed " << seed << " " << which;
    EXPECT_EQ(x.read_misses, y.read_misses)
        << "seed " << seed << " " << which;
    EXPECT_EQ(x.write_hits, y.write_hits) << "seed " << seed << " " << which;
    EXPECT_EQ(x.write_misses, y.write_misses)
        << "seed " << seed << " " << which;
    EXPECT_EQ(x.evictions, y.evictions) << "seed " << seed << " " << which;
    EXPECT_EQ(x.writebacks, y.writebacks) << "seed " << seed << " " << which;
  };
  cmp_cache("icache", fast.pipe->icache().stats(),
            slow.pipe->icache().stats());
  cmp_cache("dcache", fast.pipe->dcache().stats(),
            slow.pipe->dcache().stats());

  // Memory: the whole image footprint, word by word.
  for (Addr a = img.base; a + 4 <= img.end(); a += 4) {
    u64 vf = 0;
    u64 vs = 0;
    ASSERT_TRUE(fast.sram.debug_read(a, 4, vf));
    ASSERT_TRUE(slow.sram.debug_read(a, 4, vs));
    ASSERT_EQ(vf, vs) << "seed " << seed << ": memory differs at 0x"
                      << std::hex << a;
  }
}

// ---- IntegerUnit: reference step() / fast step() / fast run() grid ----

/// One functional-model leg on flat memory.
struct IuLeg {
  IuLeg(const sasm::Image& img, bool fast) : mem(kMemSize, kMemBase) {
    mem.load(img.base, img.data);
    cpu::CpuConfig cfg;
    cfg.host_fast_paths = fast;
    iu = std::make_unique<cpu::IntegerUnit>(cfg, mem);
    iu->reset(img.entry);
  }

  /// run()'s loop spelled out over step(), so the leg never reaches the
  /// block engine (step() is the decode-cache entry point).
  u64 step_until(u64 max_steps, Addr halt_pc) {
    u64 n = 0;
    while (n < max_steps && !iu->state().error_mode &&
           iu->state().pc != halt_pc) {
      iu->step();
      ++n;
    }
    return n;
  }

  cpu::FlatMemory mem;
  std::unique_ptr<cpu::IntegerUnit> iu;
};

void check_iu_seed(u64 seed, int chunks) {
  fuzz::GenOptions opts;
  opts.mode = fuzz::ProgramMode::kCore;
  opts.instructions = chunks;
  fuzz::ProgramGenerator gen(seed);
  const fuzz::ProgramSpec spec = gen.generate(opts);

  sasm::Assembler as;
  sasm::AsmResult ar = as.assemble(spec.render());
  ASSERT_TRUE(ar.ok) << "seed " << seed << ": " << ar.error_text();
  const sasm::Image& img = ar.image;
  const Addr done = img.symbol(fuzz::kDoneSymbol);
  const u64 budget = 4096 + 16u * (img.data.size() / 4);

  IuLeg slow(img, /*fast=*/false);
  IuLeg fast(img, /*fast=*/true);
  IuLeg block(img, /*fast=*/true);

  const u64 ns = slow.step_until(budget, done);
  const u64 nf = fast.step_until(budget, done);
  const u64 nb = block.iu->run(budget, done);

  EXPECT_EQ(ns, nf) << "seed " << seed << ": slow/fast step counts differ";
  EXPECT_EQ(ns, nb) << "seed " << seed << ": slow/block step counts differ";

  const auto check_against_slow = [&](const char* which, const IuLeg& leg) {
    const std::string d =
        fuzz::compare_full(slow.iu->state(), leg.iu->state());
    EXPECT_TRUE(d.empty()) << "seed " << seed << " slow/" << which
                           << " state diverged: " << d << "\nprogram:\n"
                           << spec.render();
    EXPECT_EQ(slow.iu->cycle_count(), leg.iu->cycle_count())
        << "seed " << seed << " slow/" << which << ": cycles differ";
    EXPECT_EQ(slow.iu->instret(), leg.iu->instret())
        << "seed " << seed << " slow/" << which << ": instret differs";
    EXPECT_EQ(slow.iu->trap_count(), leg.iu->trap_count())
        << "seed " << seed << " slow/" << which << ": trap counts differ";
    // Memory: the whole image footprint, word by word.
    for (Addr a = img.base; a + 4 <= img.end(); a += 4) {
      ASSERT_EQ(slow.mem.word_at(a), leg.mem.word_at(a))
          << "seed " << seed << " slow/" << which
          << ": memory differs at 0x" << std::hex << a;
    }
  };
  check_against_slow("fast", fast);
  check_against_slow("block", block);
}

class FastPathEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(FastPathEquivalence, DefaultConfig) {
  check_seed(GetParam(), cpu::PipelineConfig{}, 300);
}

TEST_P(FastPathEquivalence, IntegerUnitThreeWay) {
  check_iu_seed(GetParam(), 300);
}

TEST_P(FastPathEquivalence, IntegerUnitThreeWayLong) {
  // Longer programs exercise block chaining and re-translation harder.
  check_iu_seed(GetParam() * 48271 + 5, 900);
}

TEST_P(FastPathEquivalence, TinyCaches) {
  cpu::PipelineConfig pcfg;
  pcfg.icache.size_bytes = 128;
  pcfg.icache.line_bytes = 16;
  pcfg.dcache.size_bytes = 128;
  pcfg.dcache.line_bytes = 16;
  check_seed(GetParam() * 7919 + 1, pcfg, 300);
}

TEST_P(FastPathEquivalence, CachesDisabled) {
  cpu::PipelineConfig pcfg;
  pcfg.icache_enabled = false;
  pcfg.dcache_enabled = false;
  pcfg.write_buffer_depth = 0;
  check_seed(GetParam() * 104729 + 2, pcfg, 200);
}

TEST_P(FastPathEquivalence, WriteBackCache) {
  cpu::PipelineConfig pcfg;
  pcfg.dcache.write_policy = cache::WritePolicy::kWriteBackAllocate;
  check_seed(GetParam() * 31 + 3, pcfg, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathEquivalence,
                         ::testing::ValuesIn(seeds()));

}  // namespace
}  // namespace la::test
