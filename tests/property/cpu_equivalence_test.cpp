// The central property test: random programs must leave the functional
// IntegerUnit and the timed LeonPipeline in identical architectural state
// (and identical memory), across pipeline configurations.  Both models take
// their instruction semantics from cpu/sparc_semantics.hpp (the committed
// conformance corpus is the oracle for those), so what this compares is
// what each model does on its own: sequencing and delay slots, window
// rotation, trap entry, and memory through flat storage versus caches and
// the bus.
//
// Programs come from the shared src/fuzz generator (the same one lfuzz
// drives), and the comparison is the shared differential runner — this
// suite is the deterministic, always-on sibling of the fuzzing campaign.
//
// Seed count: LA_PROPERTY_SEEDS environment variable (default 20).  On a
// mismatch the failing seed and the full program are printed so the case
// can be replayed standalone:  save it to repro.s, `lfuzz --replay repro.s`.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fuzz/differential.hpp"
#include "fuzz/program_generator.hpp"

namespace la::test {
namespace {

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

/// Generate one program and run the bare two-way differential under the
/// given pipeline configuration, failing with a replayable report.
void check_equivalence(u64 seed, const cpu::PipelineConfig& pcfg,
                       int chunks) {
  fuzz::GenOptions opts;
  opts.mode = fuzz::ProgramMode::kCore;
  opts.instructions = chunks;
  fuzz::ProgramGenerator gen(seed);
  const fuzz::ProgramSpec spec = gen.generate(opts);

  fuzz::DiffOptions dopt;
  dopt.pipeline = pcfg;
  dopt.with_system = false;  // kCore programs run on the bare models only
  fuzz::DifferentialRunner runner(dopt);
  const fuzz::DiffOutcome out = runner.run(spec);

  ASSERT_TRUE(out.asm_ok) << "seed " << seed
                          << ": generated program failed to assemble:\n"
                          << out.detail;
  EXPECT_TRUE(out.completed)
      << "seed " << seed << ": " << out.detail;
  if (out.diverged) {
    ADD_FAILURE() << "seed " << seed << " diverged on the " << out.leg
                  << " leg: " << out.detail
                  << "\nreplay: save the program below as repro.s and run"
                     " `lfuzz --replay repro.s`\n"
                  << spec.render();
  }
}

class Equivalence : public ::testing::TestWithParam<u64> {};

TEST_P(Equivalence, RandomProgramsMatchDefaultConfig) {
  check_equivalence(GetParam(), cpu::PipelineConfig{}, 300);
}

TEST_P(Equivalence, RandomProgramsMatchTinyCaches) {
  cpu::PipelineConfig pcfg;
  pcfg.icache.size_bytes = 128;
  pcfg.icache.line_bytes = 16;
  pcfg.dcache.size_bytes = 128;
  pcfg.dcache.line_bytes = 16;
  check_equivalence(GetParam() * 7919 + 1, pcfg, 300);
}

TEST_P(Equivalence, RandomProgramsMatchCachesDisabled) {
  cpu::PipelineConfig pcfg;
  pcfg.icache_enabled = false;
  pcfg.dcache_enabled = false;
  pcfg.write_buffer_depth = 0;
  check_equivalence(GetParam() * 104729 + 2, pcfg, 200);
}

TEST_P(Equivalence, RandomProgramsMatchWriteBackCache) {
  cpu::PipelineConfig pcfg;
  pcfg.dcache.write_policy = cache::WritePolicy::kWriteBackAllocate;
  check_equivalence(GetParam() * 31 + 3, pcfg, 300);
}

TEST_P(Equivalence, RandomProgramsMatchFewWindows) {
  cpu::PipelineConfig pcfg;
  pcfg.cpu.nwindows = 3;
  check_equivalence(GetParam() * 17 + 4, pcfg, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Equivalence, ::testing::ValuesIn(seeds()));

}  // namespace
}  // namespace la::test
