// Fast-vs-slow identity regressions: the two divergences the differential
// fuzzer minimized in PR 2 live on here as permanent named cases, replayed
// on all five legs (IntegerUnit / LeonPipeline x fast paths on / off,
// plus the IntegerUnit's run() through the block engine).
// They also exist as committed corpus vectors; this suite keeps them
// independent of the corpus files so a corpus regeneration can never
// silently drop them.
#include <gtest/gtest.h>

#include "conform/generator.hpp"
#include "conform/replay.hpp"
#include "conform/vector.hpp"

namespace la::conform {
namespace {

TestVector edge(isa::Mnemonic mn, const std::string& name) {
  const CorpusFile f = generate_corpus(mn);
  for (const TestVector& v : f.vectors) {
    if (v.name == name) return v;
  }
  ADD_FAILURE() << "missing edge case " << name;
  return TestVector{};
}

TEST(ReproRegressions, SdivInt64MinOverNegOneClampsOnEveryLeg) {
  // Repro 1: Y:rs1 = 0x8000000000000000 / -1.  A naive host `idiv`
  // faults (SIGFPE) and a naive clamp wraps; the architectural result is
  // saturation to +INT32_MAX with no trap.
  const TestVector v = edge(isa::Mnemonic::kSdiv, "sdiv/edge_int64min_repro");
  EXPECT_FALSE(v.ref.trapped);
  ASSERT_TRUE(v.post.regs.count(3));
  EXPECT_EQ(v.post.regs.at(3), 0x7fffffffu);
  for (const Leg leg : kAllLegs) {
    EXPECT_EQ(replay_vector(v, leg), "") << leg_name(leg);
  }
}

TEST(ReproRegressions, SdivccInt64MinOverNegOneClampsOnEveryLeg) {
  // Same dividend through the condition-code variant.
  const TestVector v =
      edge(isa::Mnemonic::kSdivcc, "sdivcc/edge_int64min_repro");
  for (const Leg leg : kAllLegs) {
    EXPECT_EQ(replay_vector(v, leg), "") << leg_name(leg);
  }
}

TEST(ReproRegressions, SubxBorrowChainMatchesOnEveryLeg) {
  // Repro 2: SUBX must consume PSR.c.  The quirk config axis reproduces
  // the original bug on demand; both twins must replay clean, proving
  // every leg honours the vector's own configuration.
  for (const char* name : {"subx/edge_carry_in", "subx/edge_carry_in_quirk"}) {
    const TestVector v = edge(isa::Mnemonic::kSubx, name);
    for (const Leg leg : kAllLegs) {
      EXPECT_EQ(replay_vector(v, leg), "") << name << " " << leg_name(leg);
    }
  }
}

TEST(ReproRegressions, SubxccBorrowChainMatchesOnEveryLeg) {
  const TestVector v = edge(isa::Mnemonic::kSubxcc, "subxcc/edge_carry_in");
  for (const Leg leg : kAllLegs) {
    EXPECT_EQ(replay_vector(v, leg), "") << leg_name(leg);
  }
}

}  // namespace
}  // namespace la::conform
