// SystemSnapshot unit tests: round-trip fidelity, versioning/corruption
// rejection, cross-configuration restore, wedge-flag capture, and the
// warm-start pool.  The heavy identity grid (run N == snapshot@k + restore
// + run N-k across seeds x fast paths x recorder) lives in
// tests/property/snapshot_identity_test.cpp.
#include <gtest/gtest.h>

#include "ctrl/client.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"
#include "sim/snapshot.hpp"

namespace la::test {
namespace {

sasm::Image work_program() {
  return sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      mov 300, %o1
      mov 0, %o2
  loop:
      add %o2, %o1, %o2
      subcc %o1, 1, %o1
      bne loop
      nop
      set result, %g1
      st %o2, [%g1]
      jmp 0x40
      nop
      .align 4
  result: .skip 4
  )");
}

/// Boot a node and drive it into the middle of a running program so the
/// snapshot captures non-trivial state (dirty caches, armed watchdog,
/// in-flight run timing).
sim::LiquidSystem& mid_run_node(sim::LiquidSystem& node) {
  node.run(300);
  ctrl::LiquidClient client(node);
  EXPECT_TRUE(client.load_program(work_program()));
  EXPECT_TRUE(client.start(0x40000100));
  node.run(200);  // into the loop, well before completion
  return node;
}

TEST(SystemSnapshot, ResnapshotOfRestoreIsBitIdentical) {
  sim::SystemConfig cfg;
  cfg.watchdog_budget = 1'000'000;
  sim::LiquidSystem a(cfg);
  mid_run_node(a);

  const sim::SystemSnapshot snap = a.snapshot();
  ASSERT_FALSE(snap.empty());
  ASSERT_TRUE(sim::SystemSnapshot::validate(snap.data));

  sim::LiquidSystem b(cfg);
  std::string err;
  ASSERT_TRUE(b.restore(snap, &err)) << err;
  EXPECT_EQ(b.now(), a.now());
  EXPECT_EQ(b.cpu().state().pc, a.cpu().state().pc);
  EXPECT_EQ(b.controller().state(), a.controller().state());
  EXPECT_EQ(b.snapshot().data, snap.data);
}

TEST(SystemSnapshot, SerializeDeserializeRoundTrip) {
  sim::LiquidSystem a;
  a.run(500);
  const sim::SystemSnapshot snap = a.snapshot();

  // Cross-process simulation: only the bytes travel.
  Bytes wire = snap.serialize();
  auto back = sim::SystemSnapshot::deserialize(std::move(wire));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->data, snap.data);

  sim::LiquidSystem b;
  ASSERT_TRUE(b.restore(*back));
  EXPECT_EQ(b.snapshot().data, snap.data);
}

TEST(SystemSnapshot, RestoredRunMatchesStraightRun) {
  sim::SystemConfig cfg;
  sim::LiquidSystem a(cfg);
  mid_run_node(a);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::LiquidSystem b(cfg);
  ASSERT_TRUE(b.restore(snap));

  a.run(5'000);
  b.run(5'000);
  EXPECT_EQ(a.snapshot().data, b.snapshot().data);
  EXPECT_EQ(a.controller().state(), net::LeonState::kDone);
  EXPECT_EQ(b.controller().state(), net::LeonState::kDone);
  const u32 result = work_program().symbol("result");
  EXPECT_EQ(a.sram().backdoor_word(result), b.sram().backdoor_word(result));
  EXPECT_NE(a.sram().backdoor_word(result), 0u);
}

TEST(SystemSnapshot, WedgeFlagSurvivesRestore) {
  sim::LiquidSystem a;
  a.run(300);
  a.cpu().set_wedged(true);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::LiquidSystem b;
  ASSERT_TRUE(b.restore(snap));
  EXPECT_TRUE(b.cpu().wedged());
}

TEST(SystemSnapshot, CrossesHostFastPathConfigurations) {
  sim::SystemConfig fast;
  fast.pipeline.cpu.host_fast_paths = true;
  sim::LiquidSystem a(fast);
  mid_run_node(a);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::SystemConfig slow;
  slow.pipeline.cpu.host_fast_paths = false;
  sim::LiquidSystem b(slow);
  std::string err;
  ASSERT_TRUE(b.restore(snap, &err)) << err;
  // The host switch is not architectural: the recapture is bit-identical even
  // though b runs the reference paths.
  EXPECT_EQ(b.snapshot().data, snap.data);
}

TEST(SystemSnapshot, AdoptsSnapshotPipelineArchitecture) {
  sim::SystemConfig big;
  big.pipeline.dcache.size_bytes = 4096;
  sim::LiquidSystem a(big);
  a.run(400);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::SystemConfig small;  // restoring node booted a different bitstream
  small.pipeline.dcache.size_bytes = 1024;
  sim::LiquidSystem b(small);
  ASSERT_TRUE(b.restore(snap));
  EXPECT_EQ(b.cpu().config().dcache.size_bytes, 4096u);
  EXPECT_EQ(b.snapshot().data, snap.data);
}

TEST(SystemSnapshot, RejectsCorruptionAndVersionSkew) {
  sim::LiquidSystem a;
  a.run(100);
  const sim::SystemSnapshot good = a.snapshot();

  std::string err;
  Bytes flipped = good.data;
  flipped[flipped.size() / 2] ^= 0x40;
  EXPECT_FALSE(sim::SystemSnapshot::validate(flipped, &err));
  EXPECT_EQ(err, "snapshot checksum mismatch");

  Bytes bad_magic = good.data;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(sim::SystemSnapshot::validate(bad_magic, &err));
  EXPECT_EQ(err, "bad snapshot magic");

  Bytes future = good.data;
  future[4] = 0x7f;  // version bytes are little-endian at offset 4
  EXPECT_FALSE(sim::SystemSnapshot::validate(future, &err));
  EXPECT_EQ(err, "unsupported snapshot version");

  EXPECT_FALSE(sim::SystemSnapshot::deserialize(Bytes{1, 2, 3}).has_value());
}

TEST(SystemSnapshot, RejectsMismatchedPlatform) {
  sim::SystemConfig cfg;
  cfg.sdram_size = 1u << 22;
  sim::LiquidSystem a(cfg);
  a.run(100);
  const sim::SystemSnapshot snap = a.snapshot();

  sim::SystemConfig other;
  other.sdram_size = 1u << 21;
  sim::LiquidSystem b(other);
  std::string err;
  EXPECT_FALSE(b.restore(snap, &err));
  EXPECT_EQ(err, "snapshot platform config does not match this system");
}

TEST(SnapshotPool, FirstWriterWinsAndCountsHits) {
  sim::LiquidSystem a;
  a.run(100);
  sim::SnapshotPool pool;
  EXPECT_EQ(pool.get("boot|k1"), nullptr);

  pool.put("boot|k1", a.snapshot());
  a.run(100);
  pool.put("boot|k1", a.snapshot());  // later capture must NOT replace
  EXPECT_EQ(pool.size(), 1u);

  auto sp = pool.get("boot|k1");
  ASSERT_NE(sp, nullptr);
  sim::LiquidSystem b;
  ASSERT_TRUE(b.restore(*sp));

  const auto st = pool.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_GT(pool.bytes(), 0u);
}

/// A tiny stand-in blob: the pool never parses what it holds.
sim::SystemSnapshot blob(u8 tag) {
  sim::SystemSnapshot s;
  s.data = {tag};
  return s;
}

TEST(SnapshotPool, EvictsTheLeastRecentlyUsedEntryAtCapacity) {
  constexpr std::size_t kCap = sim::SnapshotPool::kCapacity;
  sim::SnapshotPool pool;
  for (std::size_t i = 0; i < kCap; ++i) {
    pool.put("k" + std::to_string(i), blob(static_cast<u8>(i)));
  }
  EXPECT_EQ(pool.size(), kCap);
  EXPECT_EQ(pool.stats().evictions, 0u);

  // Inserted in order k0, k1, ...: each new key pushes out the oldest.
  pool.put("new0", blob(0));
  pool.put("new1", blob(1));
  EXPECT_EQ(pool.size(), kCap);
  EXPECT_FALSE(pool.contains("k0"));
  EXPECT_FALSE(pool.contains("k1"));
  EXPECT_TRUE(pool.contains("k2"));
  EXPECT_TRUE(pool.contains("new0"));
  EXPECT_TRUE(pool.contains("new1"));
  const auto st = pool.stats();
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.inserts, kCap + 2);
}

TEST(SnapshotPool, AHitRefreshesItsEntry) {
  constexpr std::size_t kCap = sim::SnapshotPool::kCapacity;
  sim::SnapshotPool pool;
  for (std::size_t i = 0; i < kCap; ++i) {
    pool.put("k" + std::to_string(i), blob(static_cast<u8>(i)));
  }
  // k0 is the oldest insert, but a get() makes it the most recent use;
  // contains() and a losing put() are not uses.
  ASSERT_NE(pool.get("k0"), nullptr);
  EXPECT_TRUE(pool.contains("k1"));
  pool.put("k1", blob(99));
  pool.put("new", blob(0));
  EXPECT_TRUE(pool.contains("k0"));
  EXPECT_FALSE(pool.contains("k1"));
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST(SnapshotPool, OneOffProgramsDoNotEvictABootImage) {
  sim::SnapshotPool pool;
  pool.put("boot|arch", blob(1));
  // 40 one-off post-load images: more than kCapacity, none used again.
  for (int i = 0; i < 40; ++i) {
    pool.put("prog|arch|" + std::to_string(i), blob(static_cast<u8>(i)));
  }
  EXPECT_TRUE(pool.contains("boot|arch"));
  EXPECT_EQ(pool.size(), sim::SnapshotPool::kCapacity);
  EXPECT_FALSE(pool.contains("prog|arch|0"));
  EXPECT_TRUE(pool.contains("prog|arch|39"));
  EXPECT_EQ(pool.stats().evictions, 41u - sim::SnapshotPool::kCapacity);
}

TEST(SnapshotPool, ABootImageIsEvictedWhenNothingElseIsLeft) {
  constexpr std::size_t kCap = sim::SnapshotPool::kCapacity;
  sim::SnapshotPool pool;
  for (std::size_t i = 0; i < kCap; ++i) {
    pool.put("boot|" + std::to_string(i), blob(static_cast<u8>(i)));
  }
  pool.put("prog|x|0", blob(0));
  EXPECT_FALSE(pool.contains("boot|0"));  // the least recently used
  EXPECT_TRUE(pool.contains("boot|1"));
  EXPECT_TRUE(pool.contains("prog|x|0"));
}

}  // namespace
}  // namespace la::test
