// Property: snapshot/restore is unobservable.  For a grid of random
// kSystem programs (seed count from LA_PROPERTY_SEEDS) x host fast-path
// configurations x flight-recorder armed/off, a node run N steps must be
// bit-identical to the same node snapshotted at step k, the snapshot
// round-tripped through serialize/deserialize (as it would cross
// processes), restored into a *fresh* node — possibly with the opposite
// host configuration — and run the remaining N-k steps.  Identity is
// checked on the full re-snapshot bytes, the program's memory footprint,
// the register file, and every value in the node metrics snapshot.
//
// On divergence with the recorder armed, both nodes' flight rings are
// dumped to the same `.flight.json` path convention the fuzzer uses, so a
// red CI run is debuggable from its artifacts alone.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "ctrl/client.hpp"
#include "fuzz/program_generator.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"
#include "sim/snapshot.hpp"

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

sim::SystemConfig host_config(bool fast, bool recorder) {
  sim::SystemConfig cfg;
  cfg.pipeline.cpu.host_fast_paths = fast;
  cfg.flight_recorder = recorder;
  return cfg;
}

void dump_flight(const std::string& tag, sim::LiquidSystem& node) {
  if (node.flight_recorder() == nullptr) return;
  std::ofstream out(tag + ".flight.json");
  out << node.take_flight_dump("snapshot_divergence");
}

/// One grid cell: capture on an `fast_a` node mid-program, restore into an
/// `fast_b` node, run both the same remaining distance, compare
/// everything.
void check_identity(u64 seed, bool fast_a, bool fast_b, bool recorder) {
  SCOPED_TRACE("seed " + std::to_string(seed) + " fast_a=" +
               std::to_string(fast_a) + " fast_b=" + std::to_string(fast_b) +
               " recorder=" + std::to_string(recorder));

  fuzz::GenOptions opts;
  opts.mode = fuzz::ProgramMode::kSystem;
  opts.instructions = 200;
  fuzz::ProgramGenerator gen(seed);
  const fuzz::ProgramSpec spec = gen.generate(opts);
  sasm::Assembler as;
  const sasm::AsmResult ar = as.assemble(spec.render());
  ASSERT_TRUE(ar.ok) << ar.error_text();
  const sasm::Image& img = ar.image;

  sim::LiquidSystem a(host_config(fast_a, recorder));
  a.run(300);
  ctrl::LiquidClient client(a);
  ASSERT_TRUE(client.load_program(img));
  ASSERT_TRUE(client.start(img.entry));

  // Snapshot mid-flight at a seed-dependent depth, then round-trip the
  // bytes as a cross-process transfer would.
  const u64 k = 500 + (seed * 997) % 4'000;
  a.run(k);
  Bytes wire = a.snapshot().serialize();
  std::string err;
  const auto snap = sim::SystemSnapshot::deserialize(std::move(wire), &err);
  ASSERT_TRUE(snap.has_value()) << err;

  sim::LiquidSystem b(host_config(fast_b, recorder));
  ASSERT_TRUE(b.restore(*snap, &err)) << err;

  const u64 remaining = 40'000;
  a.run(remaining);
  b.run(remaining);

  // Re-snapshot bytes subsume registers, caches, memories, peripherals,
  // and the clock: one comparison, bit granularity.
  const sim::SystemSnapshot fa = a.snapshot();
  const sim::SystemSnapshot fb = b.snapshot();
  if (fa.data != fb.data) {
    dump_flight("snapshot-divergence-seed" + std::to_string(seed) + "-a", a);
    dump_flight("snapshot-divergence-seed" + std::to_string(seed) + "-b", b);
  }
  ASSERT_EQ(fa.data, fb.data) << "restored run diverged from straight run";

  // Belt and braces on the pieces a report would surface: the program's
  // memory footprint, the architectural registers, and the node metrics.
  for (Addr addr = img.base; addr + 4 <= img.end(); addr += 4) {
    ASSERT_EQ(a.sram().backdoor_word(addr), b.sram().backdoor_word(addr))
        << "memory differs at 0x" << std::hex << addr;
  }
  EXPECT_EQ(a.cpu().state().pc, b.cpu().state().pc);
  EXPECT_EQ(a.cpu().state().regs.raw(), b.cpu().state().regs.raw());
  EXPECT_EQ(a.controller().state(), b.controller().state());

  const metrics::Snapshot ma = a.metrics_snapshot();
  const metrics::Snapshot mb = b.metrics_snapshot();
  ASSERT_EQ(ma.values.size(), mb.values.size());
  for (const auto& [name, va] : ma.values) {
    const auto it = mb.values.find(name);
    ASSERT_NE(it, mb.values.end()) << "metric missing after restore: " << name;
    EXPECT_EQ(va, it->second) << "metric diverged: " << name;
  }
}

class SnapshotIdentity : public ::testing::TestWithParam<u64> {};

// The four grid cells cover recorder off/on and both cross-host restores
// (a fast capture resumed on a slow host and vice versa) — snapshots must
// not care how the capturing or restoring host is configured.
TEST_P(SnapshotIdentity, FastToFast) {
  check_identity(GetParam(), true, true, false);
}

TEST_P(SnapshotIdentity, SlowToSlow) {
  check_identity(GetParam(), false, false, false);
}

TEST_P(SnapshotIdentity, FastToSlowRecorderArmed) {
  check_identity(GetParam(), true, false, true);
}

TEST_P(SnapshotIdentity, SlowToFastRecorderArmed) {
  check_identity(GetParam(), false, true, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotIdentity, ::testing::ValuesIn(seeds()));

}  // namespace
}  // namespace la::test
