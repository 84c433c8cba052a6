// Full-node fast-path equivalence: the batched run loop and the CPU fast
// paths must be unobservable through the control protocol — identical
// cycle counts on the Fig 8 cache sweep, and a program LOADed over a
// previously running one (restart → reload at the same addresses) must
// execute the new bytes, not a stale predecoded mirror.
#include <gtest/gtest.h>

#include <string>

#include "ctrl/client.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"

namespace la::test {
namespace {

sim::SystemConfig config_for(bool fast) {
  sim::SystemConfig cfg;
  cfg.pipeline.cpu.host_fast_paths = fast;
  return cfg;
}

/// A program that stores `value` at `result:` and returns to the ROM
/// polling loop (the completion marker leon_ctrl watches for).
std::string store_and_finish(u32 value) {
  return R"(
      .org 0x40000100
  _start:
      set )" + std::to_string(value) + R"(, %g1
      set result, %g2
      st %g1, [%g2]
      jmp 0x40
      nop
      .align 4
  result:
      .skip 4
  )";
}

/// An endless loop at the same load address — the "running program" the
/// reload lands on top of.
const char* kSpin = R"(
    .org 0x40000100
_start:
    set 0, %g1
loop:
    add %g1, 1, %g1
    ba loop
    nop
)";

// --- LOAD over a running program ------------------------------------------

struct LoadOverRun {
  u64 cycles = 0;
  u32 result = 0;
};

LoadOverRun drive_load_over_running(bool fast) {
  LoadOverRun out;
  sim::LiquidSystem node(config_for(fast));
  node.run(300);  // boot into the polling loop
  ctrl::LiquidClient client(node);

  // Start the spinner and let it run long enough to warm the I-cache and
  // (on the fast path) the predecoded mirror over the whole loop.
  const auto spin = sasm::assemble_or_throw(kSpin);
  EXPECT_TRUE(client.load_program(spin));
  EXPECT_TRUE(client.start(spin.entry));
  node.run(20000);
  const auto st = client.status();
  EXPECT_TRUE(st.has_value());
  if (st) {
    EXPECT_EQ(st->state, net::LeonState::kRunning);
  }

  // Loading over the running program is refused — the node is busy.
  const auto prog = sasm::assemble_or_throw(store_and_finish(0xfeedface));
  EXPECT_FALSE(client.load_program(prog));

  // The sanctioned path: restart, reload AT THE SAME ADDRESSES, rerun.
  // The new bytes land behind the processor's back (backdoor load), so a
  // predecoded mirror surviving the restart would execute the old spinner.
  EXPECT_TRUE(client.restart());
  EXPECT_TRUE(client.run_program(prog));
  const auto words = client.read_memory(prog.symbol("result"), 1);
  EXPECT_TRUE(words.has_value());
  if (words) out.result = (*words)[0];
  out.cycles = node.cpu().stats().cycles;
  return out;
}

TEST(FastPathSystem, LoadOverRunningProgram) {
  const LoadOverRun fast = drive_load_over_running(true);
  const LoadOverRun slow = drive_load_over_running(false);
  EXPECT_EQ(fast.result, 0xfeedfaceu);
  EXPECT_EQ(slow.result, 0xfeedfaceu);
  EXPECT_EQ(fast.cycles, slow.cycles);
}

// --- Fig 8 sweep cycle identity --------------------------------------------

/// A scaled-down Fig 7 kernel: strided loads over a 4 KB array with the
/// hardware cycle counter running, result stored at `cycles:`.
std::string fig7_kernel(u32 bound) {
  return R"(
      .org 0x40000100
  _start:
      set 0x80000500, %g1
      mov 1, %g2
      st %g2, [%g1]
      set count, %o0
      mov 0, %o1
      set )" + std::to_string(bound) + R"(, %o2
  loop:
      and %o1, 1023, %o3
      sll %o3, 2, %o3
      ld [%o0 + %o3], %o4
      add %o1, 32, %o1
      cmp %o1, %o2
      bl loop
      nop
      st %g0, [%g1]
      ld [%g1 + 4], %o5
      set cycles, %g3
      st %o5, [%g3]
      jmp 0x40
      nop
      .align 4
  cycles:
      .skip 4
      .align 32
  count:
      .skip 4096
  )";
}

struct SweepPoint {
  u32 counted = 0;   // the hardware counter's reading
  u64 cpu_cycles = 0;
};

SweepPoint drive_sweep_point(bool fast, u32 dcache_bytes) {
  SweepPoint out;
  sim::SystemConfig cfg = config_for(fast);
  cfg.pipeline.dcache.size_bytes = dcache_bytes;
  sim::LiquidSystem node(cfg);
  node.run(300);
  ctrl::LiquidClient client(node);
  const auto img = sasm::assemble_or_throw(fig7_kernel(100000));
  EXPECT_TRUE(client.run_program(img));
  const auto words = client.read_memory(img.symbol("cycles"), 1);
  EXPECT_TRUE(words.has_value());
  if (words) out.counted = (*words)[0];
  out.cpu_cycles = node.cpu().stats().cycles;
  return out;
}

TEST(FastPathSystem, Fig8SweepCyclesIdentical) {
  for (const u32 dcache_bytes : {1024u, 4096u}) {
    const SweepPoint fast = drive_sweep_point(true, dcache_bytes);
    const SweepPoint slow = drive_sweep_point(false, dcache_bytes);
    EXPECT_NE(fast.counted, 0u) << dcache_bytes;
    EXPECT_EQ(fast.counted, slow.counted) << dcache_bytes;
    EXPECT_EQ(fast.cpu_cycles, slow.cpu_cycles) << dcache_bytes;
  }
}

}  // namespace
}  // namespace la::test
