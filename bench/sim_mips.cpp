// Host-throughput trajectory bench: how many simulated instructions per
// wall-clock second each execution model sustains, with the host
// fast-path switch (CpuConfig::host_fast_paths) on (the default
// configuration) and off (the per-step reference).
//
// Emits BENCH_sim.json (override with --out), one row per measurement:
//
//   {"model": "integer_unit", "fast_paths": true,
//    "host_mips": 310.7, "cycles_per_sec": 3.9e8,
//    "instructions": 310700000, "secs": 1.0}
//
// `host_mips` is millions of simulated instructions retired per host
// second; `cycles_per_sec` is simulated cycles per host second (the
// number that sizes a wall-clock experiment budget).  The schema is
// documented in docs/PERFORMANCE.md; CI uploads the file as the perf
// trajectory artifact.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bus/ahb.hpp"
#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "cpu/leon_pipeline.hpp"
#include "ctrl/client.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"

namespace {

using namespace la;

using Clock = std::chrono::steady_clock;

bool everything_cacheable(Addr) { return true; }

/// The measured workload: an ALU/branch loop long enough to never finish
/// inside a measurement budget, so every timed step is steady-state user
/// code.  The bare models run it at 0x100; the system copy lives in SDRAM
/// like a real remotely loaded program.
const char* kLoop = R"(
    .org 0x100
_start:
    set 2000000000, %g1
loop:
    subcc %g1, 1, %g1
    xor %g2, %g1, %g2
    add %g3, %g2, %g3
    bne loop
    nop
done: ba done
    nop
)";

const char* kSystemLoop = R"(
    .org 0x40000100
_start:
    set 2000000000, %g1
loop:
    subcc %g1, 1, %g1
    xor %g2, %g1, %g2
    add %g3, %g2, %g3
    bne loop
    nop
done: ba done
    nop
)";

constexpr u64 kChunk = 1 << 16;  // steps per timed slice

struct Row {
  std::string model;
  bool fast_paths = false;
  double host_mips = 0;
  double cycles_per_sec = 0;
  u64 instructions = 0;
  double secs = 0;
};

/// Drive `step_chunk` (which advances the model by kChunk steps and
/// returns retired-instruction and cycle deltas as running totals) until
/// `budget_secs` of wall time passed; convert to rates.
template <typename Body>
Row measure(const std::string& model, bool fast, double budget_secs,
            Body&& body) {
  Row row;
  row.model = model;
  row.fast_paths = fast;
  const auto start = Clock::now();
  u64 instructions = 0;
  u64 cycles = 0;
  double elapsed = 0;
  do {
    body(instructions, cycles);
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < budget_secs);
  row.instructions = instructions;
  row.secs = elapsed;
  row.host_mips = static_cast<double>(instructions) / elapsed / 1e6;
  row.cycles_per_sec = static_cast<double>(cycles) / elapsed;
  return row;
}

Row measure_integer_unit(bool fast, double secs) {
  const auto img = sasm::assemble_or_throw(kLoop);
  cpu::CpuConfig cfg;
  cfg.host_fast_paths = fast;
  cpu::FlatMemory mem(1 << 16);
  mem.load(img.base, img.data);
  cpu::IntegerUnit iu(cfg, mem);
  iu.reset(img.entry);
  return measure("integer_unit", fast, secs, [&](u64& instr, u64& cyc) {
    instr += iu.run(kChunk);
    cyc = iu.cycle_count();
  });
}

Row measure_leon_pipeline(bool fast, double secs) {
  const auto img = sasm::assemble_or_throw(kLoop);
  cpu::PipelineConfig cfg;
  cfg.cpu.host_fast_paths = fast;
  mem::Sram sram(0, 1 << 16);
  sram.backdoor_write(img.base, img.data);
  bus::AhbBus bus;
  bus.attach(0, 1 << 16, &sram);
  Cycles clock = 0;
  cpu::LeonPipeline pipe(cfg, bus, &clock, &everything_cacheable);
  pipe.reset(img.entry);
  return measure("leon_pipeline", fast, secs, [&](u64& instr, u64& cyc) {
    pipe.run(kChunk);
    instr = pipe.stats().instructions;
    cyc = pipe.stats().cycles;
  });
}

Row measure_liquid_system(bool fast, double secs,
                          bool flight_recorder = false) {
  sim::SystemConfig cfg;
  cfg.pipeline.cpu.host_fast_paths = fast;
  cfg.flight_recorder = flight_recorder;
  sim::LiquidSystem sys(cfg);
  sys.run(200);  // boot into the ROM polling loop
  ctrl::LiquidClient client(sys);
  const auto img = sasm::assemble_or_throw(kSystemLoop);
  // The recorder-armed variant gets its own model name so the trajectory
  // file keeps one row per (model, fast_paths) pair.
  const std::string model =
      flight_recorder ? "liquid_system_flight" : "liquid_system";
  Row row;
  if (!client.load_program(img) || !client.start(img.entry)) {
    std::fprintf(stderr, "sim_mips: remote program start failed\n");
    row.model = model;
    row.fast_paths = fast;
    return row;
  }
  return measure(model, fast, secs, [&](u64& instr, u64& cyc) {
    sys.run(kChunk);
    instr = sys.cpu().stats().instructions;
    cyc = sys.cpu().stats().cycles;
  });
}

int usage() {
  std::fprintf(stderr,
               "usage: sim_mips [--out FILE] [--secs N]\n"
               "  --out FILE   output JSON path (default BENCH_sim.json)\n"
               "  --secs N     wall-clock budget per measurement, seconds\n"
               "               (default 1.0; seven measurements total)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sim.json";
  double secs = 1.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (a == "--secs" && i + 1 < argc) {
      secs = std::atof(argv[++i]);
      if (secs <= 0) return usage();
    } else {
      return usage();
    }
  }

  std::vector<Row> rows;
  for (const bool fast : {false, true}) {
    rows.push_back(measure_integer_unit(fast, secs));
    rows.push_back(measure_leon_pipeline(fast, secs));
    rows.push_back(measure_liquid_system(fast, secs));
  }
  // Observability overhead row: the flight recorder armed (sampled retire
  // ring) on the fast path.  The recorder compiled in but *disabled* is
  // the plain liquid_system row above — its cost is one predictable
  // null-pointer branch per batched step.
  rows.push_back(measure_liquid_system(true, secs, /*flight_recorder=*/true));

  std::printf("%-20s %-6s %12s %16s\n", "model", "fast", "host MIPS",
              "cycles/sec");
  for (const Row& r : rows) {
    std::printf("%-20s %-6s %12.2f %16.3e\n", r.model.c_str(),
                r.fast_paths ? "on" : "off", r.host_mips, r.cycles_per_sec);
  }

  FILE* f = std::fopen(out_path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "sim_mips: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "  {\"model\": \"%s\", \"fast_paths\": %s, "
                 "\"host_mips\": %.3f, \"cycles_per_sec\": %.1f, "
                 "\"instructions\": %llu, \"secs\": %.3f}%s\n",
                 r.model.c_str(), r.fast_paths ? "true" : "false",
                 r.host_mips, r.cycles_per_sec,
                 static_cast<unsigned long long>(r.instructions), r.secs,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
