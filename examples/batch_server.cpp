// Batch server: the Reconfiguration Server sequencing many users' jobs.
//
// Six users submit programs pinned to different architecture images.
// Reprogramming the FPGA between jobs costs a bitstream download, so the
// scheduler can prefer jobs matching the loaded image (affinity) instead
// of running strict FIFO — the same batch on a 1-node LiquidFarm, two
// schedules, and the simulated wall-clock difference.
#include <cstdio>
#include <string>

#include "farm/farm.hpp"
#include "sasm/assembler.hpp"

namespace {

using namespace la;

sasm::Image workload(u32 seedish) {
  return sasm::assemble_or_throw(R"(
      .org 0x40000100
  _start:
      set )" + std::to_string(seedish) + R"(, %g1
      mov 200, %g2
  loop:
      xor %g1, %g2, %g1
      sll %g1, 1, %g3
      srl %g1, 31, %g1
      or %g1, %g3, %g1
      subcc %g2, 1, %g2
      bne loop
      nop
      set result, %g4
      st %g1, [%g4]
      jmp 0x40
      nop
      .align 4
  result:
      .skip 4
  )");
}

void run_batch(const char* title, farm::FarmPolicy policy) {
  farm::FarmConfig cfg;
  cfg.nodes = 1;
  cfg.scheduler.policy = policy;
  cfg.autostart = false;  // submit the whole batch first, then schedule it
  farm::LiquidFarm farm(cfg);
  farm.pregenerate(liquid::ConfigSpace{});

  const struct {
    const char* owner;
    u32 dcache;
    u32 value;
  } requests[] = {
      {"alice", 1024, 0xa11ce}, {"bob", 4096, 0xb0b},
      {"carol", 1024, 0xca401}, {"dave", 4096, 0xdafe},
      {"erin", 16384, 0xe417},  {"frank", 1024, 0xf4a7c},
  };
  for (const auto& r : requests) {
    farm::FarmJob j;
    j.owner = r.owner;
    j.config.dcache_bytes = r.dcache;
    j.program = workload(r.value);
    j.result_addr = j.program.symbol("result");
    j.result_words = 1;
    if (!farm.submit(std::move(j))) {
      std::fprintf(stderr, "batch_server: %s rejected\n", r.owner);
    }
  }
  farm.start();
  farm.drain();

  std::printf("%s\n", title);
  std::printf("  %-8s %-32s %10s %6s\n", "owner", "image", "cycles", "swap");
  // One node: results arrive in execution order.
  while (auto out = farm.try_pop_result()) {
    std::printf("  %-8s %-32s %10llu %6s\n", out->owner.c_str(),
                out->config_key.c_str(),
                static_cast<unsigned long long>(out->result.cycles),
                out->result.reconfigured ? "yes" : "-");
  }
  const farm::FarmReport rep = farm.report();
  std::printf("  => %llu reconfigurations, %.2f s simulated busy time, "
              "%llu failures\n\n",
              static_cast<unsigned long long>(rep.reconfigurations),
              rep.makespan_seconds,
              static_cast<unsigned long long>(rep.failures));
}

}  // namespace

int main() {
  run_batch("FIFO schedule:", farm::FarmPolicy::kFifo);
  run_batch("affinity (grouped-by-image) schedule:",
            farm::FarmPolicy::kAffinity);
  return 0;
}
