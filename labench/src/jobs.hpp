// Job sets the workloads draw from, and the bare-pipeline runner that
// counts a job's retired instructions.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "farm/workload.hpp"

namespace labench {

/// The paper's D-cache sweep (1..16 KB, everything else the baseline).
std::vector<la::liquid::ArchConfig> dcache_sweep();

/// The progs/ library sized for the kernels workload: every kernel at
/// >= ~1 M retired instructions, across the D-cache sweep (7 x 5 jobs, in
/// a fixed order).  Inputs come from a fixed generator, not the run seed,
/// so cycles per (kernel, config) can be recorded and checked.
std::vector<BenchJob> kernel_jobs(const std::string& progs_dir);

/// The gate_sweep request set: progs/ kernels at their default sizes
/// (images small enough for one gateway frame) under two configurations.
std::vector<BenchJob> gate_jobs(const std::string& progs_dir);

/// A farm-generated job, checked against GeneratedJob::expected.
BenchJob from_generated(const la::farm::GeneratedJob& g);

/// Fill run_cycles / instructions from the recorded table; returns the
/// number of jobs it matched (missing rows leave the job unchecked).
std::size_t load_expected(const std::string& path, std::vector<BenchJob>& jobs);
bool write_expected(const std::string& path, const std::vector<BenchJob>& jobs);

struct BareRun {
  bool halted = false;  // reached the polling-loop address
  u64 instructions = 0;
  u64 cycles = 0;
  double ms = 0;
};
/// Run the job's image on a bare LeonPipeline (AHB bus + SRAM, no
/// system, no network) until it jumps back to the boot ROM.
BareRun run_bare(const BenchJob& job);

}  // namespace labench
