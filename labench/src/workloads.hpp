// The three workloads.  Each runs untraced (end-to-end metrics) or, with
// Options::trace, as the traced run that reports the per-layer metrics.
#pragma once

#include "bench.hpp"

namespace labench {

void run_kernels(const Options& o, Report& rep);
void run_farm_zipf(const Options& o, Report& rep);
void run_gate_sweep(const Options& o, Report& rep);
/// Write the kernels workload's simulated values (run cycles, retired
/// instructions per kernel and configuration) to Options::expected.
int record_kernels(const Options& o);

}  // namespace labench
