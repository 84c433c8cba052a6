// labench entry point: parse the options, run one workload, print its
// report as one JSON line on stdout (labench/run.py consumes it).
//
//   labench --workload kernels|farm_zipf|gate_sweep --seed N --seconds S
//           [--trace 0|1] [--progs DIR] [--expected FILE]
//           [--gate-rate R] [--gate-limit-ms L]
//   labench --record [--progs DIR] [--expected FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: labench --workload kernels|farm_zipf|gate_sweep --seed N "
               "--seconds S [--trace 0|1]\n"
               "               [--progs DIR] [--expected FILE] [--gate-rate R] "
               "[--gate-limit-ms L]\n"
               "       labench --record [--progs DIR] [--expected FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  labench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--record") {
      o.record = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--progs") {
      o.progs = v;
    } else if (a == "--expected") {
      o.expected = v;
    } else if (a == "--gate-rate") {
      o.gate_rate = std::strtod(v.c_str(), nullptr);
    } else if (a == "--gate-limit-ms") {
      o.gate_limit_ms = std::strtod(v.c_str(), nullptr);
    } else {
      return usage();
    }
  }
  try {
    if (o.record) return labench::record_kernels(o);
    if (o.seconds <= 0 || o.gate_rate <= 0 || o.gate_limit_ms <= 0) return usage();
    labench::Report rep;
    rep.build_type = LABENCH_BUILD_TYPE;
    rep.compiler = LABENCH_COMPILER;
    if (o.workload == "kernels") {
      labench::run_kernels(o, rep);
    } else if (o.workload == "farm_zipf") {
      labench::run_farm_zipf(o, rep);
    } else if (o.workload == "gate_sweep") {
      labench::run_gate_sweep(o, rep);
    } else {
      return usage();
    }
    std::printf("%s\n", rep.to_json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "labench: %s\n", e.what());
    return 1;
  }
}
