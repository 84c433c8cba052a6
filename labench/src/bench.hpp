// labench: the repository's layered benchmark.
//
// One executable drives three workloads (kernels, farm_zipf, gate_sweep)
// through the public API of src/ and reports end-to-end metrics (untraced
// run) or per-layer metrics (traced run).  Every layer is measured from
// the outside: by timing calls into its public functions and by reading
// the counters and spans the program already exposes.  labench/run.py
// builds this executable and turns its report into the benchmark's
// result line; see labench/README.md for the workloads and metrics.
#pragma once

#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "liquid/arch_config.hpp"
#include "sasm/image.hpp"

namespace labench {

using la::Addr;
using la::u16;
using la::u8;
using la::u32;
using la::u64;

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Nearest-rank percentile (q in [0,1]); 0 for an empty sample.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5);
}

/// Peak resident set size since the last reset_peak_rss() (or process
/// start), in MB: VmHWM of /proc/self/status.
double peak_rss_mb();
/// Hand freed heap memory back to the system, so a measurement starts from
/// the same baseline rather than from what the previous one left cached.
void trim_heap();
/// Restart the peak at the current resident size (/proc/self/clear_refs),
/// so each repeat of a measurement gets its own peak; `trim` calls
/// trim_heap() first.
void reset_peak_rss(bool trim = false);
/// Current resident set size, in MB.
double current_rss_mb();
/// Threads this process runs right now (/proc/self/status).
int thread_count();
/// Host cores available to this process.
int host_cores();

/// What one invocation reports: a verdict, operation counts, named
/// metrics in print order, and notes for the human reading the log.
struct Report {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::string> notes;
  std::string build_type;  // provenance of the binary that measured
  std::string compiler;

  void metric(const std::string& name, double value, const std::string& unit);
  /// A metric reported earlier in this run (NaN when absent).
  double value(const std::string& name) const;
  void note(const std::string& text) { notes.push_back(text); }
  /// One failed operation: counted, and described in the notes (the first
  /// few only, so a systematic failure stays readable).
  void fail(const std::string& what);
  /// An invariant of the run broke (not tied to one operation).
  void invalid(const std::string& why);
  std::string to_json() const;
};

/// One unit of work every layer can run: a program image under an
/// architecture, a readback window and the words it must hold.
struct BenchJob {
  std::string kernel;  // progs/ kernel name, or "gen" for farm-generated
  la::liquid::ArchConfig config;
  std::shared_ptr<const la::sasm::Image> image;
  Addr result_addr = 0;
  u16 result_words = 0;
  std::vector<u32> expected;  // exact readback
  std::string owner = "user0";
  /// Retired kernel instructions from entry to the return into the boot
  /// ROM's polling loop (bare pipeline count; 0 = not known).
  u64 instructions = 0;
  /// Node run cycles (leon_ctrl Start -> polling loop) recorded for this
  /// (kernel, config); 0 = unchecked.
  u64 run_cycles = 0;

  std::string label() const;
};

/// Workload-independent knobs from the command line.
struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string progs = "progs";
  std::string expected = "labench/expected_kernels.tsv";
  double gate_rate = 30;       // gate_sweep open-loop arrivals per second
  double gate_limit_ms = 250;  // goodput latency limit
  bool record = false;         // write the expected-kernels table instead
};

}  // namespace labench
