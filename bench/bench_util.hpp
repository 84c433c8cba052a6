// Shared pieces for the reproduction benches: the paper's Fig 7 kernel,
// helpers for driving measured runs through the full remote-control flow,
// and the machine-readable egress every bench exposes (--metrics-json,
// --perf-trace) so a reproduced table always ships with the registry
// snapshots it was printed from.
#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"
#include "common/span_log.hpp"
#include "common/types.hpp"
#include "sim/liquid_system.hpp"

namespace la::bench {

/// The Fig 7 kernel, faithfully translated:
///
///   _start() { for (i = 0; i < bound; i = i + 32) {
///                  address = i % 1024; x = count[address]; } }
///
/// `count` is a 4 KB int array, so the byte offset is address*4: 32
/// accesses, 128 bytes apart — 1 KB of distinct lines spread over 4 KB.
/// The program starts/stops the hardware cycle counter around the loop
/// (the paper's measurement state machine), stores the reading, and jumps
/// back to the boot ROM's polling loop.
inline std::string fig7_kernel(u32 bound) {
  return R"(
      .org 0x40000100
  _start:
      set 0x80000500, %g1    ! cycle counter
      mov 1, %g2
      st %g2, [%g1]          ! start counting
      set count, %o0
      mov 0, %o1             ! i
      set )" + std::to_string(bound) + R"(, %o2
  loop:
      and %o1, 1023, %o3     ! address = i % 1024
      sll %o3, 2, %o3        ! int indexing: byte offset = address * 4
      ld [%o0 + %o3], %o4    ! x = count[address]
      add %o1, 32, %o1       ! i = i + 32
      cmp %o1, %o2
      bl loop
      nop
      st %g0, [%g1]          ! stop counting
      ld [%g1 + 4], %o5      ! read the measurement
      set cycles, %g3
      st %o5, [%g3]
      jmp 0x40               ! return to the polling loop
      nop
      .align 4
  cycles:
      .skip 4
      .align 32
  count:
      .skip 4096
  )";
}

/// The loop bound the paper's Fig 7 shows truncated ("i < ___0000"); one
/// million gives 31250 iterations, large enough that the initial cache
/// loading the paper excludes is noise.
inline constexpr u32 kPaperBound = 1000000;

/// Observability egress shared by every fig/ablation bench:
///
///   <bench> [--metrics-json FILE] [--perf-trace FILE]
///
/// `--metrics-json` collects one metrics-registry snapshot per measured
/// run (one table row) and writes them as one JSON document.
/// `--perf-trace` attaches each node to one trace::SpanLog, one lane per
/// run, and writes it as a Chrome trace_event file: every node episode a
/// complete span stamped with host µs and its start/end node cycles.
/// Construct at the top of main, attach_perf() each node before driving
/// it, add_run() after each measurement, finish() before returning.
class BenchIo {
 public:
  BenchIo(std::string bench_name, int argc, char** argv)
      : name_(std::move(bench_name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--metrics-json" && i + 1 < argc) {
        metrics_path_ = argv[++i];
      } else if (a == "--perf-trace" && i + 1 < argc) {
        trace_path_ = argv[++i];
      } else {
        std::fprintf(stderr,
                     "%s: unknown argument '%s' (supported: "
                     "--metrics-json FILE, --perf-trace FILE)\n",
                     name_.c_str(), a.c_str());
        bad_args_ = true;
      }
    }
  }

  /// Programmatic form for callers with their own CLI (lsim): the paths
  /// arrive already parsed; empty disables that output.
  BenchIo(std::string bench_name, std::string metrics_path,
          std::string trace_path)
      : name_(std::move(bench_name)),
        metrics_path_(std::move(metrics_path)),
        trace_path_(std::move(trace_path)) {}

  bool bad_args() const { return bad_args_; }
  bool metrics_enabled() const { return !metrics_path_.empty(); }
  bool perf_enabled() const { return !trace_path_.empty(); }

  /// Attach the node to the bench's span log, on the next run's lane,
  /// when --perf-trace was given.
  void attach_perf(sim::LiquidSystem& node) {
    if (perf_enabled()) node.attach_span_log(&spans_, 1, ++lanes_);
  }

  /// Record one measured run from an already-built snapshot — for rollups
  /// that aren't a single node's registry (the farm's fleet merge).
  void add_run(const std::string& label, metrics::Snapshot snap) {
    if (metrics_enabled()) runs_.emplace_back(label, std::move(snap));
  }

  /// Record one measured run: snapshot the node's registry under
  /// `label`, and name its trace lane and detach it (closing open spans).
  void add_run(const std::string& label, sim::LiquidSystem& node) {
    if (metrics_enabled()) {
      runs_.emplace_back(label, node.metrics_snapshot());
    }
    if (perf_enabled()) {
      node.attach_span_log(nullptr);
      spans_.set_thread_name(1, lanes_, label);
    }
  }

  /// Write the requested files; false (with a message) on I/O failure.
  bool finish() {
    bool ok = true;
    if (metrics_enabled()) ok &= write_metrics();
    if (perf_enabled()) {
      spans_.set_process_name(1, name_);
      if (!spans_.write_chrome_json(trace_path_)) {
        std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(),
                     trace_path_.c_str());
        ok = false;
      }
    }
    return ok;
  }

 private:
  bool write_file(const std::string& path, const std::string& text) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "%s: cannot write %s\n", name_.c_str(),
                   path.c_str());
      return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
  }

  bool write_metrics() {
    std::string out = "{\n  \"benchmark\":";
    metrics::append_json_string(out, name_);
    out += ",\n  \"runs\":[";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      out += i ? ",\n    {\"label\":" : "\n    {\"label\":";
      metrics::append_json_string(out, runs_[i].first);
      out += ",\"snapshot\":";
      out += runs_[i].second.to_json(0);
      out += '}';
    }
    out += "\n  ]\n}\n";
    return write_file(metrics_path_, out);
  }

  std::string name_;
  std::string metrics_path_;
  std::string trace_path_;
  bool bad_args_ = false;
  std::vector<std::pair<std::string, metrics::Snapshot>> runs_;
  trace::SpanLog spans_;
  u32 lanes_ = 0;  // runs attached so far; run k traces on tid k
};

}  // namespace la::bench
