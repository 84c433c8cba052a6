// lfuzz — coverage-guided differential fuzzer for the Liquid node.
//
// Random SPARC V8 programs run through three legs (functional
// IntegerUnit, timed LeonPipeline, the full boot-load-run LiquidSystem),
// which share the instruction semantics of cpu/sparc_semantics.hpp but
// sequence, trap and reach memory each their own way; any architectural
// or memory disagreement is a failure, automatically shrunk to a minimal
// .s repro by delta debugging.
//
//   lfuzz --budget-secs 60                  timed campaign (CI smoke)
//   lfuzz --iterations 200 --seed 7         deterministic campaign
//   lfuzz --corpus dir/                     persist + reuse the corpus
//   lfuzz --replay fail.s                   re-run a saved repro
//   lfuzz --inject-bug --iterations 50      self-check: a deliberate SUBX
//                                           fault must be caught+minimized
//   lfuzz --faults --budget-secs 60         fault-injection campaign: every
//                                           injected fault must be masked,
//                                           detected, or latent — a run
//                                           that "succeeds" with silently
//                                           wrong memory is the failure
//
// Exit codes: 0 no divergence, 1 divergence found (or replay diverges),
// 2 usage error.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "ctrl/client.hpp"
#include "fuzz/fault_campaign.hpp"
#include "fuzz/fuzzer.hpp"
#include "gate/frame.hpp"
#include "gate/jobwire.hpp"
#include "sasm/assembler.hpp"

namespace {

using namespace la;

int usage() {
  std::fprintf(
      stderr,
      "usage: lfuzz [options]\n"
      "  --budget-secs N   wall-clock budget (default 10 when no\n"
      "                    --iterations given)\n"
      "  --iterations N    iteration budget (0 = unlimited under a\n"
      "                    time budget)\n"
      "  --seed N          campaign seed (default 1)\n"
      "  --corpus DIR      load and persist corpus entries here\n"
      "  --out DIR         failing repro directory (default lfuzz-out)\n"
      "  --chunks N        body chunks per fresh program (default 120)\n"
      "  --no-system       skip the full-system leg\n"
      "  --no-minimize     keep failing programs unshrunk\n"
      "  --keep-going      collect every divergence instead of stopping\n"
      "                    at the first\n"
      "  --inject-bug      enable the deliberate SUBX carry fault\n"
      "                    (fuzzer self-check; must end with exit 1)\n"
      "  --no-fast-paths   turn the host fast-path switch off on every\n"
      "                    rotation entry (decode cache, block engine,\n"
      "                    line mirror, batched run loop all off) for A/B\n"
      "                    comparison against a default campaign\n"
      "  --replay FILE     differentially execute one .s repro and exit\n"
      "  --faults          run the fault-injection campaign instead of the\n"
      "                    differential fuzzer (exit 1 on any silent\n"
      "                    divergence)\n"
      "  --frames          fuzz the gateway wire codec instead: random\n"
      "                    bytes, mutated frames, and structured round\n"
      "                    trips must never crash the parser, and anything\n"
      "                    accepted must re-serialize identically (exit 1\n"
      "                    on any violation)\n"
      "  --watchdog-budget N  watchdog cycle budget per started program\n"
      "                    in --faults mode (default 2000000)\n"
      "  --metrics-json F  write campaign counters (or, with --replay, the\n"
      "                    replayed node's registry snapshot) to F in the\n"
      "                    bench egress format\n"
      "  --perf-trace F    with --replay on a system-mode program: rerun\n"
      "                    it instrumented and write a Chrome trace to F\n"
      "  --quiet           suppress progress lines\n"
      "\n"
      "configuration rotation (one entry per iteration, round-robin):\n"
      "  entry      icache  dcache     wbuf  nwin  fast-paths\n"
      "  default    1K/32   1K/32 WT   1     8     on\n"
      "  tiny       128/16  128/16 WT  1     8     on\n"
      "  nocache    off     off        0     8     on\n"
      "  wback      1K/32   1K/32 WB   1     8     on\n"
      "  fewwin     1K/32   1K/32 WT   1     3     on\n"
      "  slow       1K/32   1K/32 WT   1     8     off\n"
      "--no-fast-paths forces the fast-paths column off on every entry.\n");
  return 2;
}

/// Campaign-level metrics egress: the printed stats line, machine-readable
/// through the same {benchmark, runs} document the benches write.
int write_campaign_metrics(const std::string& path, const char* label,
                           const std::map<std::string, double>& values) {
  bench::BenchIo io("lfuzz", path, "");
  metrics::Snapshot snap;
  snap.values = values;
  io.add_run(label, std::move(snap));
  return io.finish() ? 0 : 2;
}

int run_faults(const fuzz::FuzzConfig& base, u64 watchdog_budget,
               const std::string& metrics_json) {
  fuzz::FaultCampaignConfig fc;
  fc.seed = base.seed;
  fc.budget_secs = base.budget_secs;
  fc.max_iterations = base.max_iterations;
  fc.stop_on_silent = base.stop_on_divergence;
  fc.minimize_failures = base.minimize_failures;
  fc.out_dir = base.out_dir;
  fc.verbose = base.verbose;
  if (base.program_chunks > 0 && base.program_chunks != 120) {
    fc.program_chunks = base.program_chunks;  // explicitly overridden
  }
  if (watchdog_budget) fc.watchdog_budget = watchdog_budget;

  fuzz::FaultCampaign campaign(fc);
  const int rc = campaign.run();

  const fuzz::FaultCampaignStats& st = campaign.stats();
  std::printf(
      "lfuzz --faults: %llu iterations, %llu faults injected; "
      "%llu masked, %llu detected, %llu latent, %llu SILENT, "
      "%llu skipped\n",
      static_cast<unsigned long long>(st.iterations),
      static_cast<unsigned long long>(st.faults_injected),
      static_cast<unsigned long long>(st.masked),
      static_cast<unsigned long long>(st.detected),
      static_cast<unsigned long long>(st.latent),
      static_cast<unsigned long long>(st.silent),
      static_cast<unsigned long long>(st.skipped));
  for (const fuzz::FaultFailure& f : campaign.failures()) {
    std::printf("  SILENT divergence: %s\n    repro: %s\n    plan:\n%s",
                f.detail.c_str(),
                f.minimized_path.empty() ? f.repro_path.c_str()
                                         : f.minimized_path.c_str(),
                f.plan.to_string().c_str());
  }
  if (!metrics_json.empty()) {
    const int mrc = write_campaign_metrics(
        metrics_json, "faults",
        {{"lfuzz.faults.iterations", static_cast<double>(st.iterations)},
         {"lfuzz.faults.injected", static_cast<double>(st.faults_injected)},
         {"lfuzz.faults.masked", static_cast<double>(st.masked)},
         {"lfuzz.faults.detected", static_cast<double>(st.detected)},
         {"lfuzz.faults.latent", static_cast<double>(st.latent)},
         {"lfuzz.faults.silent", static_cast<double>(st.silent)},
         {"lfuzz.faults.skipped", static_cast<double>(st.skipped)}});
    if (mrc != 0) return mrc;
  }
  return rc;
}

int replay(const std::string& path, const fuzz::FuzzConfig& cfg,
           const std::string& metrics_json, const std::string& perf_trace) {
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    std::fprintf(stderr, "lfuzz: cannot read %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << is.rdbuf();
  const std::string source = buf.str();

  // A system-mode program's epilogue jumps back to the boot ROM polling
  // loop; that jump is the mode marker.
  const bool system_mode = source.find("jmp 0x40") != std::string::npos;

  fuzz::DiffOptions opt;
  opt.with_system = cfg.with_system && system_mode;
  opt.inject_subx_bug = cfg.inject_subx_bug;
  opt.pipeline.cpu.host_fast_paths = !cfg.disable_fast_paths;
  fuzz::DifferentialRunner runner(opt);
  const fuzz::DiffOutcome out = runner.run_source(
      source,
      system_mode ? fuzz::ProgramMode::kSystem : fuzz::ProgramMode::kCore);

  if (!out.asm_ok) {
    std::fprintf(stderr, "lfuzz: %s\n", out.detail.c_str());
    return 2;
  }
  if (out.diverged) {
    std::printf("DIVERGENCE (%s leg): %s\n", out.leg.c_str(),
                out.detail.c_str());
    if (!out.flight_dump.empty()) {
      std::printf("flight-recorder post-mortem:\n%s\n",
                  out.flight_dump.c_str());
    }
    return 1;
  }
  std::printf("ok: %s program, %llu instructions, no divergence%s\n",
              system_mode ? "system-mode" : "core-mode",
              static_cast<unsigned long long>(out.steps),
              out.completed ? "" : " (step budget exhausted)");

  // Observability egress: rerun the program once on an instrumented node
  // and write the requested files (system-mode only — a core-mode program
  // has no defined behaviour under the boot ROM).
  if (!metrics_json.empty() || !perf_trace.empty()) {
    if (!system_mode) {
      std::fprintf(stderr,
                   "lfuzz: --metrics-json/--perf-trace need a system-mode "
                   "repro (core-mode programs never run on the node)\n");
      return 2;
    }
    sasm::Assembler as;
    const sasm::AsmResult ar = as.assemble(source);
    if (!ar.ok) return 2;  // already executed above, cannot happen
    bench::BenchIo io("lfuzz_replay", metrics_json, perf_trace);
    sim::LiquidSystem node;
    io.attach_perf(node);
    node.run(300);
    ctrl::LiquidClient client(node);
    if (!client.run_program(ar.image, opt.system_max_steps)) {
      std::fprintf(stderr, "lfuzz: instrumented rerun failed\n");
      return 2;
    }
    io.add_run("replay", node);
    if (!io.finish()) return 2;
  }
  return 0;
}

/// Gateway wire-codec campaign: the frame parser's total-function contract
/// under three input regimes per iteration — structured round trips,
/// uniformly random bytes, and bit-flipped valid frames.  Violations are
/// (a) a round trip that loses information, (b) an accepted input whose
/// re-serialization differs (parse would not be a partial identity), and
/// (c) a genuinely mutated frame slipping past the checksum.  Crashes and
/// overreads surface as sanitizer aborts in CI's sanitizer lanes.
int run_frames(u64 seed, u64 iterations, int budget_secs, bool verbose,
               const std::string& metrics_json) {
  using gate::GateFrame;
  static constexpr gate::GateKind kKinds[] = {
      gate::GateKind::kHello,      gate::GateKind::kSubmit,
      gate::GateKind::kPoll,       gate::GateKind::kGateStats,
      gate::GateKind::kBye,        gate::GateKind::kHelloOk,
      gate::GateKind::kAccepted,   gate::GateKind::kResult,
      gate::GateKind::kStatsJson,  gate::GateKind::kByeOk,
      gate::GateKind::kRetryAfter, gate::GateKind::kGateError,
  };
  Rng rng(seed ^ 0xf4a3e5ull);
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::seconds(budget_secs);
  u64 iters = 0;
  u64 junk_accepted = 0;
  u64 mutants_refused = 0;
  u64 violations = 0;

  auto fill = [&](Bytes& b) {
    for (auto& x : b) x = static_cast<u8>(rng.below(256));
  };

  while (iterations != 0 ? iters < iterations
                         : std::chrono::steady_clock::now() < deadline) {
    ++iters;
    // 1. Structured round trip: serialize . parse = identity.
    GateFrame f;
    f.kind = kKinds[rng.below(sizeof(kKinds) / sizeof(kKinds[0]))];
    f.token = rng.next_u64();
    f.request_id = rng.next_u64();
    f.trace_id = rng.next_u64();
    f.span_id = rng.next_u64();
    f.payload.resize(rng.below(300));
    fill(f.payload);
    const Bytes wire = f.serialize();
    const auto back = GateFrame::parse(wire);
    if (!back || back->kind != f.kind || back->token != f.token ||
        back->request_id != f.request_id || back->trace_id != f.trace_id ||
        back->span_id != f.span_id || back->payload != f.payload) {
      ++violations;
      std::fprintf(stderr, "lfuzz --frames: round trip lost (iter %llu)\n",
                   static_cast<unsigned long long>(iters));
    }
    // 2. Random bytes: never crash; anything accepted re-serializes
    //    identically.
    Bytes junk(rng.below(static_cast<u32>(wire.size() + 64)), 0);
    fill(junk);
    if (const auto j = GateFrame::parse(junk)) {
      ++junk_accepted;
      if (j->serialize() != junk) {
        ++violations;
        std::fprintf(stderr,
                     "lfuzz --frames: junk accepted but not identical "
                     "(iter %llu)\n",
                     static_cast<unsigned long long>(iters));
      }
    }
    // Random bytes through the payload decoders too (same total-parse
    // contract, no checksum shielding them).
    (void)gate::JobWire::parse(junk);
    (void)gate::ResultWire::parse(junk);
    (void)gate::HelloOkWire::parse(junk);
    (void)gate::RetryAfterWire::parse(junk);
    // 3. Bit-flipped frames: the checksum must catch real mutations.
    Bytes m = wire;
    const unsigned flips = 1 + rng.below(4);
    for (unsigned k = 0; k < flips; ++k) {
      m[rng.below(static_cast<u32>(m.size()))] ^=
          static_cast<u8>(1u << rng.below(8));
    }
    const auto mf = GateFrame::parse(m);
    if (!mf) {
      ++mutants_refused;
    } else if (m != wire) {  // cancelled flips legitimately re-accept
      ++violations;
      std::fprintf(stderr,
                   "lfuzz --frames: mutated frame accepted (iter %llu)\n",
                   static_cast<unsigned long long>(iters));
    }
    if (verbose && iters % 50000 == 0) {
      std::printf("lfuzz --frames: %llu iterations...\n",
                  static_cast<unsigned long long>(iters));
    }
  }

  std::printf(
      "lfuzz --frames: %llu iterations, %llu junk accepts, "
      "%llu mutants refused, %llu violations\n",
      static_cast<unsigned long long>(iters),
      static_cast<unsigned long long>(junk_accepted),
      static_cast<unsigned long long>(mutants_refused),
      static_cast<unsigned long long>(violations));
  if (!metrics_json.empty()) {
    const int mrc = write_campaign_metrics(
        metrics_json, "frames",
        {{"lfuzz.frames.iterations", static_cast<double>(iters)},
         {"lfuzz.frames.junk_accepted", static_cast<double>(junk_accepted)},
         {"lfuzz.frames.mutants_refused",
          static_cast<double>(mutants_refused)},
         {"lfuzz.frames.violations", static_cast<double>(violations)}});
    if (mrc != 0) return mrc;
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  fuzz::FuzzConfig cfg;
  cfg.verbose = true;
  std::string replay_path;
  std::string metrics_json;
  std::string perf_trace;
  bool have_secs = false;
  bool have_iters = false;
  bool faults_mode = false;
  bool frames_mode = false;
  u64 watchdog_budget = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--budget-secs") {
      const char* v = value();
      if (!v) return usage();
      cfg.budget_secs = std::atoi(v);
      have_secs = true;
    } else if (arg == "--iterations") {
      const char* v = value();
      if (!v) return usage();
      cfg.max_iterations = std::strtoull(v, nullptr, 10);
      have_iters = true;
    } else if (arg == "--seed") {
      const char* v = value();
      if (!v) return usage();
      cfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--corpus") {
      const char* v = value();
      if (!v) return usage();
      cfg.corpus_dir = v;
    } else if (arg == "--out") {
      const char* v = value();
      if (!v) return usage();
      cfg.out_dir = v;
    } else if (arg == "--chunks") {
      const char* v = value();
      if (!v) return usage();
      cfg.program_chunks = std::atoi(v);
      if (cfg.program_chunks <= 0) return usage();
    } else if (arg == "--no-system") {
      cfg.with_system = false;
    } else if (arg == "--no-minimize") {
      cfg.minimize_failures = false;
    } else if (arg == "--keep-going") {
      cfg.stop_on_divergence = false;
    } else if (arg == "--inject-bug") {
      cfg.inject_subx_bug = true;
    } else if (arg == "--no-fast-paths") {
      cfg.disable_fast_paths = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--replay") {
      const char* v = value();
      if (!v) return usage();
      replay_path = v;
    } else if (arg == "--faults") {
      faults_mode = true;
    } else if (arg == "--frames") {
      frames_mode = true;
    } else if (arg == "--watchdog-budget") {
      const char* v = value();
      if (!v) return usage();
      watchdog_budget = std::strtoull(v, nullptr, 10);
    } else if (arg == "--metrics-json") {
      const char* v = value();
      if (!v) return usage();
      metrics_json = v;
    } else if (arg == "--perf-trace") {
      const char* v = value();
      if (!v) return usage();
      perf_trace = v;
    } else if (arg == "--quiet") {
      cfg.verbose = false;
    } else {
      std::fprintf(stderr, "lfuzz: unknown option %s\n", arg.c_str());
      return usage();
    }
  }

  if (!replay_path.empty()) {
    return replay(replay_path, cfg, metrics_json, perf_trace);
  }

  if (!perf_trace.empty()) {
    std::fprintf(stderr, "lfuzz: --perf-trace applies to --replay only\n");
    return usage();
  }

  if (!have_secs && !have_iters) cfg.budget_secs = 10;

  if (frames_mode) {
    return run_frames(cfg.seed, cfg.max_iterations, cfg.budget_secs,
                      cfg.verbose, metrics_json);
  }

  if (faults_mode) {
    // The faults campaign defaults its own out dir unless one was given.
    if (cfg.out_dir == "lfuzz-out") cfg.out_dir = "lfuzz-faults-out";
    return run_faults(cfg, watchdog_budget, metrics_json);
  }

  fuzz::Fuzzer fuzzer(cfg);
  const int rc = fuzzer.run();

  const fuzz::FuzzStats& st = fuzzer.stats();
  std::printf(
      "lfuzz: %llu iterations, %llu executions (%llu fresh, %llu mutated, "
      "%llu rejected), corpus %zu, coverage %zu features, "
      "%llu divergences\n",
      static_cast<unsigned long long>(st.iterations),
      static_cast<unsigned long long>(st.executions),
      static_cast<unsigned long long>(st.fresh_inputs),
      static_cast<unsigned long long>(st.mutated_inputs),
      static_cast<unsigned long long>(st.rejected_mutants),
      fuzzer.corpus().size(), fuzzer.coverage().feature_count(),
      static_cast<unsigned long long>(st.divergences));
  for (const fuzz::FuzzFailure& f : fuzzer.failures()) {
    std::printf("  failure (%s leg): %s\n    repro: %s\n",
                f.outcome.leg.c_str(), f.outcome.detail.c_str(),
                f.minimized_path.empty() ? f.repro_path.c_str()
                                         : f.minimized_path.c_str());
  }
  if (!metrics_json.empty()) {
    const int mrc = write_campaign_metrics(
        metrics_json, "fuzz",
        {{"lfuzz.iterations", static_cast<double>(st.iterations)},
         {"lfuzz.executions", static_cast<double>(st.executions)},
         {"lfuzz.fresh_inputs", static_cast<double>(st.fresh_inputs)},
         {"lfuzz.mutated_inputs", static_cast<double>(st.mutated_inputs)},
         {"lfuzz.rejected_mutants", static_cast<double>(st.rejected_mutants)},
         {"lfuzz.corpus", static_cast<double>(fuzzer.corpus().size())},
         {"lfuzz.coverage_features",
          static_cast<double>(fuzzer.coverage().feature_count())},
         {"lfuzz.divergences", static_cast<double>(st.divergences)}});
    if (mrc != 0) return mrc;
  }
  return rc;
}
