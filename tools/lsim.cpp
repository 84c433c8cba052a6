// lsim — command-line driver for the Liquid Architecture simulator.
//
// The "User Interface" box of Fig 1: assemble a SPARC V8 source file, load
// it into the simulated FPX node over the control network, run it under a
// chosen architecture image, and report what happened.
//
//   lsim prog.s                         run with the paper's baseline
//   lsim --dcache 4096 prog.s           pick a cache geometry
//   lsim --sweep prog.s                 run across the Fig 8 image space
//   lsim --trace prog.s                 profile + print the trace report
//   lsim --recommend prog.s             let the analyzer pick an image
//   lsim --read symbol prog.s           read a result word back by symbol
//   lsim --disasm prog.s                print the assembled listing, exit
//   lsim --report prog.s                full system statistics afterwards
#include <cstdio>
#include <iostream>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "common/prometheus.hpp"
#include "ctrl/client.hpp"
#include "isa/disasm.hpp"
#include "liquid/adaptation.hpp"
#include "sasm/assembler.hpp"
#include "sasm/runtime.hpp"
#include "sasm/srec.hpp"
#include "sim/debug_shell.hpp"
#include "sim/report.hpp"

namespace {

using namespace la;

struct Options {
  std::string source_path;
  u32 dcache = 1024;
  u32 icache = 1024;
  u32 line = 32;
  u32 ways = 1;
  bool sweep = false;
  bool trace = false;
  bool recommend = false;
  bool disasm = false;
  bool report = false;
  bool emit_srec = false;
  bool debug = false;
  bool with_runtime = false;
  std::string read_symbol;
  std::string metrics_json;  // --metrics-json FILE
  std::string perf_trace;    // --perf-trace FILE
  std::string prom;          // --prom FILE
  u64 max_steps = 50'000'000;
};

int usage() {
  std::fprintf(stderr,
               "usage: lsim [options] program.s\n"
               "  --dcache N     data cache bytes (default 1024)\n"
               "  --icache N     instruction cache bytes (default 1024)\n"
               "  --line N       cache line bytes (default 32)\n"
               "  --ways N       cache associativity (default 1)\n"
               "  --sweep        run across the 1..16KB image space\n"
               "  --trace        stream + print the execution profile\n"
               "  --recommend    print the analyzer's image choice\n"
               "  --read SYM     read one result word at symbol SYM\n"
               "  --disasm       print the assembled listing and exit\n"
               "  --report       print full system statistics\n"
               "  --srec         print the image as S-records and exit\n"
               "  --debug        interactive debugger (b/c/s/regs/x/...)\n"
               "  --runtime      link the runtime (trap table, window\n"
               "                 handlers, rt_init) into the program\n"
               "  --metrics-json F  write the metrics-registry snapshot(s)\n"
               "                 of the run(s) to F as JSON\n"
               "  --perf-trace F write the run(s)' node spans (host us +\n"
               "                 node cycles) to F as Chrome trace_event\n"
               "  --prom F       write the run(s)' metrics as Prometheus\n"
               "                 text exposition to F (textfile collector)\n"
               "  (a .srec input file is loaded instead of assembled)\n");
  return 2;
}

liquid::ArchConfig config_of(const Options& o) {
  liquid::ArchConfig c;
  c.dcache_bytes = o.dcache;
  c.icache_bytes = o.icache;
  c.icache_line = c.dcache_line = o.line;
  c.icache_ways = c.dcache_ways = o.ways;
  return c;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  return static_cast<bool>(out);
}

int run_one(const Options& opt, const sasm::Image& img) {
  liquid::SynthesisModel syn;
  liquid::ReconfigurationCache cache;
  bench::BenchIo io("lsim", "", opt.perf_trace);
  sim::LiquidSystem node;
  io.attach_perf(node);
  node.run(100);
  liquid::ServerConfig scfg;
  scfg.stream_traces = opt.trace || opt.recommend;
  liquid::ReconfigurationServer server(node, cache, syn, scfg);

  const liquid::ArchConfig cfg = config_of(opt);
  if (!cfg.valid()) {
    std::fprintf(stderr, "invalid cache configuration\n");
    return 2;
  }

  Addr read_addr = 0;
  u16 read_words = 0;
  if (!opt.read_symbol.empty()) {
    try {
      read_addr = img.symbol(opt.read_symbol);
      read_words = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  liquid::TraceAnalyzer analyzer;
  const liquid::JobResult r = server.run_job(
      cfg, img, read_addr, read_words,
      (opt.trace || opt.recommend) ? &analyzer : nullptr);
  if (!r.ok) {
    std::fprintf(stderr, "run failed: %s\n", r.error.c_str());
    return 1;
  }

  const double fmax = syn.estimate(cfg).fmax_mhz;
  std::printf("image %s\n", cfg.key().c_str());
  std::printf("ran in %llu cycles (%.1f us at %.0f MHz)\n",
              static_cast<unsigned long long>(r.cycles),
              static_cast<double>(r.cycles) / fmax, fmax);
  if (read_words > 0) {
    std::printf("%s = 0x%08x (%u)\n", opt.read_symbol.c_str(),
                r.readback.at(0), r.readback.at(0));
  }

  if (opt.trace || opt.recommend) {
    const liquid::TraceReport t = analyzer.report();
    std::printf(
        "\nprofile: %llu instructions, %llu loads, %llu stores, "
        "%llu multiplies\n",
        static_cast<unsigned long long>(t.instructions),
        static_cast<unsigned long long>(t.loads),
        static_cast<unsigned long long>(t.stores),
        static_cast<unsigned long long>(t.multiplies));
    std::printf("data working set %llu B, code footprint %llu B, "
                "dominant stride %lld\n",
                static_cast<unsigned long long>(t.data_working_set_bytes),
                static_cast<unsigned long long>(t.code_footprint_bytes),
                static_cast<long long>(t.dominant_stride));
    if (!t.hot_pcs.empty()) {
      std::printf("hottest pc 0x%08x (%llu executions)\n",
                  t.hot_pcs[0].first,
                  static_cast<unsigned long long>(t.hot_pcs[0].second));
    }
    if (opt.recommend) {
      const auto rec = analyzer.recommend(liquid::ConfigSpace{});
      std::printf("\nrecommended image: %s\n", rec.key().c_str());
    }
  }

  if (opt.report) std::printf("\n%s", sim::system_report(node).c_str());

  if (!opt.metrics_json.empty() &&
      !write_text_file(opt.metrics_json, sim::system_report_json(node))) {
    std::fprintf(stderr, "cannot write %s\n", opt.metrics_json.c_str());
    return 1;
  }
  io.add_run(cfg.key(), node);
  if (!io.finish()) return 1;
  if (!opt.prom.empty() &&
      !write_text_file(opt.prom, metrics::to_prometheus(
                                     node.metrics_snapshot(), "liquid_"))) {
    std::fprintf(stderr, "cannot write %s\n", opt.prom.c_str());
    return 1;
  }
  return 0;
}

int run_debug([[maybe_unused]] const Options& opt, const sasm::Image& img) {
  sim::LiquidSystem node;
  node.run(100);
  // Load and arm the program without running it: the shell owns execution.
  {
    ctrl::LiquidClient client(node);
    if (!client.load_program(img)) {
      std::fprintf(stderr, "load failed\n");
      return 1;
    }
    net::UdpDatagram d;
    d.src_ip = net::make_ip(10, 0, 0, 9);
    d.src_port = 9;
    d.dst_ip = node.config().node_ip;
    d.dst_port = node.config().node_port;
    d.payload = net::StartCmd{img.entry}.serialize();
    node.ingress_frame(net::build_udp_packet(d));
  }
  std::printf("program armed at 0x%08x; type 'help' for commands\n",
              img.entry);
  sim::DebugShell shell(node, &img);
  std::string line;
  std::printf("(lsim) ");
  std::fflush(stdout);
  while (!shell.quit_requested() && std::getline(std::cin, line)) {
    std::fputs(shell.execute(line).c_str(), stdout);
    if (shell.quit_requested()) break;
    std::printf("(lsim) ");
    std::fflush(stdout);
  }
  return 0;
}

int run_sweep(const Options& opt, const sasm::Image& img) {
  liquid::SynthesisModel syn;
  liquid::ReconfigurationCache cache;
  cache.pregenerate(liquid::ConfigSpace{}, syn);

  Addr read_addr = 0;
  u16 read_words = 0;
  if (!opt.read_symbol.empty()) {
    try {
      read_addr = img.symbol(opt.read_symbol);
      read_words = 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  }

  bench::BenchIo io("lsim_sweep", opt.metrics_json, opt.perf_trace);
  std::vector<std::pair<std::string, metrics::Snapshot>> prom_runs;
  std::printf("%-8s %12s %12s\n", "dcache", "cycles", "readback");
  for (const auto& cfg : liquid::ConfigSpace{}.enumerate()) {
    sim::LiquidSystem node;
    io.attach_perf(node);
    node.run(100);
    liquid::ReconfigurationServer server(node, cache, syn);
    const auto r = server.run_job(cfg, img, read_addr, read_words);
    if (!r.ok) {
      std::printf("%4uKB   FAILED: %s\n", cfg.dcache_bytes / 1024,
                  r.error.c_str());
      continue;
    }
    const std::string readback =
        read_words ? std::to_string(r.readback.at(0)) : std::string("-");
    std::printf("%4uKB   %12llu %12s\n", cfg.dcache_bytes / 1024,
                static_cast<unsigned long long>(r.cycles),
                readback.c_str());
    io.add_run(cfg.key(), node);
    if (!opt.prom.empty()) {
      prom_runs.emplace_back(cfg.key(), node.metrics_snapshot());
    }
  }
  if (!opt.prom.empty()) {
    // One exposition, every image's run distinguished by an image label.
    std::vector<metrics::LabelledSnapshot> labelled;
    labelled.reserve(prom_runs.size());
    for (const auto& [key, snap] : prom_runs) {
      labelled.push_back({&snap, {{"image", key}}});
    }
    if (!write_text_file(opt.prom,
                         metrics::to_prometheus(labelled, "liquid_"))) {
      std::fprintf(stderr, "cannot write %s\n", opt.prom.c_str());
      return 1;
    }
  }
  return io.finish() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (a == "--dcache") { const char* v = next(); if (!v) return usage(); opt.dcache = static_cast<u32>(std::atoi(v)); }
    else if (a == "--icache") { const char* v = next(); if (!v) return usage(); opt.icache = static_cast<u32>(std::atoi(v)); }
    else if (a == "--line") { const char* v = next(); if (!v) return usage(); opt.line = static_cast<u32>(std::atoi(v)); }
    else if (a == "--ways") { const char* v = next(); if (!v) return usage(); opt.ways = static_cast<u32>(std::atoi(v)); }
    else if (a == "--read") { const char* v = next(); if (!v) return usage(); opt.read_symbol = v; }
    else if (a == "--metrics-json") { const char* v = next(); if (!v) return usage(); opt.metrics_json = v; }
    else if (a == "--perf-trace") { const char* v = next(); if (!v) return usage(); opt.perf_trace = v; }
    else if (a == "--prom") { const char* v = next(); if (!v) return usage(); opt.prom = v; }
    else if (a == "--sweep") opt.sweep = true;
    else if (a == "--trace") opt.trace = true;
    else if (a == "--recommend") opt.recommend = true;
    else if (a == "--disasm") opt.disasm = true;
    else if (a == "--report") opt.report = true;
    else if (a == "--srec") opt.emit_srec = true;
    else if (a == "--debug") opt.debug = true;
    else if (a == "--runtime") opt.with_runtime = true;
    else if (a == "--help" || a == "-h") return usage();
    else if (!a.empty() && a[0] == '-') return usage();
    else opt.source_path = a;
  }
  if (opt.source_path.empty()) return usage();

  std::ifstream in(opt.source_path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", opt.source_path.c_str());
    return 2;
  }
  std::stringstream ss;
  ss << in.rdbuf();

  la::sasm::Image img;
  const bool is_srec =
      opt.source_path.size() > 5 &&
      opt.source_path.substr(opt.source_path.size() - 5) == ".srec";
  if (is_srec) {
    const la::sasm::SrecResult res = la::sasm::from_srec(ss.str());
    if (!res.ok) {
      std::fprintf(stderr, "%s: %s\n", opt.source_path.c_str(),
                   res.error.c_str());
      return 1;
    }
    img = res.image;
    std::fprintf(stderr, "loaded %zu bytes at 0x%08x (entry 0x%08x)\n",
                 img.data.size(), img.base, img.entry);
  } else {
    la::sasm::Assembler as;
    std::string source = ss.str();
    if (opt.with_runtime) source += la::sasm::rt::runtime_source();
    la::sasm::AsmResult res = as.assemble(source);
    if (!res.ok && !opt.with_runtime) {
      // Programs calling rt_* only assemble with the runtime linked in;
      // retry once with it before surfacing the original error.
      la::sasm::Assembler retry_as;
      la::sasm::AsmResult retry =
          retry_as.assemble(ss.str() + la::sasm::rt::runtime_source());
      if (retry.ok) {
        std::fprintf(stderr,
                     "note: linked runtime library (program did not "
                     "assemble standalone)\n");
        res = std::move(retry);
      }
    }
    if (!res.ok) {
      std::fprintf(stderr, "%s: assembly failed\n%s",
                   opt.source_path.c_str(), res.error_text().c_str());
      return 1;
    }
    img = std::move(res.image);
    std::fprintf(stderr, "assembled %zu bytes at 0x%08x (entry 0x%08x)\n",
                 img.data.size(), img.base, img.entry);
  }

  if (opt.emit_srec) {
    std::printf("%s", la::sasm::to_srec(img).c_str());
    return 0;
  }

  if (opt.disasm) {
    for (la::Addr a = img.base; a + 4 <= img.end(); a += 4) {
      std::printf("%08x: %08x  %s\n", a, img.word_at(a),
                  la::isa::disassemble_word(img.word_at(a), a).c_str());
    }
    return 0;
  }

  if (opt.debug) return run_debug(opt, img);
  return opt.sweep ? run_sweep(opt, img) : run_one(opt, img);
}
