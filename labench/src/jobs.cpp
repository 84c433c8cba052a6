#include "jobs.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "bus/ahb.hpp"
#include "common/rng.hpp"
#include "cpu/leon_pipeline.hpp"
#include "mem/memory_map.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"
#include "sasm/runtime.hpp"

namespace labench {

namespace {

namespace map = la::mem::map;

std::string read_text(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Replace the one occurrence of `from`; a kernel whose text drifted from
/// what the benchmark expects must fail loudly, not run unsized.
void replace_once(std::string& s, const std::string& from,
                  const std::string& to) {
  const std::size_t at = s.find(from);
  if (at == std::string::npos || s.find(from, at + 1) != std::string::npos) {
    throw std::runtime_error("kernel source: expected exactly one '" + from +
                             "'");
  }
  s.replace(at, from.size(), to);
}

/// Everything before the line that defines `label:` (the data section the
/// benchmark regenerates at a larger size).
std::string cut_at_label(const std::string& s, const std::string& label) {
  const std::size_t at = s.find("\n" + label + ":");
  if (at == std::string::npos) {
    throw std::runtime_error("kernel source: no label '" + label + "'");
  }
  return s.substr(0, at + 1);
}

std::string word_lines(const std::vector<u32>& w) {
  std::string out;
  char buf[16];
  for (std::size_t i = 0; i < w.size(); ++i) {
    out += i % 8 == 0 ? "    .word " : ", ";
    std::snprintf(buf, sizeof buf, "0x%08x", w[i]);
    out += buf;
    if (i % 8 == 7 || i + 1 == w.size()) out += "\n";
  }
  return out;
}

la::sasm::Image assemble(const std::string& name, const std::string& src) {
  la::sasm::Assembler as;
  la::sasm::AsmResult r = as.assemble(src);
  if (!r.ok) {
    throw std::runtime_error("kernel " + name + " does not assemble:\n" +
                             r.error_text());
  }
  return std::move(r.image);
}

std::vector<u8> image_bytes(const la::sasm::Image& img, Addr at,
                            std::size_t n) {
  const std::size_t off = at - img.base;
  if (at < img.base || off + n > img.data.size()) {
    throw std::runtime_error("kernel data outside its image");
  }
  return {img.data.begin() + static_cast<std::ptrdiff_t>(off),
          img.data.begin() + static_cast<std::ptrdiff_t>(off + n)};
}

std::vector<u32> image_words(const la::sasm::Image& img, Addr at,
                             std::size_t n) {
  std::vector<u32> w(n);
  for (std::size_t i = 0; i < n; ++i) w[i] = img.word_at(at + 4 * i);
  return w;
}

/// A readback window [done_flag, results...] whose first word must be 1.
Addr flagged_window(const la::sasm::Image& img, const char* results) {
  const Addr flag = img.symbol("done_flag");
  if (img.symbol(results) != flag + 4) {
    throw std::runtime_error(std::string("kernel layout: ") + results +
                             " does not follow done_flag");
  }
  return flag;
}

// ---- host references ----

u32 crc32_ref(const std::vector<u8>& bytes) {
  u32 crc = 0xffffffffu;
  for (const u8 b : bytes) {
    crc ^= b;
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? (crc >> 1) ^ 0xedb88320u : crc >> 1;
  }
  return ~crc;
}

u32 ipcksum_ref(const u8* p, u32 len) {
  u32 sum = 0;
  for (u32 i = 0; i < len; i += 2) sum += (u32{p[i]} << 8) | p[i + 1];
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  return ~sum & 0xffff;
}

u32 stream_sum_ref(u32 n) {
  // a[i] = 7 + 3i; copy c = a; scale b = 3a; add c = a + b; triad
  // a = b + 3c = 15 a (all mod 2^32).
  u32 sum = 0;
  for (u32 i = 0; i < n; ++i) sum += 15u * (7u + 3u * i);
  return sum;
}

/// Sizes the progs/ kernels run at.  `regenerate` replaces each kernel's
/// data section with inputs from a fixed generator at these sizes; off,
/// the kernels keep the data the files carry (their default sizes).
struct Sizes {
  bool regenerate = false;
  u32 fig7_bound = 1000000;
  u32 stream_words = 256;
  u32 crc_bytes = 256;
  u32 ip_pkts = 4, ip_pkt_bytes = 64;
  u32 lpm_routes = 6, lpm_queries = 8;
  u32 cls_rules = 4, cls_pkts = 6;
  u32 sort_words = 64;
};

struct Kernel {
  std::string name;
  std::shared_ptr<const la::sasm::Image> image;
  Addr result_addr = 0;
  u16 result_words = 0;
  std::vector<u32> expected;
};

Kernel finish(const std::string& name, la::sasm::Image img, Addr addr,
              std::size_t words, std::vector<u32> expected) {
  if (words > 0xffff) throw std::runtime_error(name + ": readback too large");
  Kernel k;
  k.name = name;
  k.image = std::make_shared<const la::sasm::Image>(std::move(img));
  k.result_addr = addr;
  k.result_words = static_cast<u16>(words);
  k.expected = std::move(expected);
  return k;
}

std::vector<Kernel> build_kernels(const std::string& dir, const Sizes& z) {
  std::vector<Kernel> out;
  la::Rng gen(0x1abe7c4ull);  // fixed: inputs never depend on the run seed
  const auto path = [&](const char* k) { return dir + "/" + k + ".s"; };

  {  // fig7: the paper's strided walk over a 4 KB array
    std::string s = read_text(path("fig7"));
    replace_once(s, "set 1000000, %o2",
                 "set " + std::to_string(z.fig7_bound) + ", %o2");
    la::sasm::Image img = assemble("fig7", s);
    const Addr at = img.symbol("cycles");
    // The readback is the program's cycle-counter word, as the paper reads
    // it.  The counter accumulates across runs on one node, so the check
    // is on the recorded run cycles and the Fig 7 shape claim instead.
    out.push_back(finish("fig7", std::move(img), at, 1, {}));
  }
  {  // stream: copy/scale/add/triad over three arrays
    std::string s = read_text(path("stream"));
    replace_once(s, ".equ STREAM_WORDS, 256",
                 ".equ STREAM_WORDS, " + std::to_string(z.stream_words));
    la::sasm::Image img = assemble("stream", s);
    const Addr at = flagged_window(img, "sum_a");
    out.push_back(
        finish("stream", std::move(img), at, 2, {1, stream_sum_ref(z.stream_words)}));
  }
  {  // crc32: bitwise CRC-32 over a byte buffer
    std::string s = read_text(path("crc32"));
    replace_once(s, "set 256, %o1", "set " + std::to_string(z.crc_bytes) + ", %o1");
    if (z.regenerate) {
      std::vector<u32> w(z.crc_bytes / 4);
      for (u32& x : w) x = gen.next_u32();
      s = cut_at_label(s, "data") + "data:\n" + word_lines(w);
    }
    la::sasm::Image img = assemble("crc32", s);
    const u32 crc = crc32_ref(image_bytes(img, img.symbol("data"), z.crc_bytes));
    const Addr at = img.symbol("crc");
    out.push_back(finish("crc32", std::move(img), at, 1, {crc}));
  }
  {  // ipcksum: RFC 1071 checksum per packet
    std::string s = read_text(path("ipcksum"));
    replace_once(s, ".equ NPKTS, 4", ".equ NPKTS, " + std::to_string(z.ip_pkts));
    replace_once(s, ".equ PKT_BYTES, 64",
                 ".equ PKT_BYTES, " + std::to_string(z.ip_pkt_bytes));
    const u32 total = z.ip_pkts * z.ip_pkt_bytes;
    if (z.regenerate) {
      std::vector<u32> w((total + 3) / 4);
      for (u32& x : w) x = gen.next_u32();
      s = cut_at_label(s, "data") + "data:\n" + word_lines(w);
    }
    la::sasm::Image img = assemble("ipcksum", s);
    const std::vector<u8> data = image_bytes(img, img.symbol("data"), total);
    std::vector<u32> want{1};
    for (u32 p = 0; p < z.ip_pkts; ++p) {
      want.push_back(ipcksum_ref(data.data() + p * z.ip_pkt_bytes, z.ip_pkt_bytes));
    }
    const Addr at = flagged_window(img, "results");
    out.push_back(finish("ipcksum", std::move(img), at, want.size(), want));
  }
  {  // lpm: first-match scan of a prefix table sorted longest first
    std::string s = read_text(path("lpm"));
    replace_once(s, ".equ NROUTES, 6", ".equ NROUTES, " + std::to_string(z.lpm_routes));
    replace_once(s, ".equ NQUERIES, 8",
                 ".equ NQUERIES, " + std::to_string(z.lpm_queries));
    if (z.regenerate) {
      std::vector<std::pair<u32, u32>> routes;  // (prefix length, prefix)
      for (u32 i = 0; i + 1 < z.lpm_routes; ++i) {
        const u32 len = gen.between(8, 30);
        routes.emplace_back(len, gen.next_u32() & ~((1u << (32 - len)) - 1));
      }
      std::stable_sort(routes.begin(), routes.end(),
                       [](const auto& a, const auto& b) { return a.first > b.first; });
      std::vector<u32> table;
      for (std::size_t i = 0; i < routes.size(); ++i) {
        const u32 mask = ~((1u << (32 - routes[i].first)) - 1);
        table.insert(table.end(), {routes[i].second, mask, static_cast<u32>(i + 2)});
      }
      table.insert(table.end(), {0, 0, 1});  // 0.0.0.0/0 catch-all
      std::vector<u32> queries(z.lpm_queries);
      for (u32& q : queries) {
        if (gen.chance(0.5)) {
          const std::size_t r = gen.below(static_cast<u32>(routes.size()));
          const u32 mask = table[3 * r + 1];
          q = table[3 * r] | (gen.next_u32() & ~mask);
        } else {
          q = gen.next_u32();
        }
      }
      s = cut_at_label(s, "table") + "table:\n" + word_lines(table) + "queries:\n" +
          word_lines(queries);
    }
    la::sasm::Image img = assemble("lpm", s);
    const std::vector<u32> table = image_words(img, img.symbol("table"), 3 * z.lpm_routes);
    const std::vector<u32> queries =
        image_words(img, img.symbol("queries"), z.lpm_queries);
    std::vector<u32> want{1};
    for (const u32 q : queries) {
      u32 hop = 0;
      for (u32 r = 0; r < z.lpm_routes; ++r) {
        if ((q & table[3 * r + 1]) == table[3 * r]) {
          hop = table[3 * r + 2];
          break;
        }
      }
      want.push_back(hop);
    }
    const Addr at = flagged_window(img, "results");
    out.push_back(finish("lpm", std::move(img), at, want.size(), want));
  }
  {  // classify: first matching (src, dst) mask/value rule wins
    std::string s = read_text(path("classify"));
    replace_once(s, ".equ NRULES, 4", ".equ NRULES, " + std::to_string(z.cls_rules));
    replace_once(s, ".equ NPKTS, 6", ".equ NPKTS, " + std::to_string(z.cls_pkts));
    if (z.regenerate) {
      static constexpr u32 kMasks[] = {0, 0xff000000u, 0xffff0000u, 0xffffff00u,
                                       0xffffffffu};
      std::vector<u32> rules;
      for (u32 i = 0; i < z.cls_rules; ++i) {
        const u32 sm = kMasks[1 + gen.below(4)];  // no match-everything rule
        const u32 dm = kMasks[gen.below(5)];
        rules.insert(rules.end(), {sm, gen.next_u32() & sm, dm, gen.next_u32() & dm,
                                   10 * (i + 1)});
      }
      std::vector<u32> pkts;
      for (u32 i = 0; i < z.cls_pkts; ++i) {
        u32 src = gen.next_u32();
        u32 dst = gen.next_u32();
        if (gen.chance(0.5)) {  // aim at a rule so matches are common
          const u32 r = gen.below(z.cls_rules);
          src = rules[5 * r + 1] | (src & ~rules[5 * r]);
          dst = rules[5 * r + 3] | (dst & ~rules[5 * r + 2]);
        }
        pkts.insert(pkts.end(), {src, dst});
      }
      s = cut_at_label(s, "rules") + "rules:\n" + word_lines(rules) + "packets:\n" +
          word_lines(pkts);
    }
    la::sasm::Image img = assemble("classify", s);
    const std::vector<u32> rules = image_words(img, img.symbol("rules"), 5 * z.cls_rules);
    const std::vector<u32> pkts = image_words(img, img.symbol("packets"), 2 * z.cls_pkts);
    std::vector<u32> want{1};
    for (u32 p = 0; p < z.cls_pkts; ++p) {
      u32 id = 0;
      for (u32 r = 0; r < z.cls_rules; ++r) {
        if ((pkts[2 * p] & rules[5 * r]) == rules[5 * r + 1] &&
            (pkts[2 * p + 1] & rules[5 * r + 2]) == rules[5 * r + 3]) {
          id = rules[5 * r + 4];
          break;
        }
      }
      want.push_back(id);
    }
    const Addr at = flagged_window(img, "results");
    out.push_back(finish("classify", std::move(img), at, want.size(), want));
  }
  if (z.sort_words > 0) {  // quicksort: recursive, window traps via runtime
    std::string s = read_text(path("quicksort"));
    replace_once(s, "set data + 252, %o1",
                 "set data + " + std::to_string(4 * z.sort_words - 4) + ", %o1");
    if (z.regenerate) {
      std::vector<u32> w(z.sort_words);
      for (u32& x : w) x = gen.next_u32();
      s = cut_at_label(s, "data") + "data:\n" + word_lines(w);
    }
    s += la::sasm::rt::runtime_source();
    la::sasm::Image img = assemble("quicksort", s);
    std::vector<u32> sorted = image_words(img, img.symbol("data"), z.sort_words);
    std::sort(sorted.begin(), sorted.end());
    std::vector<u32> want{1};
    want.insert(want.end(), sorted.begin(), sorted.end());
    const Addr at = flagged_window(img, "data");
    out.push_back(finish("quicksort", std::move(img), at, want.size(), want));
  }
  return out;
}

std::vector<BenchJob> cross(const std::vector<Kernel>& ks,
                            const std::vector<la::liquid::ArchConfig>& cfgs) {
  std::vector<BenchJob> jobs;
  for (const Kernel& k : ks) {
    for (const auto& c : cfgs) {
      BenchJob j;
      j.kernel = k.name;
      j.config = c;
      j.image = k.image;
      j.result_addr = k.result_addr;
      j.result_words = k.result_words;
      j.expected = k.expected;
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

}  // namespace

std::string BenchJob::label() const {
  return kernel + "@d" + std::to_string(config.dcache_bytes / 1024) + "k";
}

std::vector<la::liquid::ArchConfig> dcache_sweep() {
  std::vector<la::liquid::ArchConfig> out;
  for (const u32 kb : {1u, 2u, 4u, 8u, 16u}) {
    la::liquid::ArchConfig c = la::liquid::ArchConfig::paper_baseline();
    c.dcache_bytes = kb * 1024;
    out.push_back(c);
  }
  return out;
}

std::vector<BenchJob> kernel_jobs(const std::string& progs_dir) {
  Sizes z;
  z.regenerate = true;
  z.fig7_bound = 5000000;
  // The arrays stay in SRAM: SDRAM timing depends on the node's absolute
  // clock (refresh), which would make cycles depend on the job order.
  z.stream_words = 20000;  // 3 x 80 KB
  z.crc_bytes = 16384;
  z.ip_pkts = 160;  // 240 KB: the image must fit 255 LOAD packets
  z.ip_pkt_bytes = 1500;
  z.lpm_routes = 64;
  z.lpm_queries = 2048;
  z.cls_rules = 48;
  z.cls_pkts = 4096;
  z.sort_words = 6144;
  return cross(build_kernels(progs_dir, z), dcache_sweep());
}

std::vector<BenchJob> gate_jobs(const std::string& progs_dir) {
  Sizes z;
  z.sort_words = 0;  // needs the runtime: too large for one gateway frame
  std::vector<la::liquid::ArchConfig> cfgs;
  for (const u32 kb : {1u, 4u}) {
    la::liquid::ArchConfig c = la::liquid::ArchConfig::paper_baseline();
    c.dcache_bytes = kb * 1024;
    cfgs.push_back(c);
  }
  return cross(build_kernels(progs_dir, z), cfgs);
}

BenchJob from_generated(const la::farm::GeneratedJob& g) {
  BenchJob j;
  j.kernel = "gen";
  j.config = g.job.config;
  j.image = std::make_shared<const la::sasm::Image>(g.job.program);
  j.result_addr = g.job.result_addr;
  j.result_words = g.job.result_words;
  j.expected = {g.expected};
  j.owner = g.job.owner;
  return j;
}

std::size_t load_expected(const std::string& path, std::vector<BenchJob>& jobs) {
  std::ifstream in(path);
  if (!in) return 0;
  std::map<std::string, std::pair<u64, u64>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string label;
    u64 cycles = 0, instr = 0;
    if (ls >> label >> cycles >> instr) rows[label] = {cycles, instr};
  }
  std::size_t matched = 0;
  for (BenchJob& j : jobs) {
    const auto it = rows.find(j.label());
    if (it == rows.end()) continue;
    j.run_cycles = it->second.first;
    j.instructions = it->second.second;
    ++matched;
  }
  return matched;
}

bool write_expected(const std::string& path, const std::vector<BenchJob>& jobs) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# kernel@dcache  run_cycles  instructions\n"
         "# Simulated values of the kernels workload, recorded by\n"
         "# `labench --record`; every run checks them exactly.\n";
  for (const BenchJob& j : jobs) {
    out << j.label() << "\t" << j.run_cycles << "\t" << j.instructions << "\n";
  }
  return static_cast<bool>(out);
}

BareRun run_bare(const BenchJob& job) {
  // One rig per thread, reused: building 2 MB of parity-shadowed memory
  // per call would dwarf the tiny farm jobs being counted.
  struct Rig {
    la::mem::Sram rom{map::kRomBase, map::kRomSize};
    la::mem::Sram sram{map::kSramBase, map::kSramSize};
    la::mem::Sram io{0x80000000u, 0x1000};  // APB cycle-counter stores
    la::mem::Sram sdram{map::kSdramBase, 1u << 20};
    la::bus::AhbBus bus;
    Rig() {
      bus.attach(map::kRomBase, map::kRomSize, &rom);
      bus.attach(map::kSramBase, map::kSramSize, &sram);
      bus.attach(0x80000000u, 0x1000, &io);
      bus.attach(map::kSdramBase, 1u << 20, &sdram);
    }
  };
  thread_local Rig rig;
  const la::sasm::Image& img = *job.image;
  rig.sram.backdoor_write(img.base, img.data);
  la::Cycles clock = 0;
  la::cpu::LeonPipeline pipe(job.config.to_pipeline(), rig.bus, &clock,
                             &map::cacheable);
  pipe.reset(img.entry);
  const Addr halt = map::kRomBase + 0x40;  // the polling loop kernels return to
  const auto t0 = Clock::now();
  pipe.run(200'000'000, halt);
  BareRun r;
  r.ms = ms_since(t0);
  r.halted = pipe.state().pc == halt;
  r.instructions = pipe.stats().instructions;
  r.cycles = pipe.stats().cycles;
  return r;
}

}  // namespace labench
