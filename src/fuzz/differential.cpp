#include "fuzz/differential.hpp"

#include <memory>
#include <sstream>

#include "bus/ahb.hpp"
#include "common/metrics.hpp"
#include "cpu/flat_memory.hpp"
#include "cpu/integer_unit.hpp"
#include "ctrl/client.hpp"
#include "isa/registers.hpp"
#include "mem/sram.hpp"
#include "sasm/assembler.hpp"
#include "sim/liquid_system.hpp"

namespace la::fuzz {
namespace {

constexpr Addr kMemBase = 0x40000000;
constexpr u32 kMemSize = 1u << 20;

bool all_cacheable(Addr) { return true; }

std::string hex32(u32 v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", v);
  return buf;
}

/// Bridge the bare pipeline's counters into a registry under the same
/// names LiquidSystem::register_metrics uses, so coverage features line
/// up across bare and full-system runs.
void bridge_pipeline_metrics(metrics::MetricsRegistry& reg,
                             cpu::LeonPipeline& pipe) {
  const auto fn = [&reg](const std::string& name, auto getter) {
    reg.register_fn(name,
                    [getter] { return static_cast<double>(getter()); });
  };
  const cpu::PipelineStats& st = pipe.stats();
  fn("cpu.instructions", [&st] { return st.instructions; });
  fn("cpu.annulled", [&st] { return st.annulled; });
  fn("cpu.traps", [&st] { return st.traps; });
  fn("cpu.cycles", [&st] { return st.cycles; });
  fn("pipeline.stalls.icache", [&st] { return st.icache_stall; });
  fn("pipeline.stalls.dcache", [&st] { return st.dcache_stall; });
  fn("pipeline.stalls.store_buffer", [&st] { return st.store_stall; });
  fn("cpu.mix.loads", [&st] { return st.loads; });
  fn("cpu.mix.stores", [&st] { return st.stores; });
  fn("cpu.mix.branches", [&st] { return st.branches; });
  fn("cpu.mix.taken_branches", [&st] { return st.taken_branches; });
  fn("cpu.mix.calls", [&st] { return st.calls; });
  fn("cpu.mix.muldiv", [&st] { return st.muldiv; });
  const auto cache_fns = [&fn](const std::string& p, const cache::Cache& c) {
    const auto& cs = c.stats();
    fn(p + ".read_hits", [&cs] { return cs.read_hits; });
    fn(p + ".read_misses", [&cs] { return cs.read_misses; });
    fn(p + ".write_hits", [&cs] { return cs.write_hits; });
    fn(p + ".write_misses", [&cs] { return cs.write_misses; });
    fn(p + ".evictions", [&cs] { return cs.evictions; });
    fn(p + ".writebacks", [&cs] { return cs.writebacks; });
  };
  cache_fns("cache.i", pipe.icache());
  cache_fns("cache.d", pipe.dcache());
}

std::string diff_regs(const cpu::CpuState& a, const cpu::CpuState& b,
                      unsigned skip_window, bool skip_poll_locals) {
  for (unsigned w = 0; w < a.regs.nwindows(); ++w) {
    for (u8 r = 0; r < 32; ++r) {
      if (skip_poll_locals && w == skip_window && r >= 16 && r <= 18) {
        continue;  // %l0-%l2: ROM poll loop scratch
      }
      const u32 av = a.regs.get(w, r);
      const u32 bv = b.regs.get(w, r);
      if (av != bv) {
        std::ostringstream os;
        os << "window " << w << " " << isa::reg_name(r) << ": "
           << hex32(av) << " vs " << hex32(bv);
        return os.str();
      }
    }
  }
  return "";
}

}  // namespace

std::string compare_full(const cpu::CpuState& a, const cpu::CpuState& b) {
  if (a.error_mode != b.error_mode) {
    return std::string("error_mode: ") + (a.error_mode ? "yes" : "no") +
           " vs " + (b.error_mode ? "yes" : "no");
  }
  if (a.pc != b.pc) return "pc: " + hex32(a.pc) + " vs " + hex32(b.pc);
  if (a.npc != b.npc) return "npc: " + hex32(a.npc) + " vs " + hex32(b.npc);
  if (a.psr.pack() != b.psr.pack()) {
    return "psr: " + hex32(a.psr.pack()) + " vs " + hex32(b.psr.pack());
  }
  if (a.y != b.y) return "y: " + hex32(a.y) + " vs " + hex32(b.y);
  if (a.wim != b.wim) return "wim: " + hex32(a.wim) + " vs " + hex32(b.wim);
  if (a.tbr != b.tbr) return "tbr: " + hex32(a.tbr) + " vs " + hex32(b.tbr);
  return diff_regs(a, b, 0, false);
}

std::string compare_system(const cpu::CpuState& a, const cpu::CpuState& c) {
  if (c.error_mode) {
    return "system leg in error mode (tt=" +
           std::string(isa::trap_name(c.tbr_tt())) + ")";
  }
  // icc (bits 23:20) belongs to the polling loop's cmp after completion.
  constexpr u32 kIccMask = 0xfu << 20;
  if ((a.psr.pack() & ~kIccMask) != (c.psr.pack() & ~kIccMask)) {
    return "psr (icc masked): " + hex32(a.psr.pack() & ~kIccMask) + " vs " +
           hex32(c.psr.pack() & ~kIccMask);
  }
  if (a.y != c.y) return "y: " + hex32(a.y) + " vs " + hex32(c.y);
  if (a.wim != c.wim) return "wim: " + hex32(a.wim) + " vs " + hex32(c.wim);
  if (a.tbr != c.tbr) return "tbr: " + hex32(a.tbr) + " vs " + hex32(c.tbr);
  return diff_regs(a, c, a.psr.cwp, true);
}

DiffOutcome DifferentialRunner::run(const ProgramSpec& spec) {
  return run_source(spec.render(), spec.opts.mode);
}

DiffOutcome DifferentialRunner::run_source(const std::string& source,
                                           ProgramMode mode) {
  DiffOutcome out;

  sasm::Assembler as;
  sasm::AsmResult ar = as.assemble(source);
  if (!ar.ok) {
    out.detail = "assembly failed: " + ar.error_text();
    return out;
  }
  out.asm_ok = true;
  const sasm::Image& img = ar.image;

  Addr done = 0;
  try {
    done = img.symbol(kDoneSymbol);
  } catch (const std::exception&) {
    out.detail = "program has no 'done' symbol";
    return out;
  }
  Addr data = img.base;
  try {
    data = img.symbol("data");
  } catch (const std::exception&) {
    // Replayed hand-written repro without a data region: compare the
    // whole image footprint instead.
  }

  const u64 budget = opt_.max_steps
                         ? opt_.max_steps
                         : 4096 + 16u * (img.data.size() / 4);

  // ---- leg A: functional reference --------------------------------------
  cpu::CpuConfig acfg = opt_.pipeline.cpu;
  acfg.quirk_subx_no_carry = opt_.inject_subx_bug;
  cpu::FlatMemory flat(kMemSize, kMemBase);
  flat.load(img.base, img.data);
  cpu::IntegerUnit iu(acfg, flat);
  CoverageObserver obs(out.coverage);
  iu.set_observer(&obs);
  iu.reset(img.entry);
  out.steps = iu.run(budget, done);
  const cpu::CpuState& a = iu.state();

  const bool halted = a.pc == done || a.error_mode;
  if (!halted) {
    out.detail = "reference model exhausted the step budget";
    return out;
  }
  out.completed = true;
  if (a.error_mode) out.coverage.traps.set(a.tbr_tt());

  const Addr cmp_end = std::min<Addr>(data + kDataBytes, img.end());

  // ---- leg A': functional model through the block translation engine ----
  // Leg A carries the coverage observer, which forces the per-step path;
  // this leg reruns the identical config observerless so run() engages
  // the block engine, and must match leg A bit-for-bit (state, memory,
  // step and cycle counts).
  if (opt_.pipeline.cpu.host_fast_paths) {
    cpu::FlatMemory bflat(kMemSize, kMemBase);
    bflat.load(img.base, img.data);
    cpu::IntegerUnit biu(acfg, bflat);
    biu.reset(img.entry);
    const u64 bsteps = biu.run(budget, done);
    const auto fail = [&out](std::string detail) {
      out.diverged = true;
      out.leg = "iu-block";
      out.detail = std::move(detail);
    };
    if (bsteps != out.steps) {
      fail("step counts: " + std::to_string(out.steps) + " vs " +
           std::to_string(bsteps));
      return out;
    }
    if (biu.cycle_count() != iu.cycle_count()) {
      fail("cycles: " + std::to_string(iu.cycle_count()) + " vs " +
           std::to_string(biu.cycle_count()));
      return out;
    }
    if (std::string d = compare_full(a, biu.state()); !d.empty()) {
      fail(std::move(d));
      return out;
    }
    for (Addr addr = data; addr + 4 <= cmp_end; addr += 4) {
      if (flat.word_at(addr) != bflat.word_at(addr)) {
        fail("memory at data+" + std::to_string(addr - data) + ": " +
             hex32(flat.word_at(addr)) + " vs " + hex32(bflat.word_at(addr)));
        return out;
      }
    }
  }

  // ---- leg B: timed pipeline on a bare bus ------------------------------
  Cycles clock = 0;
  mem::Sram sram(kMemBase, kMemSize);
  sram.backdoor_write(img.base, img.data);
  bus::AhbBus bus;
  bus.attach(kMemBase, kMemSize, &sram);
  cpu::LeonPipeline pipe(opt_.pipeline, bus, &clock, &all_cacheable);
  pipe.reset(img.entry);
  pipe.run(budget, done);
  // Write-back configurations: memory lags the cache; flush first so the
  // data-region comparison below sees the architectural contents.
  pipe.flush_caches();
  const cpu::CpuState& b = pipe.state();

  if (b.pc != done && !b.error_mode) {
    out.diverged = true;
    out.leg = "pipeline";
    out.detail = "pipeline leg exhausted the step budget at pc " +
                 hex32(b.pc) + " while the reference halted";
    return out;
  }
  if (std::string d = compare_full(a, b); !d.empty()) {
    out.diverged = true;
    out.leg = "pipeline";
    out.detail = d;
    return out;
  }
  for (Addr addr = data; addr + 4 <= cmp_end; addr += 4) {
    u64 bv = 0;
    if (!sram.debug_read(addr, 4, bv) ||
        flat.word_at(addr) != static_cast<u32>(bv)) {
      out.diverged = true;
      out.leg = "pipeline";
      out.detail = "memory at data+" + std::to_string(addr - data) + ": " +
                   hex32(flat.word_at(addr)) + " vs " +
                   hex32(static_cast<u32>(bv));
      return out;
    }
  }

  metrics::MetricsRegistry breg;
  bridge_pipeline_metrics(breg, pipe);
  add_metric_features(out.coverage, "pipe.", breg.snapshot());

  // ---- leg C: the full node, boot-load-run over the control network ----
  if (mode == ProgramMode::kSystem && opt_.with_system && !a.error_mode) {
    if (!sys_) {
      sim::SystemConfig scfg;
      // Slow-path rotation entries exercise the per-step system loop too.
      scfg.pipeline = opt_.pipeline;
      // The disconnect switch drops CPU writes once leon_ctrl flags the
      // run done, so a write-back data cache could lose dirty lines to a
      // post-completion eviction; the system leg always runs
      // write-through.
      scfg.pipeline.dcache.write_policy =
          cache::WritePolicy::kWriteThroughNoAllocate;
      scfg.flight_recorder = opt_.flight_recorder;
      sys_ = std::make_unique<sim::LiquidSystem>(scfg);
      sys_->run(300);  // let the boot ROM reach its polling loop
      post_boot_ = sys_->snapshot();
    } else {
      // Deep replay: every program starts from the identical post-boot
      // state the first one saw, without paying construction + boot again.
      const bool restored = sys_->restore(post_boot_);
      (void)restored;  // same config by construction; cannot mismatch
      if (auto* fr = sys_->flight_recorder()) {
        fr->clear();  // host-side ring is not snapshot state; no stale
                      // events from the previous program in a post-mortem
      }
    }
    sim::LiquidSystem& node = *sys_;
    // A divergence report is only as good as its post-mortem: attach the
    // node's recent history whenever this leg is the one that failed.
    const auto black_box = [&](DiffOutcome& o) {
      if (node.flight_recorder() != nullptr) {
        o.flight_dump = node.take_flight_dump("divergence");
      }
    };
    ctrl::LiquidClient client(node);
    if (!client.run_program(img, opt_.system_max_steps)) {
      out.diverged = true;
      out.leg = "system";
      out.detail = node.cpu().state().error_mode
                       ? "system leg entered error mode (tt=" +
                             std::string(isa::trap_name(
                                 node.cpu().state().tbr_tt())) +
                             ")"
                       : "system leg never reported the program done";
      black_box(out);
      return out;
    }
    // Completion disconnected the CPU; reconnect so a cache flush can
    // land before the architectural memory comparison.
    node.disconnect().set_connected(true);
    node.cpu().flush_caches();

    if (std::string d = compare_system(a, node.cpu().state()); !d.empty()) {
      out.diverged = true;
      out.leg = "system";
      out.detail = d;
      black_box(out);
      return out;
    }
    for (Addr addr = data; addr + 4 <= cmp_end; addr += 4) {
      u64 cv = 0;
      if (!node.sram().debug_read(addr, 4, cv) ||
          flat.word_at(addr) != static_cast<u32>(cv)) {
        out.diverged = true;
        out.leg = "system";
        out.detail = "memory at data+" + std::to_string(addr - data) +
                     ": " + hex32(flat.word_at(addr)) + " vs " +
                     hex32(static_cast<u32>(cv));
        black_box(out);
        return out;
      }
    }
    // Spot-check the protocol read path too: divergence here means the
    // readback/loader layers disagree with the memory they front.
    if (data + 64 <= cmp_end) {
      const auto words = client.read_memory(data, 16);
      if (!words) {
        out.diverged = true;
        out.leg = "system";
        out.detail = "read_memory over the control network failed";
        black_box(out);
        return out;
      }
      for (u16 i = 0; i < 16; ++i) {
        if ((*words)[i] != flat.word_at(data + 4u * i)) {
          out.diverged = true;
          out.leg = "system";
          out.detail = "protocol readback at data+" + std::to_string(4 * i) +
                       ": " + hex32(flat.word_at(data + 4u * i)) + " vs " +
                       hex32((*words)[i]);
          black_box(out);
          return out;
        }
      }
    }
    add_metric_features(out.coverage, "sys.", node.metrics_snapshot());
  }

  return out;
}

}  // namespace la::fuzz
