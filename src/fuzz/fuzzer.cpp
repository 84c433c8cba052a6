#include "fuzz/fuzzer.hpp"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace la::fuzz {
namespace {

namespace fs = std::filesystem;

std::string write_text(const fs::path& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary);
  os << text;
  return path.string();
}

}  // namespace

Fuzzer::Fuzzer(const FuzzConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed ^ 0x6c66757a7a5f3141ull),  // "lfuzz_1A"
      mutator_(cfg.seed),
      fresh_seed_state_(cfg.seed) {}

std::vector<cpu::PipelineConfig> Fuzzer::config_rotation() {
  std::vector<cpu::PipelineConfig> cfgs;
  cfgs.emplace_back();  // default caches, 8 windows

  cpu::PipelineConfig tiny;
  tiny.icache.size_bytes = 128;
  tiny.icache.line_bytes = 16;
  tiny.dcache.size_bytes = 128;
  tiny.dcache.line_bytes = 16;
  cfgs.push_back(tiny);

  cpu::PipelineConfig nocache;
  nocache.icache_enabled = false;
  nocache.dcache_enabled = false;
  nocache.write_buffer_depth = 0;
  cfgs.push_back(nocache);

  cpu::PipelineConfig wback;
  wback.dcache.write_policy = cache::WritePolicy::kWriteBackAllocate;
  cfgs.push_back(wback);

  cpu::PipelineConfig few;
  few.cpu.nwindows = 3;
  cfgs.push_back(few);

  // Host fast paths off (default geometry): every campaign continuously
  // cross-checks the perf layer against the plain decode/per-step
  // reference interpreter.
  cpu::PipelineConfig slow;
  slow.cpu.host_fast_paths = false;
  cfgs.push_back(slow);

  return cfgs;
}

ProgramSpec Fuzzer::next_input(const cpu::PipelineConfig& pcfg,
                               ProgramMode mode) {
  // Mutate/crossover corpus material most of the time once any exists;
  // keep a steady stream of fresh programs so coverage is not hostage to
  // the first few corpus entries.
  if (!corpus_.empty() && rng_.chance(0.6)) {
    ++stats_.mutated_inputs;
    last_was_mutant_ = true;
    const ProgramSpec& a = corpus_.pick(rng_).spec;
    if (corpus_.size() >= 2 && rng_.chance(0.25)) {
      const ProgramSpec& b = corpus_.pick(rng_).spec;
      if (b.opts.mode == a.opts.mode) {
        return mutator_.mutate(mutator_.crossover(a, b));
      }
    }
    return mutator_.mutate(a);
  }

  ++stats_.fresh_inputs;
  last_was_mutant_ = false;
  GenOptions opts;
  opts.mode = mode;
  opts.instructions = cfg_.program_chunks;
  // Prologue must initialize at least as many windows as the deepest
  // configuration in the rotation uses.
  opts.nwindows = std::max(8u, pcfg.cpu.nwindows);
  opts.seed = splitmix64(fresh_seed_state_);
  ProgramGenerator gen(opts.seed);
  return gen.generate(opts);
}

int Fuzzer::run() {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const bool timed = cfg_.budget_secs > 0;
  // No budget at all would loop forever; fall back to a short burst.
  const u64 max_iters =
      cfg_.max_iterations ? cfg_.max_iterations : (timed ? ~0ull : 64);

  std::vector<cpu::PipelineConfig> rotation = config_rotation();
  if (cfg_.disable_fast_paths) {
    for (cpu::PipelineConfig& c : rotation) c.cpu.host_fast_paths = false;
  }

  if (!cfg_.corpus_dir.empty()) {
    const std::size_t loaded = corpus_.load(cfg_.corpus_dir);
    if (loaded) {
      note("loaded " + std::to_string(loaded) + " corpus entries from " +
           cfg_.corpus_dir);
      // Seed campaign coverage from the loaded entries so novelty is
      // measured against what the corpus already explored.
      for (std::size_t i = 0; i < corpus_.size(); ++i) {
        DiffOptions opt;
        opt.pipeline = rotation.front();
        opt.with_system = cfg_.with_system;
        opt.inject_subx_bug = cfg_.inject_subx_bug;
        DifferentialRunner runner(opt);
        DiffOutcome o = runner.run(corpus_.at(i).spec);
        ++stats_.executions;
        if (o.diverged) {
          handle_divergence(corpus_.at(i).spec, o, opt);
          if (cfg_.stop_on_divergence) return finish();
        } else {
          coverage_.merge(o.coverage);
        }
      }
    }
  }

  for (u64 iter = 0; iter < max_iters; ++iter) {
    if (timed) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::seconds>(Clock::now() -
                                                           start);
      if (elapsed.count() >= cfg_.budget_secs) break;
    }
    ++stats_.iterations;

    const cpu::PipelineConfig& pcfg = rotation[iter % rotation.size()];
    const bool system_turn = cfg_.with_system && cfg_.system_every != 0 &&
                             (iter % cfg_.system_every) ==
                                 (cfg_.system_every - 1);
    const ProgramMode mode =
        system_turn ? ProgramMode::kSystem : ProgramMode::kCore;

    ProgramSpec spec = next_input(pcfg, mode);

    DiffOptions opt;
    opt.pipeline = pcfg;
    opt.with_system = cfg_.with_system;
    opt.inject_subx_bug = cfg_.inject_subx_bug;
    DifferentialRunner runner(opt);
    DiffOutcome outcome = runner.run(spec);
    ++stats_.executions;

    if (!outcome.asm_ok) {
      // Only mutants can fail to assemble; fresh programs doing so is a
      // generator bug worth surfacing loudly.
      if (last_was_mutant_) {
        ++stats_.rejected_mutants;
      } else {
        note("generator produced unassemblable program (seed " +
             std::to_string(spec.opts.seed) + "): " + outcome.detail);
      }
      continue;
    }

    if (outcome.diverged) {
      handle_divergence(spec, std::move(outcome), opt);
      if (cfg_.stop_on_divergence) break;
      continue;
    }

    if (!outcome.completed) ++stats_.incomplete_runs;
    const std::size_t novelty = coverage_.merge(outcome.coverage);
    if (novelty > 0) {
      corpus_.add(std::move(spec), novelty);
      ++stats_.corpus_admitted;
    }

    if (cfg_.verbose && stats_.iterations % 25 == 0) {
      note("iter " + std::to_string(stats_.iterations) + ": corpus " +
           std::to_string(corpus_.size()) + ", " + coverage_.summary());
    }
  }

  return finish();
}

int Fuzzer::finish() {
  std::vector<cpu::PipelineConfig> rotation = config_rotation();
  if (cfg_.disable_fast_paths) {
    for (cpu::PipelineConfig& c : rotation) c.cpu.host_fast_paths = false;
  }

  if (!cfg_.corpus_dir.empty()) {
    const std::size_t written = corpus_.save(cfg_.corpus_dir);
    if (written) {
      note("saved " + std::to_string(written) + " new corpus files to " +
           cfg_.corpus_dir);
    }
  }
  note("done: " + std::to_string(stats_.iterations) + " iterations, " +
       std::to_string(stats_.executions) + " executions, corpus " +
       std::to_string(corpus_.size()) + ", " +
       std::to_string(stats_.divergences) + " divergences; " +
       coverage_.summary());
  return failures_.empty() ? 0 : 1;
}

void Fuzzer::handle_divergence(const ProgramSpec& spec, DiffOutcome outcome,
                               const DiffOptions& opt) {
  ++stats_.divergences;
  note("DIVERGENCE (" + outcome.leg + " leg): " + outcome.detail);

  FuzzFailure fail;
  fail.spec = spec;
  fail.minimized = spec;
  fail.outcome = std::move(outcome);

  if (cfg_.minimize_failures) {
    const std::string want_leg = fail.outcome.leg;
    const auto still_fails = [&](const ProgramSpec& cand) {
      DifferentialRunner runner(opt);
      DiffOutcome o = runner.run(cand);
      ++stats_.executions;
      return o.asm_ok && o.diverged && o.leg == want_leg;
    };
    fail.minimized = minimize(spec, still_fails, &fail.min_stats);
    note("minimized " + std::to_string(fail.min_stats.initial_chunks) +
         " -> " + std::to_string(fail.min_stats.final_chunks) +
         " chunks (" + std::to_string(fail.min_stats.final_instructions) +
         " body instructions, " + std::to_string(fail.min_stats.probes) +
         " probes)");
  }

  if (!cfg_.out_dir.empty()) {
    std::error_code ec;
    fs::create_directories(cfg_.out_dir, ec);
    const std::string tag =
        "fail-" + std::to_string(failures_.size()) + "-" +
        std::to_string(fnv1a64(fail.spec.render()) & 0xffffffull);
    const fs::path base = fs::path(cfg_.out_dir) / tag;
    fail.repro_path = write_text(base.string() + ".s", fail.spec.render());
    write_text(base.string() + ".lprog", serialize_spec(fail.spec));
    if (!fail.outcome.flight_dump.empty()) {
      write_text(base.string() + ".flight.json", fail.outcome.flight_dump);
    }
    if (cfg_.minimize_failures) {
      fail.minimized_path =
          write_text(base.string() + ".min.s", fail.minimized.render());
      write_text(base.string() + ".min.lprog",
                 serialize_spec(fail.minimized));
    }
    note("repro written to " + fail.repro_path);
  }

  failures_.push_back(std::move(fail));
}

void Fuzzer::note(const std::string& line) const {
  if (cfg_.verbose) std::cerr << "[lfuzz] " << line << "\n";
}

}  // namespace la::fuzz
