#include "probes.hpp"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/snapio.hpp"
#include "gate/client.hpp"
#include "gate/frame.hpp"
#include "gate/jobwire.hpp"
#include "isa/decode.hpp"
#include "jobs.hpp"
#include "liquid/reconfig_server.hpp"
#include "sim/snapshot.hpp"

namespace labench {

namespace {

double secs_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

/// Every configuration any workload asks for, synthesized before timing
/// starts (the paper's offline pass), so no job pays the simulated hour.
la::liquid::ConfigSpace every_config() {
  la::liquid::ConfigSpace s;
  s.mul_latencies = {5, 2};
  return s;
}

/// Words one READ_MEMORY command may ask for (leon_ctrl rejects more).
constexpr u16 kMaxReadWords = 256;

/// The job as the farm, the gateway and ReconfigurationServer see it.
/// They read the result window back with one command, so a longer window
/// is checked on its first kMaxReadWords words there (the node workload
/// reads and checks all of it).  They also keep a node's caches across
/// jobs and restore pooled snapshots, so run cycles are not comparable
/// with the recorded cold-start values.
BenchJob fleet_view(BenchJob j) {
  j.run_cycles = 0;
  if (j.result_words > kMaxReadWords) {
    j.result_words = kMaxReadWords;
    if (j.expected.size() > kMaxReadWords) j.expected.resize(kMaxReadWords);
  }
  return j;
}

la::farm::FarmJob to_farm_job(const BenchJob& j) {
  la::farm::FarmJob f;
  f.owner = j.owner;
  f.config = j.config;
  f.program = *j.image;
  f.result_addr = j.result_addr;
  f.result_words = j.result_words;
  return f;
}

/// Median of a power-of-two histogram (metrics::Histogram buckets),
/// interpolated inside the bucket that holds it.
double histogram_median(const la::metrics::HistogramSnapshot& h) {
  if (h.count == 0) return 0.0;
  const double target = static_cast<double>(h.count) / 2.0;
  double below = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (below + n >= target && n > 0) {
      const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i) - 1);
      const double hi = std::ldexp(1.0, static_cast<int>(i));
      const double v = lo + (target - below) / n * (hi - lo);
      return std::clamp(v, h.min, h.max);
    }
    below += n;
  }
  return h.max;
}

/// The warm-start pool key ReconfigurationServer uses for a post-LOAD
/// snapshot ("prog|<arch>|<digest of bytes, base, entry>").  probe_liquid
/// checks after every capture that the pool really holds this key.
std::string prog_key(const BenchJob& j) {
  const la::sasm::Image& img = *j.image;
  u64 h = la::snap_fnv1a(img.data.data(), img.data.size());
  const u64 mix[2] = {static_cast<u64>(img.base), static_cast<u64>(img.entry)};
  h = la::snap_fnv1a(reinterpret_cast<const la::u8*>(mix), sizeof mix, h);
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return "prog|" + j.config.key() + "|" + buf;
}

/// The code of an image: from its entry to the first data label.
std::vector<u32> text_words(const la::sasm::Image& img) {
  Addr end = img.end();
  for (const char* data : {"cycles", "crc", "done_flag", "result", "count", "data",
                           "table", "rules", "sum_a"}) {
    const auto it = img.symbols.find(data);
    if (it != img.symbols.end() && it->second > img.entry && it->second < end) {
      end = it->second;
    }
  }
  std::vector<u32> w;
  for (Addr a = img.entry; a + 4 <= end; a += 4) w.push_back(img.word_at(a));
  return w;
}

}  // namespace

std::string verify(const BenchJob& job, const std::vector<u32>& words,
                   u64 run_cycles) {
  if (words.size() != job.result_words) {
    return job.label() + ": read back " + std::to_string(words.size()) +
           " words, asked for " + std::to_string(job.result_words);
  }
  if (!job.expected.empty() && words != job.expected) {
    std::size_t i = 0;
    while (words[i] == job.expected[i]) ++i;
    return job.label() + ": word " + std::to_string(i) + " = " +
           std::to_string(words[i]) + ", host reference " +
           std::to_string(job.expected[i]);
  }
  if (job.run_cycles != 0 && run_cycles != job.run_cycles) {
    return job.label() + ": ran " + std::to_string(run_cycles) +
           " cycles, recorded " + std::to_string(job.run_cycles);
  }
  return "";
}

// ---- node ----

la::ctrl::ClientConfig long_job_client() {
  la::ctrl::ClientConfig c;
  c.deadline_steps = 64'000'000;
  return c;
}

NodeRunner::NodeRunner() : client_(node_, long_job_client()) {
  node_.run(100);  // boot into the ROM's polling loop
}

bool NodeRunner::load(const BenchJob& job) {
  node_.reconfigure(job.config.to_pipeline());
  node_.run(100);
  return static_cast<bool>(client_.load_program(*job.image));
}

NodeJob NodeRunner::run(const BenchJob& job, bool direct, bool with_metrics) {
  NodeJob r;
  const auto t0 = Clock::now();
  node_.reconfigure(job.config.to_pipeline());
  node_.run(100);

  auto t = Clock::now();
  if (const auto s = client_.load_program(*job.image); !s) {
    r.error = job.label() + ": load failed: " + s.error().to_string();
    return r;
  }
  r.load_ms = ms_since(t);

  la::metrics::Snapshot before;
  if (with_metrics) before = node_.metrics_snapshot();
  if (const auto s = client_.start(job.image->entry); !s) {
    r.error = job.label() + ": start failed: " + s.error().to_string();
    return r;
  }
  if (direct) {
    const u64 i0 = node_.cpu().stats().instructions;
    const auto tr = Clock::now();
    const bool done = node_.run_until(la::net::LeonState::kDone, 400'000'000);
    r.system_run_ms = ms_since(tr);
    r.run_instructions = node_.cpu().stats().instructions - i0;
    if (!done) {
      r.error = job.label() + ": did not finish";
      return r;
    }
  } else if (const auto s = client_.await_done(400'000'000); !s) {
    r.error = job.label() + ": run failed: " + s.error().to_string();
    return r;
  }
  r.run_cycles = node_.controller().last_run_cycles();
  if (with_metrics) r.sim = node_.metrics_snapshot().diff_since(before);

  t = Clock::now();
  for (u32 done = 0; done < job.result_words;) {
    const u16 n = static_cast<u16>(std::min<u32>(kMaxReadWords, job.result_words - done));
    auto words = client_.read_memory(job.result_addr + 4 * done, n);
    if (!words) {
      r.error = job.label() + ": readback failed: " + words.error().to_string();
      return r;
    }
    r.words.insert(r.words.end(), words->begin(), words->end());
    done += n;
  }
  r.read_ms = ms_since(t);
  r.total_ms = ms_since(t0);
  r.ok = true;
  return r;
}

// ---- farm ----

la::farm::FarmConfig farm_config(std::size_t nodes, bool tracing) {
  la::farm::FarmConfig c;
  c.nodes = nodes;
  c.tracing = tracing;
  c.warm_start = true;
  c.server.client = long_job_client();
  return c;
}

void pregenerate(la::farm::LiquidFarm& farm) { farm.pregenerate(every_config()); }

FarmRound run_farm_round(la::farm::LiquidFarm& farm, std::vector<BenchJob> jobs,
                         unsigned callers, Report& rep) {
  FarmRound out;
  for (BenchJob& j : jobs) j = fleet_view(std::move(j));
  struct Live {
    std::size_t index = 0;
    Clock::time_point submitted;
  };
  std::unordered_map<u64, Live> live;
  std::size_t next = 0;
  const double rss0 = current_rss_mb();
  const auto t0 = Clock::now();
  auto last = t0;
  const auto top_up = [&] {
    while (next < jobs.size() && live.size() < callers) {
      const std::size_t i = next++;
      ++rep.attempted;
      const auto t = Clock::now();
      auto id = farm.submit(to_farm_job(jobs[i]));
      if (!id) {
        rep.fail(jobs[i].label() + ": farm refused: " + id.error().to_string());
        continue;
      }
      live.emplace(*id, Live{i, t});
    }
  };
  top_up();
  while (!live.empty()) {
    auto done = farm.pop_result();
    if (!done) break;  // idle with nothing left to deliver
    const auto it = live.find(done->id);
    if (it == live.end()) {
      rep.fail("farm delivered job " + std::to_string(done->id) +
               " twice or never accepted it");
      continue;
    }
    const BenchJob& job = jobs[it->second.index];
    const double latency = ms_since(it->second.submitted);
    live.erase(it);
    if (!done->result.ok) {
      rep.fail(job.label() + ": " + done->result.error);
    } else if (const std::string why = verify(job, done->result.readback, 0);
               !why.empty()) {
      rep.fail(why);
    } else {
      ++out.verified;
      out.instructions += job.instructions;
      out.latency_ms.push_back(latency);
    }
    last = Clock::now();
    top_up();
  }
  for (const auto& [id, l] : live) {
    rep.fail(jobs[l.index].label() + ": result lost (job " + std::to_string(id) + ")");
  }
  out.window_s = std::chrono::duration<double>(last - t0).count();
  out.rss_growth_mb = current_rss_mb() - rss0;
  return out;
}

// ---- gateway ----

namespace {

la::gate::GateConfig gate_config(u64 seed) {
  la::gate::GateConfig g;
  g.tenants = GateRig::kTenants;
  g.secret_seed = seed ^ 0x9e3779b97f4a7c15ull;
  return g;
}

std::vector<double> zipf_cdf(la::u32 n, double s) {
  std::vector<double> cum(n);
  double total = 0;
  for (la::u32 i = 0; i < n; ++i) total += 1.0 / std::pow(i + 1.0, s);
  double acc = 0;
  for (la::u32 i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(i + 1.0, s) / total;
    cum[i] = acc;
  }
  cum[n - 1] = 1.0;
  return cum;
}

}  // namespace

GateRig::GateRig(bool tracing, u64 seed, const std::vector<BenchJob>& warm,
                 Report& rep)
    : seed_(seed), farm_(farm_config(kGateNodes, tracing)), gw_(farm_, gate_config(seed)) {
  pregenerate(farm_);
  if (!warm.empty()) {
    // Warm the pool with one run of every request kind, straight through
    // the farm before the gateway goes live: the gateway's own metrics
    // then cover only the measured requests.
    std::vector<BenchJob> jobs = warm;
    for (std::size_t i = 0; i < jobs.size(); ++i) jobs[i].owner = "warm" + std::to_string(i % 4);
    Report warm_rep;
    const FarmRound r = run_farm_round(farm_, std::move(jobs), 4, warm_rep);
    if (r.verified != warm.size()) {
      rep.invalid("pool warm-up failed: " +
                  (warm_rep.notes.empty() ? std::string("no detail") : warm_rep.notes[0]));
    }
  }
  if (!gw_.start()) throw std::runtime_error("gateway failed to bind");
  if (!sock_.bind("127.0.0.1", 0)) throw std::runtime_error("client socket failed");
  for (la::u32 i = 0; i < kTenants; ++i) tokens_.push_back(gw_.tenants().token_of(i));
  next_seq_.assign(kTenants, 0);

  // Open every tenant's session before anything is timed.
  std::vector<bool> open(kTenants, false);
  std::size_t opened = 0;
  const double give_up = la::gate::steady_now_ms() + 5000;
  double resend = 0;
  while (opened < kTenants) {
    const double now = la::gate::steady_now_ms();
    if (now > give_up) throw std::runtime_error("gateway never opened the sessions");
    if (now >= resend) {
      for (la::u32 i = 0; i < kTenants; ++i) {
        if (!open[i]) {
          sock_.send_to(gw_.addr(), la::gate::make_request(la::gate::GateKind::kHello,
                                                           tokens_[i], 1)
                                        .serialize());
        }
      }
      resend = now + 100;
    }
    while (auto bytes = sock_.recv_from()) {
      const auto f = la::gate::GateFrame::parse(*bytes);
      if (!f || f->kind != la::gate::GateKind::kHelloOk) continue;
      for (la::u32 i = 0; i < kTenants; ++i) {
        if (tokens_[i] == f->token && !open[i]) {
          open[i] = true;
          ++opened;
        }
      }
    }
    pollfd p{sock_.fd(), POLLIN, 0};
    ::poll(&p, 1, 1);
  }
}

GateRig::~GateRig() {
  stop();
  farm_.shutdown();
}

la::metrics::Snapshot GateRig::stop() {
  if (!stopped_) {
    gw_.stop();
    stopped_ = true;
  }
  return gw_.final_metrics();
}

GateRun GateRig::run(const std::function<BenchJob()>& next, double rate,
                     double seconds, double limit_ms, Report& rep) {
  la::Rng rng(seed_ ^ 0x6a7e5eedull);
  const std::size_t n =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rate * seconds)));
  std::vector<double> due(n);
  for (double& d : due) d = rng.unit() * seconds * 1000.0;
  std::sort(due.begin(), due.end());
  const std::vector<double> cdf = zipf_cdf(kTenants, kTenantZipf);
  std::vector<Planned> plan;
  plan.reserve(n);
  for (const double d : due) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.unit());
    plan.push_back({fleet_view(next()), static_cast<la::u32>(it - cdf.begin()), d});
  }
  trim_heap();  // drop what set-up left cached: windows measure the serving state
  GateRun g = drive(std::move(plan), limit_ms, std::max(4 * limit_ms, 2000.0), rep);
  g.schedule_s = seconds;
  return g;
}

GateRun GateRig::drive(std::vector<Planned> plan, double limit_ms,
                       double drain_ms, Report& rep) {
  using la::gate::GateKind;
  struct Req {
    std::size_t plan = 0;
    u64 rid = 0;
    la::Bytes frame;
    double due = 0;
    double first_send = -1;
    double last_send = 0;
    double hold_until = 0;
    bool accepted = false;
    bool done = false;
  };
  GateRun g;
  std::vector<Req> reqs(plan.size());
  std::unordered_map<u64, std::size_t> by_rid;
  const double t0 = la::gate::steady_now_ms() + 5;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Planned& p = plan[i];
    la::gate::JobWire wire;
    wire.config = p.job.config;
    wire.program = *p.job.image;
    wire.result_addr = p.job.result_addr;
    wire.result_words = p.job.result_words;
    Req& r = reqs[i];
    r.plan = i;
    // High half names the tenant, low half its submission (HELLO is 1).
    r.rid = (static_cast<u64>(p.tenant) << 32) | (next_seq_[p.tenant]++ + 2);
    r.frame = la::gate::make_request(GateKind::kSubmit, tokens_[p.tenant], r.rid,
                                     wire.serialize())
                  .serialize();
    r.due = t0 + p.due_ms;
    by_rid.emplace(r.rid, i);
  }
  g.attempted = reqs.size();
  rep.attempted += reqs.size();
  const double end_schedule = reqs.empty() ? t0 : reqs.back().due;
  const double give_up = end_schedule + drain_ms;
  std::size_t next_due = 0;
  std::size_t open = reqs.size();
  double last_answer = t0;
  double next_sweep = 0;
  double next_window = t0;

  const auto handle = [&](const la::gate::GateFrame& f, double now) {
    const auto it = by_rid.find(f.request_id);
    if (it == by_rid.end()) return;  // HELLO echoes, other rigs' frames
    Req& r = reqs[it->second];
    const BenchJob& job = plan[r.plan].job;
    switch (f.kind) {
      case GateKind::kAccepted:
        if (!r.accepted && !r.done) {
          r.accepted = true;
          g.admit_ms.push_back(now - r.first_send);
        }
        return;
      case GateKind::kRetryAfter: {
        ++g.retry_frames;
        double wait = 5;
        if (const auto ra = la::gate::RetryAfterWire::parse(f.payload)) {
          wait = std::min<double>(ra->retry_after_ms, 250);
        }
        r.hold_until = now + wait;
        return;
      }
      case GateKind::kResult: {
        const auto res = la::gate::ResultWire::parse(f.payload);
        if (!res || res->status == la::gate::ResultWire::kPending) return;
        if (r.done) return;  // a duplicate frame of an answered request
        r.done = true;
        --open;
        last_answer = now;
        if (res->status != la::gate::ResultWire::kDone) {
          rep.fail(job.label() + ": job failed: " + res->error);
          return;
        }
        if (const std::string why = verify(job, res->words, 0); !why.empty()) {
          rep.fail(why);
          return;
        }
        ++g.verified;
        g.instructions += job.instructions;
        const double e2e = now - r.due;
        g.e2e_ms.push_back(e2e);
        g.due_ms.push_back(r.due - t0);
        if (e2e <= limit_ms) ++g.good;
        return;
      }
      case GateKind::kGateError:
        if (!r.done) {
          r.done = true;
          --open;
          rep.fail(job.label() + ": gateway refused the request");
        }
        return;
      default:
        return;
    }
  };

  while (open > 0) {
    double now = la::gate::steady_now_ms();
    if (now > give_up) break;
    if (now >= next_window && next_window <= end_schedule) {
      if (next_window > t0) g.window_peak_mb.push_back(peak_rss_mb());
      reset_peak_rss();
      next_window += GateRun::kWindowMs;
    }
    while (auto bytes = sock_.recv_from()) {
      if (const auto f = la::gate::GateFrame::parse(*bytes)) handle(*f, now);
    }
    now = la::gate::steady_now_ms();
    while (next_due < reqs.size() && reqs[next_due].due <= now) {
      Req& r = reqs[next_due++];
      sock_.send_to(gw_.addr(), r.frame);
      r.first_send = r.last_send = now;
      g.late_ms.push_back(now - r.due);
    }
    if (now >= next_sweep) {
      // Loopback rarely loses a datagram, but a full socket buffer can:
      // resend unanswered submits (same request id: the gateway dedups)
      // and poll for results whose push went missing.
      for (std::size_t i = 0; i < next_due; ++i) {
        Req& r = reqs[i];
        if (r.done || now < r.hold_until) continue;
        if (!r.accepted && (now - r.last_send >= 200 || r.hold_until > r.last_send)) {
          sock_.send_to(gw_.addr(), r.frame);
          r.last_send = now;
        } else if (r.accepted && now - r.last_send >= 1000) {
          sock_.send_to(gw_.addr(),
                        la::gate::make_request(GateKind::kPoll,
                                               tokens_[plan[r.plan].tenant], r.rid)
                            .serialize());
          r.last_send = now;
        }
      }
      next_sweep = now + 5;
    }
    const double wait = next_due < reqs.size() ? reqs[next_due].due - now : 1.0;
    pollfd p{sock_.fd(), POLLIN, 0};
    ::poll(&p, 1, wait >= 1.0 ? 1 : 0);
  }
  for (const Req& r : reqs) {
    if (!r.done) rep.fail(plan[r.plan].job.label() + ": no answer (lost or timed out)");
  }
  g.window_s = (last_answer - t0) / 1000.0;
  return g;
}

// ---- traced probes ----

void probe_isa(const std::vector<BenchJob>& jobs, double budget_s, Report& rep) {
  std::vector<u32> words;
  const la::sasm::Image* last = nullptr;
  for (const BenchJob& j : jobs) {
    if (j.image.get() == last) continue;
    last = j.image.get();
    const std::vector<u32> t = text_words(*j.image);
    words.insert(words.end(), t.begin(), t.end());
  }
  u64 decoded = 0;
  u64 sink = 0;
  const auto t0 = Clock::now();
  do {
    for (const u32 w : words) {
      const la::isa::Instruction ins = la::isa::decode(w);
      sink += static_cast<u64>(ins.mn) + ins.rd + static_cast<u64>(ins.simm13);
    }
    decoded += words.size();
  } while (secs_since(t0) < budget_s);
  const double ns = ms_since(t0) * 1e6 / static_cast<double>(std::max<u64>(decoded, 1));
  rep.metric("isa.decode_ns", ns, "ns");
  rep.note("isa: " + std::to_string(words.size()) + " text words decoded " +
           std::to_string(decoded / std::max<std::size_t>(words.size(), 1)) +
           " times (checksum " + std::to_string(sink % 1000) + ")");
}

void probe_cpu(const std::vector<BenchJob>& jobs, double budget_s, Report& rep) {
  u64 instructions = 0;
  double ms = 0;
  std::size_t i = 0;
  const auto t0 = Clock::now();
  while (i < jobs.size() || secs_since(t0) < budget_s) {
    const BenchJob& j = jobs[i++ % jobs.size()];
    const BareRun b = run_bare(j);
    ++rep.attempted;
    if (!b.halted) {
      rep.fail(j.label() + ": bare pipeline never returned to the polling loop");
    } else if (j.instructions != 0 && b.instructions != j.instructions) {
      rep.fail(j.label() + ": bare pipeline retired " + std::to_string(b.instructions) +
               " instructions, recorded " + std::to_string(j.instructions));
    }
    instructions += b.instructions;
    ms += b.ms;
  }
  rep.metric("cpu.pipe_mips", static_cast<double>(instructions) / (ms * 1e3), "MIPS");
}

void probe_node(const std::vector<BenchJob>& jobs, double budget_s, Report& rep) {
  NodeRunner nr;
  std::vector<double> load_ms, read_ms;
  double run_ms = 0;
  u64 run_instr = 0;
  // Simulated totals over exactly one pass of `jobs`: they repeat exactly.
  double cycles = 0, instr = 0, cpu_cycles = 0, sdram_r = 0, sdram_w = 0, bus = 0;
  double d_hit = 0, d_all = 0, i_hit = 0, i_all = 0;
  std::size_t i = 0;
  const auto t0 = Clock::now();
  while (i < jobs.size() || secs_since(t0) < 0.7 * budget_s) {
    const bool first_pass = i < jobs.size();
    const BenchJob& j = jobs[i++ % jobs.size()];
    const NodeJob r = nr.run(j, true, first_pass);
    ++rep.attempted;
    if (!r.ok) {
      rep.fail(r.error);
      continue;
    }
    if (const std::string why = verify(j, r.words, r.run_cycles); !why.empty()) {
      rep.fail(why);
      continue;
    }
    load_ms.push_back(r.load_ms);
    read_ms.push_back(r.read_ms);
    run_ms += r.system_run_ms;
    run_instr += r.run_instructions;
    if (first_pass) {
      const auto& v = r.sim;
      cycles += static_cast<double>(r.run_cycles);
      instr += v.value_or("cpu.instructions");
      cpu_cycles += v.value_or("cpu.cycles");
      sdram_r += v.value_or("sdram.reads");
      sdram_w += v.value_or("sdram.writes");
      bus += v.value_or("ahb.data.transfers");
      d_hit += v.value_or("cache.d.read_hits") + v.value_or("cache.d.write_hits");
      d_all += v.value_or("cache.d.read_hits") + v.value_or("cache.d.write_hits") +
               v.value_or("cache.d.read_misses") + v.value_or("cache.d.write_misses");
      i_hit += v.value_or("cache.i.read_hits");
      i_all += v.value_or("cache.i.read_hits") + v.value_or("cache.i.read_misses");
    }
  }
  rep.metric("sim.run_mips", static_cast<double>(run_instr) / (run_ms * 1e3), "MIPS");
  rep.metric("ctrl.load_ms", median(load_ms), "ms");
  rep.metric("ctrl.readback_ms", median(read_ms), "ms");
  rep.metric("cache.dcache_hit_ratio", d_all > 0 ? d_hit / d_all : 0, "ratio");
  rep.metric("cache.icache_hit_ratio", i_all > 0 ? i_hit / i_all : 0, "ratio");
  rep.metric("mem.sdram_reads", sdram_r, "count");
  rep.metric("mem.sdram_writes", sdram_w, "count");
  rep.metric("mem.bus_data_transfers", bus, "count");
  rep.metric("sim.cycles", cycles, "cycles");
  rep.metric("sim.ipc", cpu_cycles > 0 ? instr / cpu_cycles : 0, "ratio");
  rep.note("simulated totals are over one pass of " + std::to_string(jobs.size()) +
           " jobs; absolute cycles are unvalidated (the Fig 8 cells are "
           "illegible in the paper's scan), only their repeatability is checked");

  // Snapshot cost on a node holding a loaded program: the state the
  // warm-start pool captures after every LOAD.
  std::vector<double> snap_ms, validate_ms, restore_ms;
  double bytes = 0;
  std::size_t k = 0;
  const auto ts = Clock::now();
  while (k < 3 || secs_since(ts) < 0.3 * budget_s) {
    const BenchJob& j = jobs[k++ % jobs.size()];
    ++rep.attempted;
    if (!nr.load(j)) {
      rep.fail(j.label() + ": load for snapshot failed");
      continue;
    }
    auto t = Clock::now();
    const la::sim::SystemSnapshot snap = nr.node().snapshot();
    snap_ms.push_back(ms_since(t));
    t = Clock::now();
    std::string err;
    const bool valid = la::sim::SystemSnapshot::validate(snap.data, &err);
    validate_ms.push_back(ms_since(t));
    t = Clock::now();
    const bool restored = valid && nr.node().restore(snap, &err);
    restore_ms.push_back(ms_since(t));
    if (!restored) rep.fail(j.label() + ": snapshot round trip failed: " + err);
    bytes = static_cast<double>(snap.size_bytes());
  }
  rep.metric("sim.snapshot_ms", median(snap_ms), "ms");
  rep.metric("sim.validate_ms", median(validate_ms), "ms");
  rep.metric("sim.restore_ms", median(restore_ms), "ms");
  rep.metric("sim.snapshot_bytes", bytes, "bytes");
}

void probe_liquid(const std::function<BenchJob()>& next, std::size_t max_jobs,
                  double budget_s, Report& rep) {
  la::sim::LiquidSystem node;
  la::liquid::ReconfigurationCache cache;
  la::liquid::SynthesisModel syn;
  cache.pregenerate(every_config(), syn);
  la::liquid::ServerConfig sc;
  sc.client = long_job_client();
  la::liquid::ReconfigurationServer server(node, cache, syn, sc);
  la::sim::SnapshotPool pool;
  server.set_warm_pool(&pool);
  node.run(100);

  std::vector<double> ms;
  u64 jobs = 0, reconfigured = 0, warm = 0, prog_hits = 0;
  bool key_scheme_ok = true;
  const auto t0 = Clock::now();
  while (jobs < max_jobs && (jobs < 4 || secs_since(t0) < budget_s)) {
    const BenchJob j = fleet_view(next());
    const std::string key = prog_key(j);
    const bool hit = pool.contains(key);
    ++rep.attempted;
    const auto t = Clock::now();
    const la::liquid::JobResult r =
        server.run_job(j.config, *j.image, j.result_addr, j.result_words);
    ms.push_back(ms_since(t));
    ++jobs;
    reconfigured += r.reconfigured ? 1 : 0;
    warm += r.warm_start ? 1 : 0;
    prog_hits += hit ? 1 : 0;
    if (!hit && !pool.contains(key)) key_scheme_ok = false;
    if (!r.ok) {
      rep.fail(j.label() + ": " + r.error);
    } else if (const std::string why = verify(j, r.readback, 0); !why.empty()) {
      rep.fail(why);
    }
  }
  const double n = static_cast<double>(jobs);
  const double pool_bytes = static_cast<double>(pool.bytes());
  rep.metric("liquid.run_job_ms_p50", percentile(ms, 0.50), "ms");
  rep.metric("liquid.run_job_ms_p95", percentile(ms, 0.95), "ms");
  rep.metric("liquid.reconfig_ratio", static_cast<double>(reconfigured) / n, "ratio");
  rep.metric("liquid.warm_start_ratio", static_cast<double>(warm) / n, "ratio");
  rep.metric("sim.pool_bytes", pool_bytes, "bytes");
  rep.metric("sim.pool_bytes_per_job", pool_bytes / n, "bytes");
  rep.metric("sim.pool_hit_ratio", static_cast<double>(prog_hits) / n, "ratio");
  const la::sim::SnapshotPool::Stats ps = pool.stats();
  rep.note("liquid: " + std::to_string(jobs) + " jobs on one server; pool holds " +
           std::to_string(pool.size()) + " snapshots; SnapshotPool::stats hits " +
           std::to_string(ps.hits) + " misses " + std::to_string(ps.misses) +
           " inserts " + std::to_string(ps.inserts));
  if (!key_scheme_ok) {
    rep.invalid("sim.pool_hit_ratio: the server's prog| key no longer matches the "
                "benchmark's copy of the key scheme");
  }
}

void probe_farm(const std::function<std::vector<BenchJob>()>& round_jobs,
                std::size_t nodes, unsigned callers, double budget_s, Report& rep) {
  struct Side {
    u64 jobs = 0;
    double secs = 0;
  } plain, traced;
  std::map<std::string, std::vector<double>> phase_ms;
  double attributed_s = 0, worker_s = 0, host_s = 0;
  u64 picks = 0, affinity = 0, cold_loads = 0, rounds = 0;
  double rss_per_job = 0;
  const auto t0 = Clock::now();
  while (rounds < 2 || (secs_since(t0) < budget_s && rounds < 64)) {
    const bool tracing = rounds % 2 == 1;  // alternate: untraced, traced, ...
    std::vector<BenchJob> jobs = round_jobs();
    la::farm::LiquidFarm farm(farm_config(nodes, tracing));
    pregenerate(farm);
    const FarmRound r = run_farm_round(farm, std::move(jobs), callers, rep);
    Side& side = tracing ? traced : plain;
    side.jobs += r.verified;
    side.secs += r.window_s;
    if (rounds == 0 && r.verified > 0) {
      rss_per_job = r.rss_growth_mb / static_cast<double>(r.verified);
    }
    if (tracing) {
      for (const la::trace::Span& s : farm.span_log().spans()) {
        if (s.name == "job") continue;  // the root covers the whole journey
        phase_ms[s.name].push_back(s.dur_us / 1000.0);
        if (s.name != "queue_wait") attributed_s += s.dur_us / 1e6;
        if (s.name == "load" && s.note != "warm_start") ++cold_loads;
      }
      worker_s += static_cast<double>(nodes) * r.window_s;
      host_s += farm.report().host_seconds;
      const auto st = farm.scheduler_stats();
      picks += st.picks;
      affinity += st.affinity_hits;
    }
    ++rounds;
  }
  for (const char* phase : {"queue_wait", "reconfigure", "load", "run", "readback"}) {
    const auto it = phase_ms.find(phase);
    rep.metric(std::string("farm.phase.") + phase + "_ms",
               it == phase_ms.end() ? 0.0 : median(it->second), "ms");
  }
  rep.metric("farm.unattributed_share", 1.0 - attributed_s / worker_s, "ratio");
  rep.metric("farm.idle_share", 1.0 - host_s / worker_s, "ratio");
  // Every cold LOAD is followed by a post-LOAD capture outside the load
  // span: price those captures at the node probe's snapshot median.
  const double snap_ms = rep.value("sim.snapshot_ms");
  rep.metric("farm.capture_share_est",
             static_cast<double>(cold_loads) * snap_ms / 1000.0 / worker_s, "ratio");
  rep.metric("farm.affinity_hit_ratio",
             picks ? static_cast<double>(affinity) / static_cast<double>(picks) : 0,
             "ratio");
  const double plain_rate = static_cast<double>(plain.jobs) / plain.secs;
  const double traced_rate = static_cast<double>(traced.jobs) / traced.secs;
  rep.metric("farm.trace_overhead", 1.0 - traced_rate / plain_rate, "ratio");
  rep.metric("farm.rss_mb_per_job", rss_per_job, "MB");
  rep.note("farm: " + std::to_string(rounds) + " rounds on " + std::to_string(nodes) +
           " nodes; untraced " + std::to_string(plain_rate) + " jobs/s, traced " +
           std::to_string(traced_rate) + " jobs/s; " + std::to_string(cold_loads) +
           " cold loads in traced rounds");
}

void probe_gate(const std::vector<BenchJob>& warm, const std::function<BenchJob()>& next,
                double rate, double seconds, double limit_ms, u64 seed, Report& rep) {
  GateRig rig(true, seed, warm, rep);
  const GateRun g = rig.run(next, rate, seconds, limit_ms, rep);
  const la::metrics::Snapshot m = rig.stop();
  const auto h = m.histograms.find("gate.job_ms");
  const bool have = h != m.histograms.end();
  double e2e_mean = 0;
  for (const double v : g.e2e_ms) e2e_mean += v / static_cast<double>(g.e2e_ms.size());
  rep.metric("gate.admit_ms_p50", percentile(g.admit_ms, 0.50), "ms");
  rep.metric("gate.admit_ms_p95", percentile(g.admit_ms, 0.95), "ms");
  rep.metric("gate.job_ms_p50", have ? histogram_median(h->second) : 0.0, "ms");
  // Means, both exact: the gateway keeps moments beside its buckets.
  rep.metric("gate.self_ms", e2e_mean - (have ? h->second.mean : 0.0), "ms");
  rep.metric("gate.retry_after",
             m.value_or("gate.retry_after.rate") + m.value_or("gate.retry_after.busy") +
                 m.value_or("gate.retry_after.farm"),
             "count");
  rep.metric("gate.dup_submits", m.value_or("gate.dup_submits"), "count");
  rep.metric("gate.gen_late_ms_p95", percentile(g.late_ms, 0.95), "ms");
  rep.note("gate: " + std::to_string(g.verified) + "/" + std::to_string(g.attempted) +
           " verified at " + std::to_string(rate) + " req/s; gate.job_ms_p50 is "
           "interpolated in the gateway's power-of-two histogram; gate.self_ms is "
           "the mean end-to-end time minus the gateway's mean job time");
}

}  // namespace labench
