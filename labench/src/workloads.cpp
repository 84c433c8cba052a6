#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "farm/workload.hpp"
#include "gate/jobwire.hpp"
#include "jobs.hpp"
#include "probes.hpp"

namespace labench {

namespace {

double secs_since(Clock::time_point t0) { return ms_since(t0) / 1000.0; }

/// Set-up builds per run (half before the measurement, half after, so a
/// burst of host contention cannot own them all); setup_s is their median.
constexpr int kSetupRepeats = 9;

/// Times a workload's set-up: everything a user pays once before the first
/// timed job (building jobs, nodes, farm, gateway; booting; warming the
/// pool).  build() keeps its rig; spare() builds and drops one.
template <typename Rig, typename Make>
class SetupTimer {
 public:
  explicit SetupTimer(Make make) : make_(std::move(make)) {}
  std::unique_ptr<Rig> build() {
    trim_heap();  // every sample starts from the same allocator state
    const auto t0 = Clock::now();
    std::unique_ptr<Rig> rig = make_();
    samples_.push_back(secs_since(t0));
    return rig;
  }
  void spare(int n) {
    for (int i = 0; i < n; ++i) build().reset();
  }
  double median_s() const { return median(samples_); }

 private:
  Make make_;
  std::vector<double> samples_;
};

template <typename Rig, typename Make>
SetupTimer<Rig, Make> setup_timer(Make make) {
  return SetupTimer<Rig, Make>(std::move(make));
}

/// The repeats of one run's measurement (sweeps, rounds or windows), each
/// with its own rates, latency percentiles and peak memory.  End-to-end
/// metrics are medians over repeats: host contention that lasts less than
/// half the run leaves them where they were.
struct Repeats {
  std::vector<double> mips, jobs, goodput, p50, p95, rss;
  std::size_t samples = 0;

  void add(double mips_, double jobs_, double goodput_,
           const std::vector<double>& latency_ms, double rss_mb) {
    mips.push_back(mips_);
    jobs.push_back(jobs_);
    goodput.push_back(goodput_);
    p50.push_back(percentile(latency_ms, 0.50));
    p95.push_back(percentile(latency_ms, 0.95));
    rss.push_back(rss_mb);
    samples += latency_ms.size();
  }
};

/// The workload's threads must fit the host, and be exactly the planned
/// ones (no stray pool or leftover farm competing for cores).
void check_threads(int planned, Report& rep) {
  const int cores = host_cores();
  const int now = thread_count();
  if (planned > cores) {
    rep.invalid("workload needs " + std::to_string(planned) + " threads, host has " +
                std::to_string(cores) + " cores");
  }
  if (now != planned) {
    rep.invalid("running " + std::to_string(now) + " threads, planned " +
                std::to_string(planned));
  }
}

void end_to_end(Report& rep, double setup_s, const Repeats& r) {
  rep.metric("setup_s", setup_s, "s");
  rep.metric("peak_rss_mb", median(r.rss), "MB");
  rep.metric("sim_mips", median(r.mips), "MIPS");
  rep.metric("jobs_per_s", median(r.jobs), "1/s");
  rep.metric("job_p50_ms", median(r.p50), "ms");
  rep.metric("job_p95_ms", median(r.p95), "ms");
  rep.metric("goodput_rps", median(r.goodput), "1/s");
  rep.note("medians over " + std::to_string(r.p50.size()) + " repeats; " +
           std::to_string(r.samples) + " latency samples");
}

template <typename T>
void shuffle(std::vector<T>& v, la::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(static_cast<u32>(i))]);
  }
}

/// Count every job's kernel instructions once on the bare pipeline.
void count_instructions(std::vector<BenchJob>& jobs) {
  for (BenchJob& j : jobs) {
    const BareRun b = run_bare(j);
    if (!b.halted) throw std::runtime_error(j.label() + " never halts on the bare pipeline");
    j.instructions = b.instructions;
  }
}

/// Spread a job list over `callers` owners: the farm runs one job per
/// owner at a time, so a single owner would serialize the whole fleet.
std::vector<BenchJob> with_owners(std::vector<BenchJob> jobs, unsigned callers) {
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].owner = "user" + std::to_string(i % callers);
  }
  return jobs;
}

// ---- kernels ----

/// Lanes the kernels workload runs side by side: each is one thread
/// driving its own LiquidSystem (no farm, no pool, no snapshots).  The cores
/// of a shared host run at different speeds from moment to moment; giving
/// every core the same work keeps one slow core from deciding the result.
int kernel_lanes() { return std::min(4, host_cores()); }

struct KernelRig {
  std::vector<BenchJob> jobs;
  std::vector<std::unique_ptr<NodeRunner>> lanes;
  std::size_t recorded = 0;
  explicit KernelRig(const Options& o)
      : jobs(kernel_jobs(o.progs)), recorded(load_expected(o.expected, jobs)) {
    for (int i = 0; i < kernel_lanes(); ++i) lanes.push_back(std::make_unique<NodeRunner>());
  }
};

/// One lane's share of a round: every (kernel, config) once, in `order`.
struct LaneSweep {
  std::vector<double> latency;
  double busy_ms = 0, instructions = 0;
  u64 attempted = 0, good = 0;
  std::vector<std::string> failures;
  std::map<u32, u64> fig7;  // D-cache bytes -> fig7 run cycles
};

LaneSweep run_lane(NodeRunner& node, const std::vector<BenchJob>& jobs,
                   const std::vector<std::size_t>& order, double limit_ms) {
  LaneSweep out;
  for (const std::size_t i : order) {
    const BenchJob& job = jobs[i];
    const NodeJob r = node.run(job);
    ++out.attempted;
    std::string why = r.ok ? verify(job, r.words, r.run_cycles) : r.error;
    if (!why.empty()) {
      out.failures.push_back(std::move(why));
      continue;
    }
    out.latency.push_back(r.total_ms);
    out.busy_ms += r.total_ms;
    out.instructions += static_cast<double>(job.instructions);
    if (r.total_ms <= limit_ms) ++out.good;
    if (job.kernel == "fig7") out.fig7[job.config.dcache_bytes] = r.run_cycles;
  }
  return out;
}

/// The paper's Fig 8 claim on the Fig 7 kernel: 1 KB = 2 KB > 4 KB = 8 KB
/// = 16 KB (the 4 KB array thrashes the small caches and fits the rest).
void check_fig7_shape(const std::map<u32, u64>& c, Report& rep) {
  if (c.size() != 5) {
    rep.invalid("fig7 sweep incomplete");
    return;
  }
  const u64 k1 = c.at(1024), k2 = c.at(2048), k4 = c.at(4096), k8 = c.at(8192),
            k16 = c.at(16384);
  const bool held = k1 == k2 && k2 > k4 && k4 == k8 && k8 == k16;
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "fig7 run cycles at 1/2/4/8/16 KB D-cache: %llu %llu %llu %llu %llu; "
                "paper shape 1 KB = 2 KB > 4 KB = 8 KB = 16 KB %s",
                static_cast<unsigned long long>(k1), static_cast<unsigned long long>(k2),
                static_cast<unsigned long long>(k4), static_cast<unsigned long long>(k8),
                static_cast<unsigned long long>(k16), held ? "holds" : "BROKEN");
  rep.note(buf);
  if (!held) rep.fail("fig7 sweep lost the paper's shape claim");
}

void traced_kernels(const Options& o, KernelRig& rig, Report& rep) {
  const double s = o.seconds;
  const std::vector<BenchJob>& jobs = rig.jobs;
  probe_isa(jobs, 0.05 * s, rep);
  probe_cpu(jobs, 0.15 * s, rep);
  probe_node(jobs, 0.30 * s, rep);
  la::Rng rng(o.seed);
  std::vector<BenchJob> order = jobs;
  std::size_t pos = 0;
  const auto next = [&]() -> BenchJob {
    if (pos % order.size() == 0) shuffle(order, rng);
    return order[pos++ % order.size()];
  };
  probe_liquid(next, 2 * jobs.size(), 0.15 * s, rep);
  probe_farm([&] {
    std::vector<BenchJob> round = jobs;
    shuffle(round, rng);
    return with_owners(std::move(round), 4);
  }, 2, 4, 0.20 * s, rep);
  std::vector<BenchJob> small;  // the kernels that fit one gateway frame
  for (const BenchJob& j : jobs) {
    if (j.image->data.size() <= la::gate::kMaxJobImageBytes) small.push_back(j);
  }
  rep.note("gate probe on kernels: " + std::to_string(small.size()) + " of " +
           std::to_string(jobs.size()) + " jobs fit one gateway frame");
  probe_gate(small, [&] { return small[rng.below(static_cast<u32>(small.size()))]; },
             8, 0.10 * s, o.gate_limit_ms, o.seed, rep);
}

}  // namespace

void run_kernels(const Options& o, Report& rep) {
  auto setup = setup_timer<KernelRig>([&] { return std::make_unique<KernelRig>(o); });
  setup.spare(kSetupRepeats / 2);
  std::unique_ptr<KernelRig> rig = setup.build();
  if (rig->recorded != rig->jobs.size()) {
    rep.invalid("recorded kernel values cover " + std::to_string(rig->recorded) + " of " +
                std::to_string(rig->jobs.size()) + " jobs (" + o.expected + ")");
  }
  if (o.trace) {
    traced_kernels(o, *rig, rep);
    return;
  }
  const int lanes = static_cast<int>(rig->lanes.size());
  const std::size_t rig_jobs = rig->jobs.size();
  // No stray threads; the lanes (main thread + lanes - 1) fit the cores by
  // construction.
  check_threads(1, rep);
  la::Rng rng(o.seed);
  Repeats reps;
  std::map<u32, u64> fig7;
  const auto t0 = Clock::now();
  do {  // one repeat = one round: every lane sweeps every (kernel, config)
    std::vector<std::vector<std::size_t>> orders(lanes);
    for (auto& order : orders) {
      order.resize(rig->jobs.size());
      std::iota(order.begin(), order.end(), 0);
      shuffle(order, rng);
    }
    reset_peak_rss(true);
    std::vector<LaneSweep> sweeps(lanes);
    {
      std::vector<std::jthread> helpers;
      for (int k = 1; k < lanes; ++k) {
        helpers.emplace_back([&, k] {
          sweeps[k] = run_lane(*rig->lanes[k], rig->jobs, orders[k], o.gate_limit_ms);
        });
      }
      sweeps[0] = run_lane(*rig->lanes[0], rig->jobs, orders[0], o.gate_limit_ms);
    }
    std::vector<double> latency;
    double busy_ms = 0, instructions = 0;
    u64 good = 0;
    for (LaneSweep& l : sweeps) {
      rep.attempted += l.attempted;
      for (const std::string& f : l.failures) rep.fail(f);
      latency.insert(latency.end(), l.latency.begin(), l.latency.end());
      busy_ms += l.busy_ms;
      instructions += l.instructions;
      good += l.good;
    }
    if (reps.jobs.empty()) fig7 = sweeps[0].fig7;
    // Per node: instructions and jobs over the lanes' summed busy time.
    const double busy_s = busy_ms / 1000.0;
    reps.add(instructions / (busy_s * 1e6), static_cast<double>(latency.size()) / busy_s,
             static_cast<double>(good) / busy_s, latency, peak_rss_mb());
  } while (secs_since(t0) < o.seconds);
  const double window = secs_since(t0);
  check_fig7_shape(fig7, rep);
  rig.reset();
  setup.spare(kSetupRepeats - 1 - kSetupRepeats / 2);
  end_to_end(rep, setup.median_s(), reps);
  rep.note("repeats: set-up x" + std::to_string(kSetupRepeats) + ", " +
           std::to_string(reps.jobs.size()) + " rounds of " + std::to_string(lanes) +
           " lanes x " + std::to_string(rig_jobs) + " jobs in " + std::to_string(window) +
           " s");
}

int record_kernels(const Options& o) {
  std::vector<BenchJob> jobs = kernel_jobs(o.progs);
  count_instructions(jobs);
  NodeRunner nr;
  // Two passes in opposite orders: a recorded value must not depend on
  // which job ran before it.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      BenchJob& j = jobs[pass == 0 ? k : jobs.size() - 1 - k];
      const NodeJob r = nr.run(j);
      // The second pass checks the first pass's cycles.
      const std::string why = r.ok ? verify(j, r.words, r.run_cycles) : r.error;
      if (!why.empty()) {
        std::fprintf(stderr, "labench: %s\n", why.c_str());
        return 1;
      }
      j.run_cycles = r.run_cycles;
    }
  }
  if (!write_expected(o.expected, jobs)) {
    std::fprintf(stderr, "labench: cannot write %s\n", o.expected.c_str());
    return 1;
  }
  std::fprintf(stderr, "labench: recorded %zu jobs into %s\n", jobs.size(),
               o.expected.c_str());
  return 0;
}

// ---- farm_zipf ----

namespace {

constexpr std::size_t kZipfNodes = 3;
constexpr unsigned kZipfCallers = 6;
/// Jobs per farm lifetime.  The warm pool never evicts and every job here
/// publishes a fresh ~6 MB post-LOAD snapshot, so one farm grows without
/// bound; each round of this many jobs gets a fresh farm to fit the host.
constexpr std::size_t kRoundJobs = 96;

/// The seeded farm::WorkloadGenerator stream, each job's kernel
/// instructions counted on the bare pipeline before it is submitted.
struct ZipfStream {
  la::farm::WorkloadGenerator gen;
  explicit ZipfStream(u64 seed) : gen([seed] {
    la::farm::WorkloadConfig c;
    c.seed = seed;
    return c;
  }()) {}
  BenchJob next() {
    std::vector<BenchJob> one{from_generated(gen.next())};
    count_instructions(one);
    return std::move(one[0]);
  }
  std::vector<BenchJob> round(std::size_t n) {
    std::vector<BenchJob> jobs;
    for (std::size_t i = 0; i < n; ++i) jobs.push_back(next());
    return jobs;
  }
};

struct ZipfRig {
  ZipfStream stream;
  std::unique_ptr<la::farm::LiquidFarm> farm;
  std::vector<BenchJob> jobs;
  explicit ZipfRig(u64 seed)
      : stream(seed),
        farm(std::make_unique<la::farm::LiquidFarm>(farm_config(kZipfNodes, false))) {
    pregenerate(*farm);
    jobs = stream.round(kRoundJobs);
    farm->report();  // returns once every node has booted: boot is set-up
  }
};

void traced_zipf(const Options& o, Report& rep) {
  const double s = o.seconds;
  const std::vector<BenchJob> sample = ZipfStream(o.seed).round(40);
  probe_isa(sample, 0.03 * s, rep);
  probe_cpu(sample, 0.05 * s, rep);
  probe_node(sample, 0.12 * s, rep);
  ZipfStream liquid_stream(o.seed);
  probe_liquid([&] { return liquid_stream.next(); }, 100, 0.15 * s, rep);
  ZipfStream farm_stream(o.seed);
  probe_farm([&] { return farm_stream.round(kRoundJobs); }, kZipfNodes, kZipfCallers,
             0.50 * s, rep);
  ZipfStream gate_stream(o.seed);
  probe_gate({}, [&] { return gate_stream.next(); }, 20, 0.15 * s, o.gate_limit_ms,
             o.seed, rep);
}

}  // namespace

void run_farm_zipf(const Options& o, Report& rep) {
  if (o.trace) {
    traced_zipf(o, rep);
    return;
  }
  auto setup = setup_timer<ZipfRig>([&] { return std::make_unique<ZipfRig>(o.seed); });
  setup.spare(kSetupRepeats / 2);
  reset_peak_rss(true);
  std::unique_ptr<ZipfRig> rig = setup.build();
  Repeats reps;
  double window = 0;
  while (reps.jobs.empty() || window < o.seconds) {
    if (!reps.jobs.empty()) {  // untimed: a fresh farm, the stream's next round
      rig->farm.reset();
      reset_peak_rss(true);
      rig->farm = std::make_unique<la::farm::LiquidFarm>(farm_config(kZipfNodes, false));
      pregenerate(*rig->farm);
      rig->jobs = rig->stream.round(kRoundJobs);
    }
    check_threads(1 + static_cast<int>(kZipfNodes), rep);
    const FarmRound r =
        run_farm_round(*rig->farm, std::move(rig->jobs), kZipfCallers, rep);
    window += r.window_s;
    u64 good = 0;
    for (const double l : r.latency_ms) good += l <= o.gate_limit_ms ? 1 : 0;
    if (reps.jobs.empty()) {
      char buf[200];
      std::snprintf(buf, sizeof buf,
                    "warm pool: resident memory grew %.0f MB over the first %zu "
                    "jobs (%.2f MB per job); the pool never evicts",
                    r.rss_growth_mb, kRoundJobs,
                    r.rss_growth_mb / static_cast<double>(kRoundJobs));
      rep.note(buf);
    }
    reps.add(static_cast<double>(r.instructions) / (r.window_s * 1e6),
             static_cast<double>(r.verified) / r.window_s,
             static_cast<double>(good) / r.window_s, r.latency_ms, peak_rss_mb());
  }
  rig.reset();
  setup.spare(kSetupRepeats - 1 - kSetupRepeats / 2);
  end_to_end(rep, setup.median_s(), reps);
  rep.note("repeats: set-up x" + std::to_string(kSetupRepeats) + ", " +
           std::to_string(reps.jobs.size()) + " rounds of " + std::to_string(kRoundJobs) +
           " jobs, each on a fresh " + std::to_string(kZipfNodes) + "-node farm, " +
           std::to_string(kZipfCallers) + " callers closed loop, " +
           std::to_string(window) + " s timed");
}

// ---- gate_sweep ----

namespace {

struct GateSweepRig {
  std::vector<BenchJob> jobs;
  std::unique_ptr<GateRig> rig;
  GateSweepRig(const Options& o, Report& rep) : jobs(gate_jobs(o.progs)) {
    count_instructions(jobs);
    rig = std::make_unique<GateRig>(false, o.seed, jobs, rep);
  }
};

void traced_gate(const Options& o, const std::vector<BenchJob>& jobs, Report& rep) {
  const double s = o.seconds;
  la::Rng rng(o.seed ^ 0x5eedull);
  const auto pick = [&] { return jobs[rng.below(static_cast<u32>(jobs.size()))]; };
  probe_isa(jobs, 0.03 * s, rep);
  probe_cpu(jobs, 0.05 * s, rep);
  probe_node(jobs, 0.12 * s, rep);
  probe_liquid(pick, 400, 0.10 * s, rep);
  probe_farm([&] {
    std::vector<BenchJob> round;
    for (int i = 0; i < 96; ++i) round.push_back(pick());
    return with_owners(std::move(round), 6);
  }, 2, 6, 0.20 * s, rep);
  probe_gate(jobs, pick, o.gate_rate, 0.50 * s, o.gate_limit_ms, o.seed, rep);
}

}  // namespace

void run_gate_sweep(const Options& o, Report& rep) {
  auto setup = setup_timer<GateSweepRig>([&] { return std::make_unique<GateSweepRig>(o, rep); });
  setup.spare(kSetupRepeats / 2);
  std::unique_ptr<GateSweepRig> rig = setup.build();
  if (o.trace) {
    const std::vector<BenchJob> jobs = rig->jobs;
    rig.reset();  // the probes build their own farms and gateway
    traced_gate(o, jobs, rep);
    return;
  }
  // The farm workers, the gateway loop and this generator.
  check_threads(static_cast<int>(GateRig::kGateNodes) + 2, rep);
  // Every request kind equally often, in seeded order: the mix (and so
  // the simulated work per second) is the same for every seed.
  la::Rng rng(o.seed ^ 0x5eedull);
  std::vector<BenchJob> order = rig->jobs;
  std::size_t pos = 0;
  const GateRun g = rig->rig->run(
      [&] {
        if (pos % order.size() == 0) shuffle(order, rng);
        return order[pos++ % order.size()];
      },
      o.gate_rate, o.seconds, o.gate_limit_ms, rep);
  const la::metrics::Snapshot m = rig->rig->stop();
  rig.reset();
  setup.spare(kSetupRepeats - 1 - kSetupRepeats / 2);
  // Latency counts from the due time, so a late generator cannot hide
  // delay; but beyond a tenth of the limit the arrival process is no
  // longer the one the run claims to offer.
  const double late_p95 = percentile(g.late_ms, 0.95);
  if (late_p95 > 0.1 * o.gate_limit_ms) {
    rep.invalid("generator ran " + std::to_string(late_p95) +
                " ms behind its schedule (p95)");
  }
  // One open-loop run.  Rates are over all of it (the arrival count is
  // fixed, so they only move when requests fail or run late).  Latency
  // percentiles are medians over windows of kLatencyWindowMs by due time,
  // and memory the median of one-second peaks, like the other workloads'
  // repeats.
  constexpr double kLatencyWindowMs = 2000;
  Repeats reps;
  reps.mips = {static_cast<double>(g.instructions) / (g.window_s * 1e6)};
  reps.jobs = {static_cast<double>(g.verified) / g.window_s};
  reps.goodput = {static_cast<double>(g.good) / g.window_s};
  std::map<long, std::vector<double>> windows;
  for (std::size_t i = 0; i < g.e2e_ms.size(); ++i) {
    windows[static_cast<long>(g.due_ms[i] / kLatencyWindowMs)].push_back(g.e2e_ms[i]);
  }
  for (const auto& [w, latency] : windows) {
    reps.p50.push_back(percentile(latency, 0.50));
    reps.p95.push_back(percentile(latency, 0.95));
  }
  reps.rss = g.window_peak_mb.empty() ? std::vector<double>{peak_rss_mb()} : g.window_peak_mb;
  reps.samples = g.e2e_ms.size();
  end_to_end(rep, setup.median_s(), reps);
  char buf[320];
  std::snprintf(buf, sizeof buf,
                "open loop: %llu requests at %.1f/s over %.1f s, %llu verified, %llu "
                "within %.0f ms; generator late p95 %.3f ms; %llu RETRY_AFTER frames, "
                "%.0f duplicate submits",
                static_cast<unsigned long long>(g.attempted), o.gate_rate, g.schedule_s,
                static_cast<unsigned long long>(g.verified),
                static_cast<unsigned long long>(g.good), o.gate_limit_ms, late_p95,
                static_cast<unsigned long long>(g.retry_frames),
                m.value_or("gate.dup_submits"));
  rep.note(buf);
  rep.note("repeats: set-up x" + std::to_string(kSetupRepeats) +
           " (farm, pool warm-up, gateway, sessions); one open-loop run, " +
           std::to_string(reps.p50.size()) + " latency windows, " +
           std::to_string(reps.rss.size()) + " memory windows");
}

}  // namespace labench
