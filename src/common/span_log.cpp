#include "common/span_log.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace la::trace {

u64 mix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x = x ^ (x >> 31);
  return x == 0 ? 1 : x;  // 0 is the "no trace" sentinel
}

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

TraceContext SpanLog::mint() {
  const std::lock_guard<std::mutex> lk(mu_);
  TraceContext c;
  c.trace_id = mix64(next_id_++);
  c.span_id = c.trace_id;
  c.parent_span_id = 0;
  return c;
}

TraceContext SpanLog::child(const TraceContext& parent) {
  const std::lock_guard<std::mutex> lk(mu_);
  TraceContext c;
  c.trace_id = parent.trace_id;
  c.span_id = mix64(next_id_++);
  c.parent_span_id = parent.span_id;
  return c;
}

double SpanLog::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void SpanLog::add(Span s) {
  const std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

void SpanLog::set_process_name(u32 pid, std::string name) {
  const std::lock_guard<std::mutex> lk(mu_);
  process_names_[pid] = std::move(name);
}

void SpanLog::set_thread_name(u32 pid, u32 tid, std::string name) {
  const std::lock_guard<std::mutex> lk(mu_);
  thread_names_[{pid, tid}] = std::move(name);
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::size_t SpanLog::size() const {
  const std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

namespace {

void append_span_fields(std::string& out, const Span& s) {
  out += "\"trace_id\":\"";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(s.trace_id));
  out += buf;
  out += "\",\"span_id\":\"";
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(s.span_id));
  out += buf;
  out += "\",\"parent_span_id\":\"";
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(s.parent_span_id));
  out += buf;
  out += '"';
}

void append_cycle_fields(std::string& out, const Span& s) {
  if (s.start_cycle != 0) {
    out += ",\"start_cycle\":";
    metrics::append_json_number(out, static_cast<double>(s.start_cycle));
  }
  if (s.cycle != 0) {
    out += ",\"cycle\":";
    metrics::append_json_number(out, static_cast<double>(s.cycle));
  }
}

bool write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

std::string SpanLog::to_chrome_json() const {
  std::vector<Span> spans;
  std::map<u32, std::string> procs;
  std::map<std::pair<u32, u32>, std::string> threads;
  {
    const std::lock_guard<std::mutex> lk(mu_);
    spans = spans_;
    procs = process_names_;
    threads = thread_names_;
  }
  // Chrome sorts complete events itself, but a time-ordered file diffs
  // and greps better.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) {
                     return a.start_us < b.start_us;
                   });

  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (const auto& [pid, name] : procs) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":";
    metrics::append_json_string(out, name);
    out += "}}";
  }
  for (const auto& [key, name] : threads) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(key.first);
    out += ",\"tid\":";
    out += std::to_string(key.second);
    out += ",\"args\":{\"name\":";
    metrics::append_json_string(out, name);
    out += "}}";
  }
  for (const Span& s : spans) {
    if (!first) out += ",\n";
    first = false;
    out += "{\"name\":";
    metrics::append_json_string(out, s.name);
    out += ",\"cat\":\"liquid\",\"ph\":\"X\",\"ts\":";
    metrics::append_json_number(out, s.start_us);
    out += ",\"dur\":";
    metrics::append_json_number(out, s.dur_us);
    out += ",\"pid\":";
    out += std::to_string(s.pid);
    out += ",\"tid\":";
    out += std::to_string(s.tid);
    out += ",\"args\":{";
    append_span_fields(out, s);
    if (!s.note.empty()) {
      out += ",\"note\":";
      metrics::append_json_string(out, s.note);
    }
    append_cycle_fields(out, s);
    out += "}}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string SpanLog::to_jsonl() const {
  const std::vector<Span> spans = this->spans();
  std::string out;
  for (const Span& s : spans) {
    out += '{';
    append_span_fields(out, s);
    out += ",\"name\":";
    metrics::append_json_string(out, s.name);
    out += ",\"pid\":";
    out += std::to_string(s.pid);
    out += ",\"tid\":";
    out += std::to_string(s.tid);
    out += ",\"start_us\":";
    metrics::append_json_number(out, s.start_us);
    out += ",\"dur_us\":";
    metrics::append_json_number(out, s.dur_us);
    append_cycle_fields(out, s);
    if (!s.note.empty()) {
      out += ",\"note\":";
      metrics::append_json_string(out, s.note);
    }
    out += "}\n";
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  return write_text(path, to_chrome_json());
}

bool SpanLog::write_jsonl(const std::string& path) const {
  return write_text(path, to_jsonl());
}

void SpanLog::observe_phase_latencies(metrics::MetricsRegistry& reg,
                                      const std::string& prefix) const {
  const std::vector<Span> spans = this->spans();
  std::map<std::string, std::vector<double>> by_phase;
  for (const Span& s : spans) by_phase[s.name].push_back(s.dur_us);
  for (auto& [phase, durs] : by_phase) {
    metrics::Histogram& h = reg.histogram(prefix + phase + "_us");
    for (const double d : durs) h.observe(d);
    std::sort(durs.begin(), durs.end());
    const auto pct = [&](double q) {
      std::size_t i =
          static_cast<std::size_t>(std::ceil(q * static_cast<double>(durs.size())));
      if (i > 0) --i;
      if (i >= durs.size()) i = durs.size() - 1;
      return durs[i];
    };
    reg.gauge(prefix + phase + ".p50_us").set(pct(0.50));
    reg.gauge(prefix + phase + ".p95_us").set(pct(0.95));
    reg.gauge(prefix + phase + ".p99_us").set(pct(0.99));
  }
}

void JobTrace::phase(const std::string& name, double start_us, double end_us,
                     u64 cycle, const std::string& note) const {
  if (!active()) return;
  Span s;
  s.trace_id = ctx.trace_id;
  s.span_id = log->child(ctx).span_id;
  s.parent_span_id = ctx.span_id;
  s.name = name;
  s.note = note;
  s.pid = pid;
  s.tid = tid;
  s.start_us = start_us;
  s.dur_us = end_us > start_us ? end_us - start_us : 0.0;
  s.cycle = cycle;
  log->add(s);
}

}  // namespace la::trace
