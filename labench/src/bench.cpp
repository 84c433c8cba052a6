#include "bench.hpp"

#include <unistd.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace labench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t i = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (i > 0) --i;
  return v[std::min(i, v.size() - 1)];
}

namespace {

/// A "<key>: <n> kB" line of /proc/self/status, in MB.
double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string k;
  while (in >> k) {
    if (k == key) {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double peak_rss_mb() { return status_mb("VmHWM:"); }

void trim_heap() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

void reset_peak_rss(bool trim) {
  if (trim) trim_heap();
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

double current_rss_mb() {
  std::ifstream in("/proc/self/statm");
  long pages = 0, resident = 0;
  in >> pages >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") {
      int n = 0;
      in >> n;
      return n;
    }
  }
  return -1;
}

int host_cores() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.emplace_back(name, std::make_pair(value, unit));
}

double Report::value(const std::string& name) const {
  for (const auto& [n, v] : metrics) {
    if (n == name) return v.first;
  }
  return std::nan("");
}

void Report::fail(const std::string& what) {
  ++failed;
  correct = false;
  if (failed <= 10) notes.push_back("FAILED: " + what);
}

void Report::invalid(const std::string& why) {
  correct = false;
  notes.push_back("INVALID RUN: " + why);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += json_string(metrics[i].first) + ": {\"value\": " +
           json_number(metrics[i].second.first) +
           ", \"unit\": " + json_string(metrics[i].second.second) + "}";
  }
  out += "}, \"build_type\": " + json_string(build_type);
  out += ", \"compiler\": " + json_string(compiler);
  out += ", \"notes\": [";
  for (std::size_t i = 0; i < notes.size(); ++i) {
    if (i) out += ", ";
    out += json_string(notes[i]);
  }
  return out + "]}";
}

}  // namespace labench
