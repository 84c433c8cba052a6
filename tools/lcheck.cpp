// lcheck — schema checks for the observability artifacts the tools emit.
//
// CI wants "the trace is valid JSON with the lanes we promised" as an exit
// code, without pulling a JSON library into the build.  This is a small
// recursive-descent JSON parser plus one checker per artifact kind:
//
//   lcheck --json FILE             well-formed JSON document
//   lcheck --chrome-trace FILE     Chrome trace_event file: traceEvents
//                                  array, every event has ph/pid/tid, 'X'
//                                  events carry name/ts/dur
//   lcheck --min-pids N            with --chrome-trace: at least N distinct
//                                  pids (an N-node merged trace has one
//                                  process lane per node)
//   lcheck --spans FILE            span JSONL: every line an object with a
//                                  nonzero trace_id/span_id, a name, and
//                                  start_us/dur_us numbers
//   lcheck --flight FILE           flight-recorder dump: reason, cycle,
//                                  events[] each with cycle and kind
//   lcheck --prom FILE             Prometheus text exposition: every
//                                  non-comment line is `name[{labels}]
//                                  value` with a legal metric name
//   lcheck --bench-sim FILE        BENCH_sim.json trajectory rows:
//                                  exactly one fast_paths off and on row
//                                  per model plus liquid_system_flight
//                                  on, boolean fast_paths, positive
//                                  host_mips
//
// Exit codes: 0 all checks pass, 1 a check failed, 2 usage/IO error.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---- a minimal JSON document model + parser ------------------------------

struct JsonValue;
using JsonObject = std::map<std::string, std::shared_ptr<JsonValue>>;
using JsonArray = std::vector<std::shared_ptr<JsonValue>>;

struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject } kind = kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  JsonArray array;
  JsonObject object;

  const JsonValue* get(const std::string& key) const {
    const auto it = object.find(key);
    return it == object.end() ? nullptr : it->second.get();
  }
  bool is(Kind k) const { return kind == k; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  /// Parse one complete document; nullptr (with error()) on any violation,
  /// including trailing garbage.
  std::shared_ptr<JsonValue> parse() {
    auto v = value();
    if (v == nullptr) return nullptr;
    skip_ws();
    if (pos_ != s_.size()) {
      fail("trailing characters after the document");
      return nullptr;
    }
    return v;
  }

  const std::string& error() const { return err_; }
  std::size_t error_pos() const { return err_pos_; }

 private:
  void fail(const std::string& why) {
    if (err_.empty()) {
      err_ = why;
      err_pos_ = pos_;
    }
  }
  void skip_ws() {
    while (pos_ < s_.size() && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                                s_[pos_] == '\n' || s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool literal(const char* word) {
    const std::size_t n = std::strlen(word);
    if (s_.compare(pos_, n, word) != 0) {
      fail(std::string("expected '") + word + "'");
      return false;
    }
    pos_ += n;
    return true;
  }

  std::shared_ptr<JsonValue> value() {
    skip_ws();
    if (pos_ >= s_.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    const char c = s_[pos_];
    auto v = std::make_shared<JsonValue>();
    switch (c) {
      case '{': return object(std::move(v));
      case '[': return array(std::move(v));
      case '"':
        v->kind = JsonValue::kString;
        return string_into(v->string) ? v : nullptr;
      case 't':
        v->kind = JsonValue::kBool;
        v->boolean = true;
        return literal("true") ? v : nullptr;
      case 'f':
        v->kind = JsonValue::kBool;
        return literal("false") ? v : nullptr;
      case 'n': return literal("null") ? v : nullptr;
      default: return number(std::move(v));
    }
  }

  std::shared_ptr<JsonValue> object(std::shared_ptr<JsonValue> v) {
    v->kind = JsonValue::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"') {
        fail("expected object key");
        return nullptr;
      }
      std::string key;
      if (!string_into(key)) return nullptr;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') {
        fail("expected ':' after object key");
        return nullptr;
      }
      ++pos_;
      auto member = value();
      if (member == nullptr) return nullptr;
      v->object[key] = std::move(member);
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
      return nullptr;
    }
  }

  std::shared_ptr<JsonValue> array(std::shared_ptr<JsonValue> v) {
    v->kind = JsonValue::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      auto elem = value();
      if (elem == nullptr) return nullptr;
      v->array.push_back(std::move(elem));
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
      return nullptr;
    }
  }

  bool string_into(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
        return false;
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      if (++pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > s_.size()) {
            fail("truncated \\u escape");
            return false;
          }
          for (int i = 0; i < 4; ++i) {
            if (std::isxdigit(static_cast<unsigned char>(s_[pos_ + i])) ==
                0) {
              fail("bad \\u escape");
              return false;
            }
          }
          // The checkers only care about validity, not the code point.
          out += '?';
          pos_ += 4;
          break;
        }
        default: fail("bad escape character"); return false;
      }
    }
    fail("unterminated string");
    return false;
  }

  std::shared_ptr<JsonValue> number(std::shared_ptr<JsonValue> v) {
    const std::size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
    if (pos_ < s_.size() && s_[pos_] == '.') {
      ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < s_.size() && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      while (pos_ < s_.size() &&
             std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0) {
        ++pos_;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-')) {
      fail("expected a value");
      return nullptr;
    }
    v->kind = JsonValue::kNumber;
    v->number = std::strtod(s_.substr(start, pos_ - start).c_str(), nullptr);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string err_;
  std::size_t err_pos_ = 0;
};

// ---- checkers ------------------------------------------------------------

int complain(const std::string& file, const std::string& why) {
  std::fprintf(stderr, "lcheck: %s: %s\n", file.c_str(), why.c_str());
  return 1;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream buf;
  buf << is.rdbuf();
  out = buf.str();
  return true;
}

std::shared_ptr<JsonValue> parse_or_complain(const std::string& file,
                                             const std::string& text,
                                             int& rc) {
  JsonParser p(text);
  auto doc = p.parse();
  if (doc == nullptr) {
    rc = complain(file, "invalid JSON at byte " +
                            std::to_string(p.error_pos()) + ": " + p.error());
  }
  return doc;
}

int check_json(const std::string& file, const std::string& text) {
  int rc = 0;
  parse_or_complain(file, text, rc);
  return rc;
}

int check_chrome_trace(const std::string& file, const std::string& text,
                       long min_pids) {
  int rc = 0;
  auto doc = parse_or_complain(file, text, rc);
  if (doc == nullptr) return rc;
  if (!doc->is(JsonValue::kObject)) {
    return complain(file, "top level is not an object");
  }
  const JsonValue* events = doc->get("traceEvents");
  if (events == nullptr || !events->is(JsonValue::kArray)) {
    return complain(file, "missing traceEvents array");
  }
  std::set<double> pids;
  std::size_t index = 0;
  for (const auto& ev : events->array) {
    const std::string at = "traceEvents[" + std::to_string(index++) + "]";
    if (!ev->is(JsonValue::kObject)) return complain(file, at + " not an object");
    const JsonValue* ph = ev->get("ph");
    if (ph == nullptr || !ph->is(JsonValue::kString)) {
      return complain(file, at + " has no ph");
    }
    const JsonValue* pid = ev->get("pid");
    const JsonValue* tid = ev->get("tid");
    if (pid == nullptr || !pid->is(JsonValue::kNumber) || tid == nullptr ||
        !tid->is(JsonValue::kNumber)) {
      return complain(file, at + " has no numeric pid/tid");
    }
    pids.insert(pid->number);
    if (ph->string == "X") {
      const JsonValue* name = ev->get("name");
      const JsonValue* ts = ev->get("ts");
      const JsonValue* dur = ev->get("dur");
      if (name == nullptr || !name->is(JsonValue::kString) || ts == nullptr ||
          !ts->is(JsonValue::kNumber) || dur == nullptr ||
          !dur->is(JsonValue::kNumber)) {
        return complain(file, at + " ('X') lacks name/ts/dur");
      }
    }
  }
  if (min_pids > 0 && static_cast<long>(pids.size()) < min_pids) {
    return complain(file, "expected at least " + std::to_string(min_pids) +
                              " distinct pids, saw " +
                              std::to_string(pids.size()));
  }
  std::printf("lcheck: %s: %zu trace events, %zu process lane(s)\n",
              file.c_str(), events->array.size(), pids.size());
  return 0;
}

int check_spans(const std::string& file, const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  std::size_t spans = 0;
  std::set<std::string> traces;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty()) continue;
    int rc = 0;
    auto doc =
        parse_or_complain(file + ":" + std::to_string(lineno), line, rc);
    if (doc == nullptr) return rc;
    const std::string at = "line " + std::to_string(lineno);
    if (!doc->is(JsonValue::kObject)) return complain(file, at + " not an object");
    const JsonValue* trace_id = doc->get("trace_id");
    const JsonValue* span_id = doc->get("span_id");
    const JsonValue* name = doc->get("name");
    const JsonValue* start = doc->get("start_us");
    const JsonValue* dur = doc->get("dur_us");
    if (trace_id == nullptr || !trace_id->is(JsonValue::kString) ||
        trace_id->string.empty() ||
        trace_id->string.find_first_not_of('0') == std::string::npos) {
      return complain(file, at + " has no nonzero trace_id");
    }
    if (span_id == nullptr || !span_id->is(JsonValue::kString)) {
      return complain(file, at + " has no span_id");
    }
    if (name == nullptr || !name->is(JsonValue::kString) ||
        name->string.empty()) {
      return complain(file, at + " has no name");
    }
    if (start == nullptr || !start->is(JsonValue::kNumber) || dur == nullptr ||
        !dur->is(JsonValue::kNumber) || dur->number < 0) {
      return complain(file, at + " lacks start_us/dur_us");
    }
    traces.insert(trace_id->string);
    ++spans;
  }
  if (spans == 0) return complain(file, "no spans");
  std::printf("lcheck: %s: %zu span(s), %zu trace(s)\n", file.c_str(), spans,
              traces.size());
  return 0;
}

int check_flight(const std::string& file, const std::string& text) {
  int rc = 0;
  auto doc = parse_or_complain(file, text, rc);
  if (doc == nullptr) return rc;
  if (!doc->is(JsonValue::kObject)) {
    return complain(file, "top level is not an object");
  }
  const JsonValue* reason = doc->get("reason");
  const JsonValue* cycle = doc->get("cycle");
  const JsonValue* events = doc->get("events");
  if (reason == nullptr || !reason->is(JsonValue::kString) ||
      reason->string.empty()) {
    return complain(file, "missing reason");
  }
  if (cycle == nullptr || !cycle->is(JsonValue::kNumber)) {
    return complain(file, "missing cycle");
  }
  if (events == nullptr || !events->is(JsonValue::kArray)) {
    return complain(file, "missing events array");
  }
  std::size_t index = 0;
  for (const auto& ev : events->array) {
    const std::string at = "events[" + std::to_string(index++) + "]";
    if (!ev->is(JsonValue::kObject)) return complain(file, at + " not an object");
    const JsonValue* ec = ev->get("cycle");
    const JsonValue* kind = ev->get("kind");
    if (ec == nullptr || !ec->is(JsonValue::kNumber) || kind == nullptr ||
        !kind->is(JsonValue::kString) || kind->string.empty()) {
      return complain(file, at + " lacks cycle/kind");
    }
  }
  std::printf("lcheck: %s: flight dump '%s', %zu event(s)\n", file.c_str(),
              reason->string.c_str(), events->array.size());
  return 0;
}

int check_prom(const std::string& file, const std::string& text) {
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  std::size_t samples = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const std::string at = "line " + std::to_string(lineno);
    if (line.empty() || line[0] == '#') continue;
    // name[{labels}] value
    std::size_t i = 0;
    auto name_char = [&](char c, bool first) {
      const bool alpha = std::isalpha(static_cast<unsigned char>(c)) != 0 ||
                         c == '_' || c == ':';
      return first ? alpha
                   : alpha || std::isdigit(static_cast<unsigned char>(c)) != 0;
    };
    if (i >= line.size() || !name_char(line[i], true)) {
      return complain(file, at + ": bad metric name");
    }
    while (i < line.size() && name_char(line[i], false)) ++i;
    if (i < line.size() && line[i] == '{') {
      // Labels: scan to the matching closing brace, honouring quotes.
      bool in_string = false;
      bool closed = false;
      for (++i; i < line.size(); ++i) {
        const char c = line[i];
        if (in_string) {
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            in_string = false;
          }
        } else if (c == '"') {
          in_string = true;
        } else if (c == '}') {
          closed = true;
          ++i;
          break;
        }
      }
      if (!closed) return complain(file, at + ": unterminated label set");
    }
    if (i >= line.size() || line[i] != ' ') {
      return complain(file, at + ": expected ' value'");
    }
    const std::string value = line.substr(i + 1);
    if (value.empty()) return complain(file, at + ": empty value");
    if (value != "NaN" && value != "+Inf" && value != "-Inf") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') {
        return complain(file, at + ": bad sample value '" + value + "'");
      }
    }
    ++samples;
  }
  if (samples == 0) return complain(file, "no samples");
  std::printf("lcheck: %s: %zu sample(s)\n", file.c_str(), samples);
  return 0;
}

int check_bench_ctrl(const std::string& file, const std::string& text) {
  int rc = 0;
  auto doc = parse_or_complain(file, text, rc);
  if (doc == nullptr) return rc;
  if (!doc->is(JsonValue::kArray)) {
    return complain(file, "top level is not an array of phase rows");
  }
  if (doc->array.empty()) return complain(file, "no phase rows");
  std::size_t index = 0;
  std::size_t audits_ok = 0;
  for (const auto& row : doc->array) {
    const std::string at = "row[" + std::to_string(index++) + "]";
    if (!row->is(JsonValue::kObject)) {
      return complain(file, at + " not an object");
    }
    for (const char* key : {"wan", "mode"}) {
      const JsonValue* v = row->get(key);
      if (v == nullptr || !v->is(JsonValue::kString) || v->string.empty()) {
        return complain(file, at + " lacks string '" + key + "'");
      }
    }
    const JsonValue* mode = row->get("mode");
    if (mode->string != "open" && mode->string != "closed") {
      return complain(file, at + " mode '" + mode->string +
                                "' is neither open nor closed");
    }
    for (const char* key : {"tenants", "nodes", "jobs", "completed", "rps",
                            "p50_ms", "p95_ms", "p99_ms"}) {
      const JsonValue* v = row->get(key);
      if (v == nullptr || !v->is(JsonValue::kNumber) || v->number < 0) {
        return complain(file,
                        at + " lacks non-negative number '" + key + "'");
      }
    }
    // Percentiles of one latency distribution cannot cross.
    const double p50 = row->get("p50_ms")->number;
    const double p95 = row->get("p95_ms")->number;
    const double p99 = row->get("p99_ms")->number;
    if (p50 > p95 || p95 > p99) {
      return complain(file, at + " percentiles not monotone (p50 " +
                                std::to_string(p50) + ", p95 " +
                                std::to_string(p95) + ", p99 " +
                                std::to_string(p99) + ")");
    }
    if (row->get("completed")->number > row->get("jobs")->number) {
      return complain(file, at + " completed exceeds jobs offered");
    }
    const JsonValue* audit = row->get("audit_ok");
    if (audit == nullptr || !audit->is(JsonValue::kBool)) {
      return complain(file, at + " lacks boolean 'audit_ok'");
    }
    if (audit->boolean) ++audits_ok;
  }
  std::printf("lcheck: %s: %zu phase row(s), %zu audit(s) ok\n", file.c_str(),
              doc->array.size(), audits_ok);
  if (audits_ok != doc->array.size()) {
    return complain(file, "a row carries audit_ok=false");
  }
  return 0;
}

int check_bench_sim(const std::string& file, const std::string& text) {
  int rc = 0;
  auto doc = parse_or_complain(file, text, rc);
  if (doc == nullptr) return rc;
  if (!doc->is(JsonValue::kArray)) {
    return complain(file, "top level is not an array of measurement rows");
  }
  if (doc->array.empty()) return complain(file, "no measurement rows");

  // The exact row set: one reference (fast_paths=false) and one fast row
  // per model, plus the flight-recorder overhead row on the fast path.
  static const std::set<std::string> kRows = {
      "integer_unit/slow",  "integer_unit/fast",  "leon_pipeline/slow",
      "leon_pipeline/fast", "liquid_system/slow", "liquid_system/fast",
      "liquid_system_flight/fast"};
  std::set<std::string> seen;
  std::size_t index = 0;
  for (const auto& row : doc->array) {
    const std::string at = "row[" + std::to_string(index++) + "]";
    if (!row->is(JsonValue::kObject)) {
      return complain(file, at + " not an object");
    }
    const JsonValue* model = row->get("model");
    if (model == nullptr || !model->is(JsonValue::kString)) {
      return complain(file, at + " lacks string 'model'");
    }
    const JsonValue* fast = row->get("fast_paths");
    if (fast == nullptr || !fast->is(JsonValue::kBool)) {
      return complain(file, at + " lacks boolean 'fast_paths'");
    }
    if (row->get("block_engine") != nullptr) {
      return complain(file, at + " carries 'block_engine' (the block engine "
                                 "is part of fast_paths, not a row axis)");
    }
    for (const char* key : {"host_mips", "cycles_per_sec", "secs"}) {
      const JsonValue* v = row->get(key);
      if (v == nullptr || !v->is(JsonValue::kNumber) || v->number <= 0) {
        return complain(file, at + " lacks positive number '" + key + "'");
      }
    }
    const JsonValue* instr = row->get("instructions");
    if (instr == nullptr || !instr->is(JsonValue::kNumber) ||
        instr->number < 0) {
      return complain(file,
                      at + " lacks non-negative number 'instructions'");
    }
    const std::string key =
        model->string + (fast->boolean ? "/fast" : "/slow");
    if (kRows.count(key) == 0) {
      return complain(file, at + " unexpected row " + key);
    }
    if (!seen.insert(key).second) {
      return complain(file, at + " duplicates " + key);
    }
  }
  for (const std::string& key : kRows) {
    if (seen.count(key) == 0) return complain(file, "missing " + key + " row");
  }
  std::printf("lcheck: %s: %zu measurement row(s), pairings complete\n",
              file.c_str(), doc->array.size());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: lcheck [--min-pids N] MODE FILE [MODE FILE ...]\n"
               "  modes: --json --chrome-trace --spans --flight --prom\n"
               "         --bench-ctrl --bench-sim\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  long min_pids = 0;
  int rc = 0;
  bool checked = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto file_arg = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--min-pids") {
      const char* v = file_arg();
      if (v == nullptr) return usage();
      min_pids = std::strtol(v, nullptr, 10);
    } else if (a == "--json" || a == "--chrome-trace" || a == "--spans" ||
               a == "--flight" || a == "--prom" || a == "--bench-ctrl" ||
               a == "--bench-sim") {
      const char* f = file_arg();
      if (f == nullptr) return usage();
      std::string text;
      if (!read_file(f, text)) {
        std::fprintf(stderr, "lcheck: cannot read %s\n", f);
        return 2;
      }
      checked = true;
      int one = 0;
      if (a == "--json") one = check_json(f, text);
      else if (a == "--chrome-trace") one = check_chrome_trace(f, text, min_pids);
      else if (a == "--spans") one = check_spans(f, text);
      else if (a == "--flight") one = check_flight(f, text);
      else if (a == "--bench-ctrl") one = check_bench_ctrl(f, text);
      else if (a == "--bench-sim") one = check_bench_sim(f, text);
      else one = check_prom(f, text);
      if (one != 0) rc = one;
    } else if (a == "--help" || a == "-h") {
      return usage();
    } else {
      std::fprintf(stderr, "lcheck: unknown argument '%s'\n", a.c_str());
      return usage();
    }
  }
  if (!checked) return usage();
  return rc;
}
