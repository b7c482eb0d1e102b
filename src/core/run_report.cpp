#include "core/run_report.hpp"

#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>

#include "obs/json.hpp"
#include "util/string_util.hpp"

namespace eevfs::core {

namespace {

void write_metrics_object(obs::JsonWriter& w, const RunMetrics& m) {
  w.begin_object();
  w.key("energy_joules").value(m.total_joules);
  w.key("disk_joules").value(m.disk_joules);
  w.key("base_joules").value(m.base_joules);
  w.key("power_transitions").value(m.power_transitions);
  w.key("spin_ups").value(m.spin_ups);
  w.key("spin_downs").value(m.spin_downs);
  w.key("wakeups_on_demand").value(m.wakeups_on_demand);
  w.key("response_mean_sec").value(m.response_time_sec.mean());
  w.key("response_p95_sec").value(m.response_p95_sec);
  w.key("response_p99_sec").value(m.response_p99_sec);
  w.key("requests").value(m.requests);
  w.key("buffer_hits").value(m.buffer_hits);
  w.key("data_disk_reads").value(m.data_disk_reads);
  w.key("buffer_hit_rate").value(m.buffer_hit_rate());
  w.key("makespan_sec").value(ticks_to_seconds(m.makespan));
  w.key("prefetch_sec").value(ticks_to_seconds(m.prefetch_duration));
  w.key("bytes_served").value(m.bytes_served);
  w.key("bytes_prefetched").value(m.bytes_prefetched);
  w.end_object();
}

void write_counters_array(obs::JsonWriter& w,
                          const std::vector<obs::Sample>& counters) {
  w.begin_array();
  for (const obs::Sample& s : counters) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("kind").value(obs::to_string(s.kind));
    w.key("value").value(s.value);
    if (s.kind == obs::MetricKind::kHistogram) {
      w.key("count").value(s.count);
      w.key("sum").value(s.sum);
      w.key("mean").value(s.mean);
      w.key("p50").value(s.p50);
      w.key("p95").value(s.p95);
      w.key("p99").value(s.p99);
      w.key("min").value(s.min);
      w.key("max").value(s.max);
    }
    w.end_object();
  }
  w.end_array();
}

void append_run(obs::JsonWriter& w, const RunReportInfo& info,
                const RunMetrics& m, bool traced,
                std::uint64_t trace_recorded, std::uint64_t trace_dropped) {
  w.begin_object();
  w.key("name").value(info.name);
  w.key("config").value(info.config);
  w.key("meta").begin_object();
  w.key("wall_seconds").value(info.wall_seconds);
  if (traced) {
    w.key("trace").begin_object();
    w.key("recorded").value(trace_recorded);
    w.key("dropped").value(trace_dropped);
    w.end_object();
  }
  w.end_object();
  w.key("metrics");
  write_metrics_object(w, m);
  w.key("counters");
  write_counters_array(w, m.counters);
  w.end_object();
}

}  // namespace

void RunReportWriter::add_run(RunReportInfo info, const RunMetrics& m,
                              const obs::Tracer* tracer) {
  Entry e;
  e.info = std::move(info);
  e.metrics = m;
  if (tracer != nullptr && tracer->enabled()) {
    e.traced = true;
    e.trace_recorded = static_cast<std::uint64_t>(tracer->recorded());
    e.trace_dropped = tracer->dropped();
  }
  entries_.push_back(std::move(e));
}

std::string RunReportWriter::json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.key("schema_version").value(kRunReportSchemaVersion);
  w.key("bench").value(bench_);
  w.key("runs").begin_array();
  for (const Entry& e : entries_) {
    append_run(w, e.info, e.metrics, e.traced, e.trace_recorded,
               e.trace_dropped);
  }
  w.end_array();
  w.end_object();
  return w.take();
}

void RunReportWriter::write(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("run report: cannot open " + path);
  }
  out << json() << '\n';
  if (!out.flush()) {
    throw std::runtime_error("run report: write failed for " + path);
  }
}

// --- validation ------------------------------------------------------
//
// A deliberately small recursive-descent JSON parser: the validator must
// not trust the writer it ships with (that would validate nothing), and
// the container has no JSON library to lean on.  \uXXXX escapes outside
// ASCII decode to '?' — the schema checks key structure, not text.

namespace {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool parse(JsonValue& out, std::string* error) {
    skip_ws();
    if (!parse_value(out, error)) return false;
    skip_ws();
    if (pos_ != text_.size()) {
      return fail(error, "trailing characters after document");
    }
    return true;
  }

 private:
  bool fail(std::string* error, const std::string& what) const {
    if (error != nullptr) {
      *error = format("json parse error at byte %zu: ", pos_) + what;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(JsonValue& out, std::string* error) {
    if (++depth_ > kMaxDepth) return fail(error, "nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail(error, "unexpected end of input");
    bool ok = false;
    switch (text_[pos_]) {
      case '{': ok = parse_object(out, error); break;
      case '[': ok = parse_array(out, error); break;
      case '"':
        out.type = JsonValue::Type::kString;
        ok = parse_string(out.str, error);
        break;
      case 't':
        out.type = JsonValue::Type::kBool;
        out.boolean = true;
        ok = literal("true") || fail(error, "bad literal");
        break;
      case 'f':
        out.type = JsonValue::Type::kBool;
        out.boolean = false;
        ok = literal("false") || fail(error, "bad literal");
        break;
      case 'n':
        out.type = JsonValue::Type::kNull;
        ok = literal("null") || fail(error, "bad literal");
        break;
      default: ok = parse_number(out, error); break;
    }
    --depth_;
    return ok;
  }

  bool parse_object(JsonValue& out, std::string* error) {
    out.type = JsonValue::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return fail(error, "expected object key");
      }
      std::string key;
      if (!parse_string(key, error)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return fail(error, "expected ':'");
      }
      ++pos_;
      JsonValue v;
      if (!parse_value(v, error)) return false;
      out.object.emplace(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue& out, std::string* error) {
    out.type = JsonValue::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!parse_value(v, error)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail(error, "unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail(error, "expected ',' or ']'");
    }
  }

  bool parse_string(std::string& out, std::string* error) {
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return fail(error, "truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            unsigned digit = 0;
            if (h >= '0' && h <= '9') {
              digit = static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              digit = static_cast<unsigned>(h - 'a') + 10;
            } else if (h >= 'A' && h <= 'F') {
              digit = static_cast<unsigned>(h - 'A') + 10;
            } else {
              return fail(error, "bad \\u escape");
            }
            code = code * 16 + digit;
          }
          out.push_back(code < 0x80 ? static_cast<char>(code) : '?');
          break;
        }
        default: return fail(error, "unknown escape");
      }
    }
    return fail(error, "unterminated string");
  }

  bool parse_number(JsonValue& out, std::string* error) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail(error, "expected value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail(error, "bad number");
    return true;
  }

  static constexpr int kMaxDepth = 64;
  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

bool schema_fail(std::string* error, const std::string& what) {
  if (error != nullptr) *error = "run report schema: " + what;
  return false;
}

const JsonValue* get(const JsonValue& obj, const std::string& key) {
  const auto it = obj.object.find(key);
  return it == obj.object.end() ? nullptr : &it->second;
}

bool require_numbers(const JsonValue& obj, const char* const* keys,
                     std::size_t n, const std::string& where,
                     std::string* error) {
  for (std::size_t i = 0; i < n; ++i) {
    const JsonValue* v = get(obj, keys[i]);
    if (v == nullptr || v->type != JsonValue::Type::kNumber) {
      return schema_fail(error,
                         where + " is missing number '" + keys[i] + "'");
    }
  }
  return true;
}

bool validate_counter(const JsonValue& c, const std::string& where,
                      std::string* error) {
  if (c.type != JsonValue::Type::kObject) {
    return schema_fail(error, where + " is not an object");
  }
  const JsonValue* name = get(c, "name");
  if (name == nullptr || name->type != JsonValue::Type::kString) {
    return schema_fail(error, where + " is missing string 'name'");
  }
  // Naming convention: component.metric.unit (three non-empty segments
  // or more — units like "per_sec" stay one segment).
  const auto segments = split(name->str, '.');
  if (segments.size() < 3) {
    return schema_fail(error, where + " name '" + name->str +
                                  "' is not component.metric.unit");
  }
  for (const std::string& s : segments) {
    if (s.empty()) {
      return schema_fail(error,
                         where + " name '" + name->str + "' has empty segment");
    }
  }
  const JsonValue* kind = get(c, "kind");
  if (kind == nullptr || kind->type != JsonValue::Type::kString ||
      (kind->str != "counter" && kind->str != "gauge" &&
       kind->str != "histogram")) {
    return schema_fail(error, where + " has no valid 'kind'");
  }
  static constexpr const char* kValue[] = {"value"};
  if (!require_numbers(c, kValue, 1, where, error)) return false;
  if (kind->str == "histogram") {
    static constexpr const char* kHist[] = {"count", "sum", "mean", "p50",
                                            "p95",   "p99", "min",  "max"};
    if (!require_numbers(c, kHist, 8, where, error)) return false;
  }
  return true;
}

bool validate_run(const JsonValue& run, const std::string& where,
                  std::string* error) {
  if (run.type != JsonValue::Type::kObject) {
    return schema_fail(error, where + " is not an object");
  }
  const JsonValue* name = get(run, "name");
  if (name == nullptr || name->type != JsonValue::Type::kString) {
    return schema_fail(error, where + " is missing string 'name'");
  }
  const JsonValue* config = get(run, "config");
  if (config == nullptr || config->type != JsonValue::Type::kString) {
    return schema_fail(error, where + " is missing string 'config'");
  }
  const JsonValue* meta = get(run, "meta");
  if (meta == nullptr || meta->type != JsonValue::Type::kObject) {
    return schema_fail(error, where + " is missing object 'meta'");
  }
  static constexpr const char* kMeta[] = {"wall_seconds"};
  if (!require_numbers(*meta, kMeta, 1, where + ".meta", error)) return false;
  if (const JsonValue* trace = get(*meta, "trace")) {
    if (trace->type != JsonValue::Type::kObject) {
      return schema_fail(error, where + ".meta.trace is not an object");
    }
    static constexpr const char* kTrace[] = {"recorded", "dropped"};
    if (!require_numbers(*trace, kTrace, 2, where + ".meta.trace", error)) {
      return false;
    }
  }

  const JsonValue* metrics = get(run, "metrics");
  if (metrics == nullptr || metrics->type != JsonValue::Type::kObject) {
    return schema_fail(error, where + " is missing object 'metrics'");
  }
  static constexpr const char* kMetrics[] = {
      "energy_joules",     "disk_joules",       "base_joules",
      "power_transitions", "spin_ups",          "spin_downs",
      "response_mean_sec", "response_p95_sec",  "response_p99_sec",
      "requests",          "buffer_hit_rate",   "makespan_sec",
      "prefetch_sec",      "bytes_served",      "bytes_prefetched",
      "wakeups_on_demand", "buffer_hits",       "data_disk_reads"};
  if (!require_numbers(*metrics, kMetrics,
                       sizeof(kMetrics) / sizeof(kMetrics[0]),
                       where + ".metrics", error)) {
    return false;
  }

  const JsonValue* counters = get(run, "counters");
  if (counters == nullptr || counters->type != JsonValue::Type::kArray) {
    return schema_fail(error, where + " is missing array 'counters'");
  }
  for (std::size_t i = 0; i < counters->array.size(); ++i) {
    if (!validate_counter(counters->array[i],
                          where + format(".counters[%zu]", i), error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool validate_run_report(std::string_view json, std::string* error) {
  JsonValue doc;
  JsonParser parser(json);
  if (!parser.parse(doc, error)) return false;
  if (doc.type != JsonValue::Type::kObject) {
    return schema_fail(error, "document is not an object");
  }
  const JsonValue* version = get(doc, "schema_version");
  if (version == nullptr || version->type != JsonValue::Type::kNumber) {
    return schema_fail(error, "missing number 'schema_version'");
  }
  if (version->number != static_cast<double>(kRunReportSchemaVersion)) {
    return schema_fail(
        error, format("schema_version %g is not %lld", version->number,
                      static_cast<long long>(kRunReportSchemaVersion)));
  }
  const JsonValue* bench = get(doc, "bench");
  if (bench == nullptr || bench->type != JsonValue::Type::kString) {
    return schema_fail(error, "missing string 'bench'");
  }
  const JsonValue* runs = get(doc, "runs");
  if (runs == nullptr || runs->type != JsonValue::Type::kArray) {
    return schema_fail(error, "missing array 'runs'");
  }
  for (std::size_t i = 0; i < runs->array.size(); ++i) {
    if (!validate_run(runs->array[i], format("runs[%zu]", i), error)) {
      return false;
    }
  }
  return true;
}

}  // namespace eevfs::core
