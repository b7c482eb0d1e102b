#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "lexer.hpp"

namespace eevfs::lint {
namespace {

// ---------------------------------------------------------------------------
// Module DAG.  Key = module, value = modules it may #include (self is
// always allowed).  This is the single source of truth for rule L1; keep
// it in sync with docs/static_analysis.md and the target_link_libraries
// edges in src/*/CMakeLists.txt (tools/docs_check.py's DOC3 check
// machine-verifies the docs/architecture.md copy against this table).
// ---------------------------------------------------------------------------

const std::map<std::string, std::set<std::string>>& layer_deps_impl() {
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"util", {}},
      {"obs", {"util"}},
      {"sim", {"util"}},
      {"trace", {"util"}},
      {"disk", {"obs", "sim", "util"}},
      {"net", {"obs", "sim", "util"}},
      {"workload", {"trace", "util"}},
      {"fault", {"disk", "net", "obs", "sim", "util"}},
      {"core",
       {"disk", "fault", "net", "obs", "sim", "trace", "util", "workload"}},
      {"baseline",
       {"core", "disk", "fault", "net", "obs", "sim", "trace", "util",
        "workload"}},
  };
  return kDeps;
}

// ---------------------------------------------------------------------------
// Rule D: banned non-deterministic identifiers and includes.
// ---------------------------------------------------------------------------

const std::map<std::string, std::string>& banned_idents() {
  static const std::map<std::string, std::string> kBanned = {
      {"rand", "std::rand is ambient global state; use eevfs::Rng "
               "(util/rng.hpp) with an explicit seed"},
      {"srand", "std::srand is ambient global state; use eevfs::Rng "
                "(util/rng.hpp) with an explicit seed"},
      {"random_device", "std::random_device is a non-deterministic entropy "
                        "source; seed an eevfs::Rng explicitly"},
      {"system_clock", "wall clocks break bit-for-bit reproducibility; "
                       "simulated time comes from sim::Simulator::now()"},
      {"steady_clock", "wall clocks break bit-for-bit reproducibility; "
                       "simulated time comes from sim::Simulator::now()"},
      {"high_resolution_clock",
       "wall clocks break bit-for-bit reproducibility; simulated time comes "
       "from sim::Simulator::now()"},
      {"gettimeofday", "wall-time API; simulated time comes from "
                       "sim::Simulator::now()"},
      {"clock_gettime", "wall-time API; simulated time comes from "
                        "sim::Simulator::now()"},
      {"timespec_get", "wall-time API; simulated time comes from "
                       "sim::Simulator::now()"},
      {"localtime", "calendar/date API depends on host time and timezone"},
      {"gmtime", "calendar/date API depends on host time and timezone"},
      {"mktime", "calendar/date API depends on host time and timezone"},
      {"strftime", "calendar/date API depends on host time and timezone"},
      {"asctime", "calendar/date API depends on host time and timezone"},
      {"ctime", "calendar/date API depends on host time and timezone"},
  };
  return kBanned;
}

const std::map<std::string, std::string>& banned_includes() {
  static const std::map<std::string, std::string> kBanned = {
      {"<ctime>", "D1"},
      {"<time.h>", "D1"},
      {"<sys/time.h>", "D1"},
      {"<random>", "D3"},
  };
  return kBanned;
}

// Identifiers that mark a file as result-emitting for rule D2.
const std::set<std::string>& emit_markers() {
  static const std::set<std::string> kMarkers = {
      "ofstream",        "fopen",       "fprintf",
      "fputs",           "fwrite",      "CsvWriter",
      "JsonWriter",      "RunReportWriter",
  };
  return kMarkers;
}

const std::set<std::string>& unordered_containers() {
  static const std::set<std::string> kUnordered = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return kUnordered;
}

/// `time` is only banned as a free-function call: `time(`, `std::time(`,
/// `::time(` — never a member access (`ev.time`, `rec.time()`).
bool is_banned_time_call(const std::string& code, std::size_t start,
                         std::size_t end) {
  std::size_t j = end;
  while (j < code.size() &&
         std::isspace(static_cast<unsigned char>(code[j])) != 0) {
    ++j;
  }
  if (j >= code.size() || code[j] != '(') return false;
  std::size_t k = start;
  while (k > 0 &&
         std::isspace(static_cast<unsigned char>(code[k - 1])) != 0) {
    --k;
  }
  if (k >= 1 && code[k - 1] == '.') return false;
  if (k >= 2 && code[k - 2] == '-' && code[k - 1] == '>') return false;
  return true;
}

// ---------------------------------------------------------------------------
// Rule O: metric-name literals.
// ---------------------------------------------------------------------------

/// component.metric.unit: at least three lowercase dot-separated segments,
/// each [a-z][a-z0-9_]*.
bool valid_metric_name(const std::string& name) {
  std::size_t segments = 0;
  std::size_t i = 0;
  const std::size_t n = name.size();
  while (i < n) {
    if (name[i] < 'a' || name[i] > 'z') return false;
    ++i;
    while (i < n && ((name[i] >= 'a' && name[i] <= 'z') ||
                     (name[i] >= '0' && name[i] <= '9') || name[i] == '_')) {
      ++i;
    }
    ++segments;
    if (i == n) break;
    if (name[i] != '.') return false;
    ++i;
    if (i == n) return false;  // trailing dot
  }
  return segments >= 3;
}

/// Finds `counter("...")` / `gauge("...")` / `histogram("...")` call sites
/// and returns the string literals.  Only literal-first-argument calls are
/// checked; computed names can't be validated statically.
std::vector<std::string> metric_literals(const std::string& code_strings) {
  std::vector<std::string> out;
  for (const auto& [pos, ident] : identifiers(code_strings)) {
    if (ident != "counter" && ident != "gauge" && ident != "histogram") {
      continue;
    }
    std::size_t j = pos + ident.size();
    while (j < code_strings.size() &&
           std::isspace(static_cast<unsigned char>(code_strings[j])) != 0) {
      ++j;
    }
    if (j >= code_strings.size() || code_strings[j] != '(') continue;
    ++j;
    while (j < code_strings.size() &&
           std::isspace(static_cast<unsigned char>(code_strings[j])) != 0) {
      ++j;
    }
    if (j >= code_strings.size() || code_strings[j] != '"') continue;
    ++j;
    std::string lit;
    while (j < code_strings.size() && code_strings[j] != '"') {
      lit += code_strings[j];
      ++j;
    }
    if (j < code_strings.size()) out.push_back(std::move(lit));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule U: units hygiene.
// ---------------------------------------------------------------------------

/// The units.hpp quantity aliases and the name suffixes that bind to
/// them.  A suffix mapping to "" means "must be a floating type": those
/// names state a fractional human-facing unit (_ms/_sec) converted at
/// the boundary with seconds_to_ticks / milliseconds_to_ticks.
const std::vector<std::pair<std::string, std::string>>& unit_suffixes() {
  static const std::vector<std::pair<std::string, std::string>> kSuffixes = {
      {"_ticks", "Tick"},   {"_tick", "Tick"},     {"_us", "Tick"},
      {"_bytes", "Bytes"},  {"_joules", "Joules"}, {"_watts", "Watts"},
      {"_ms", ""},          {"_sec", ""},          {"_secs", ""},
      {"_seconds", ""},
  };
  return kSuffixes;
}

bool is_unit_alias(const std::string& t) {
  return t == "Tick" || t == "Bytes" || t == "Joules" || t == "Watts";
}

bool is_raw_arith_type(const std::string& t) {
  static const std::set<std::string> kRaw = {
      "double",  "float",    "int",      "long",     "short",   "unsigned",
      "signed",  "size_t",   "ptrdiff_t", "int8_t",  "int16_t", "int32_t",
      "int64_t", "uint8_t",  "uint16_t", "uint32_t", "uint64_t"};
  return kRaw.count(t) != 0;
}

bool is_floating_type(const std::string& t) {
  return t == "double" || t == "float";
}

/// Quantity words for rule U3: a raw-arithmetic declaration whose name's
/// last word is one of these holds a physical quantity and must either
/// use a units.hpp alias or state its unit in a suffix.
const std::set<std::string>& quantity_words() {
  static const std::set<std::string> kWords = {
      "time",    "latency",  "delay",    "timeout", "deadline",
      "interval", "duration", "horizon", "energy",  "power"};
  return kWords;
}

std::string last_name_word(const std::string& name) {
  const std::size_t us = name.rfind('_');
  std::string w = (us == std::string::npos) ? name : name.substr(us + 1);
  for (auto& c : w) c = static_cast<char>(std::tolower(
      static_cast<unsigned char>(c)));
  return w;
}

/// Canonical value of a numeric literal token: digit separators removed,
/// integer/float suffixes stripped, parsed as double.  Returns false for
/// hex/binary/octal-prefixed literals (never conversion constants here).
bool literal_value(const std::string& tok, double* value) {
  std::string t;
  for (const char c : tok) {
    if (c != '\'') t += c;
  }
  if (t.size() > 1 && t[0] == '0' &&
      (t[1] == 'x' || t[1] == 'X' || t[1] == 'b' || t[1] == 'B')) {
    return false;
  }
  while (!t.empty()) {
    const char c = static_cast<char>(std::tolower(
        static_cast<unsigned char>(t.back())));
    if (c == 'u' || c == 'l' || c == 'f' || c == 'z') {
      t.pop_back();
    } else {
      break;
    }
  }
  if (t.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(t.c_str(), &end);
  return end != nullptr && *end == '\0';
}

/// Bare conversion constants rule U1 bans outside src/util/units.hpp,
/// with the units.hpp replacement to name in the message.  Only
/// unambiguous conversion spellings are banned: 1000.0 is routinely a
/// mean parameter or a NIC line rate, and 1e-6/1e-9 are EXPECT_NEAR
/// tolerances, so those stay legal.
const char* banned_conversion_constant(const std::string& tok) {
  double v = 0.0;
  if (!literal_value(tok, &v)) return nullptr;
  if (v == 1e6) {  // eevfs-lint: allow(U1)
    return "use kTicksPerSecond / seconds_to_ticks for time, kMB for bytes";
  }
  // eevfs-lint: allow(U1)
  if (v == 1e9) return "use kGB (decimal) or kGiB (binary)";
  // eevfs-lint: allow(U1)
  if (v == 86400.0) return "use kSecondsPerDay";
  // The scientific spelling of 1000 is a conversion idiom (ms <-> s,
  // ticks <-> ms); the plain spellings are ordinary values.
  std::string t;
  for (const char c : tok) {
    t += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (t == "1e3" || t == "1e+3") {
    return "use kTicksPerMillisecond / milliseconds_to_ticks / "
           "ticks_to_milliseconds";
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Suppressions.
// ---------------------------------------------------------------------------

/// Rule tokens from `// eevfs-lint: allow(D1, L)` in a comment, uppercased
/// ("ALL" allows everything).
std::set<std::string> allow_tokens(const std::string& comment) {
  std::set<std::string> out;
  const std::string key = "eevfs-lint:";
  std::size_t at = comment.find(key);
  while (at != std::string::npos) {
    std::size_t j = at + key.size();
    while (j < comment.size() &&
           std::isspace(static_cast<unsigned char>(comment[j])) != 0) {
      ++j;
    }
    if (comment.compare(j, 6, "allow(") == 0) {
      j += 6;
      const std::size_t close = comment.find(')', j);
      if (close != std::string::npos) {
        std::string token;
        for (std::size_t k = j; k <= close; ++k) {
          const char c = comment[k];
          if (c == ',' || c == ')' || c == ' ') {
            if (!token.empty()) out.insert(token);
            token.clear();
          } else {
            token += static_cast<char>(
                std::toupper(static_cast<unsigned char>(c)));
          }
        }
      }
    }
    at = comment.find(key, at + key.size());
  }
  return out;
}

bool suppressed(const std::set<std::string>& tokens, const std::string& rule) {
  return tokens.count("ALL") != 0 || tokens.count(rule) != 0 ||
         tokens.count(rule.substr(0, 1)) != 0;
}

bool is_header(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h";
}

bool is_cpp_keyword_lite(const std::string& s) {
  static const std::set<std::string> kKw = {
      "if",      "else",   "for",      "while",  "do",       "switch",
      "case",    "return", "break",    "continue", "goto",   "sizeof",
      "alignof", "alignas", "decltype", "noexcept", "static_assert",
      "new",     "delete", "throw",    "catch",  "operator", "template",
      "typename", "using", "namespace", "class", "struct",   "enum",
      "union",   "public", "private",  "protected", "const", "constexpr",
      "inline",  "static", "extern",   "friend", "virtual",  "explicit",
      "typedef", "mutable", "volatile", "auto",  "void",     "this",
      "true",    "false",  "nullptr",  "default", "try",     "requires",
      "concept", "override", "final",  "co_return", "co_await",
      "co_yield"};
  return kKw.count(s) != 0;
}

// ---------------------------------------------------------------------------
// Rule E: event-handle lifecycle.  Finds schedule_at/schedule_after call
// expressions whose EventHandle result is dropped on the floor.
// ---------------------------------------------------------------------------

/// Walks backwards over the callee's object chain (`sim_.`, `this->`,
/// `cluster.sim().` ...) starting just before the schedule_* identifier.
/// Returns the index of the boundary token (-1 for start of file), and
/// sets *explicitly_discarded when the chain is prefixed with `(void)`.
int walk_object_chain(const std::vector<Token>& toks, int j,
                      bool* explicitly_discarded) {
  *explicitly_discarded = false;
  while (j >= 0) {
    const Token& t = toks[static_cast<std::size_t>(j)];
    if (t.kind == Token::Kind::kIdent && !is_cpp_keyword_lite(t.text)) {
      --j;
      continue;
    }
    if (t.kind == Token::Kind::kIdent && t.text == "this") {
      --j;
      continue;
    }
    if (t.kind == Token::Kind::kPunct &&
        (t.text == "." || t.text == "->" || t.text == "::")) {
      --j;
      continue;
    }
    if (t.kind == Token::Kind::kPunct && (t.text == ")" || t.text == "]")) {
      // Balance backwards to the opener; a parenthesized group holding
      // exactly `void` is the explicit-discard cast.
      const std::string close = t.text;
      const std::string open = (close == ")") ? "(" : "[";
      int depth = 0;
      int k = j;
      while (k >= 0) {
        const Token& u = toks[static_cast<std::size_t>(k)];
        if (u.kind == Token::Kind::kPunct && u.text == close) ++depth;
        if (u.kind == Token::Kind::kPunct && u.text == open && --depth == 0)
          break;
        --k;
      }
      if (k < 0) return -1;
      if (close == ")" && j - k == 2 &&
          toks[static_cast<std::size_t>(k + 1)].text == "void") {
        *explicitly_discarded = true;
        return k - 1;
      }
      j = k - 1;
      continue;
    }
    break;
  }
  return j;
}

/// True when the schedule_* call at token index `i` is an expression
/// statement that drops the returned EventHandle.
bool is_discarded_schedule_call(const std::vector<Token>& toks, int i) {
  // `EventHandle schedule_at(` / `Simulator::schedule_at(` directly
  // preceded by a type-ish identifier is the declaration or definition
  // of the function, not a call.
  if (i > 0) {
    const Token& p = toks[static_cast<std::size_t>(i - 1)];
    const bool after_qualifier =
        p.kind == Token::Kind::kPunct &&
        (p.text == "." || p.text == "->" || p.text == "::");
    if (!after_qualifier &&
        ((p.kind == Token::Kind::kIdent && !is_cpp_keyword_lite(p.text)) ||
         (p.kind == Token::Kind::kPunct &&
          (p.text == "&" || p.text == "*" || p.text == ">")))) {
      return false;
    }
    if (after_qualifier && p.text == "::" && i > 1) {
      // `Simulator::schedule_at(...)` at statement scope after a return
      // type on the previous token run is a definition; a true static
      // call would be preceded by the class name whose own predecessor
      // is an expression boundary.  Definitions look like
      // `EventHandle Simulator :: schedule_at (` — type ident two back.
      if (i > 2 && toks[static_cast<std::size_t>(i - 2)].kind ==
                       Token::Kind::kIdent &&
          toks[static_cast<std::size_t>(i - 3)].kind ==
              Token::Kind::kIdent &&
          !is_cpp_keyword_lite(
              toks[static_cast<std::size_t>(i - 3)].text)) {
        return false;
      }
    }
  }
  bool discarded = false;
  const int b = walk_object_chain(toks, i - 1, &discarded);
  if (discarded) return false;
  if (b < 0) return true;  // start of file: statement context
  const Token& t = toks[static_cast<std::size_t>(b)];
  if (t.kind == Token::Kind::kPunct && (t.text == ";" || t.text == "}")) {
    return true;
  }
  if (t.kind == Token::Kind::kPunct && t.text == "{") {
    // `{` opens a block (statement context) unless it is a braced
    // initializer: look at what precedes it.
    if (b == 0) return true;
    const Token& p = toks[static_cast<std::size_t>(b - 1)];
    if (p.kind == Token::Kind::kPunct &&
        (p.text == ")" || p.text == ";" || p.text == "{" || p.text == "}")) {
      return true;
    }
    if (p.kind == Token::Kind::kIdent &&
        (p.text == "else" || p.text == "do" || p.text == "try")) {
      return true;
    }
    return false;  // braced init — the handle is bound
  }
  return false;  // `=`, `return`, `(`, `,`, `?`, `:`, operators: bound/used
}

}  // namespace

const std::map<std::string, std::set<std::string>>& layer_deps() {
  return layer_deps_impl();
}

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"D1", "banned non-deterministic API (wall clocks, std::rand, "
             "random_device, date/time functions, <ctime>)"},
      {"D2", "unordered_map/unordered_set used in a file that emits "
             "results; iteration order is unspecified — emit sorted"},
      {"D3", "<random> is banned everywhere: distributions are "
             "implementation-defined; use util/rng samplers"},
      {"L1", "include edge violates the module DAG (upward or cross-layer "
             "dependency)"},
      {"L2", "project include in src/ must be module-qualified "
             "(\"<module>/<file>.hpp\")"},
      {"O1", "metric name literal must match component.metric.unit "
             "(>= 3 lowercase dot-separated segments)"},
      {"O2", "metric name literal is not documented in the metrics "
             "reference (docs/observability.md)"},
      {"H1", "header is missing #pragma once"},
      {"H2", "`using namespace` in a header leaks into every includer"},
      {"H3", "a .cpp must include its own header first (proves the header "
             "is self-contained)"},
      {"U1", "bare unit-conversion constant (1e6, 1'000'000, 1e3, 86400, "
             "...) outside src/util/units.hpp; use the units.hpp helpers"},
      {"U2", "declaration whose name states a unit (_ticks/_bytes/_joules/"
             "_watts/_ms/_sec) must use the matching units.hpp alias or "
             "floating boundary type"},
      {"U3", "quantity-named declaration (time/energy/power words) typed "
             "with a raw arithmetic type; use Tick/Joules/Watts or state "
             "the unit in the name"},
      {"I1", "module-qualified include none of whose declared symbols the "
             "file references — dead include"},
      {"I2", "symbol whose declaring header is reached only transitively; "
             "include what you use directly"},
      {"E1", "EventHandle returned by schedule_at/schedule_after is "
             "silently dropped; bind it, return it, or (void)-discard"},
  };
  return kRules;
}

std::set<std::string> parse_metrics_doc(const std::filesystem::path& doc) {
  std::ifstream in(doc);
  if (!in) {
    throw std::runtime_error("eevfs-lint: cannot read metrics doc: " +
                             doc.string());
  }
  std::set<std::string> names;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t open = line.find('`');
    while (open != std::string::npos) {
      const std::size_t close = line.find('`', open + 1);
      if (close == std::string::npos) break;
      const std::string span = line.substr(open + 1, close - open - 1);
      if (valid_metric_name(span)) names.insert(span);
      open = line.find('`', close + 1);
    }
  }
  return names;
}

std::string module_of(const std::filesystem::path& file) {
  const auto parts = [&] {
    std::vector<std::string> v;
    for (const auto& p : file) v.push_back(p.string());
    return v;
  }();
  for (std::size_t i = parts.size(); i-- > 0;) {
    if (parts[i] == "src" && i + 2 < parts.size()) {
      return parts[i + 1];
    }
  }
  return {};
}

std::vector<Finding> lint_file(const std::filesystem::path& file,
                               const Options& opt) {
  std::ifstream in(file);
  if (!in) {
    throw std::runtime_error("eevfs-lint: cannot read file: " + file.string());
  }
  std::vector<std::string> raw;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    raw.push_back(line);
  }

  const std::vector<ScrubbedLine> lines = scrub_lines(raw);

  const std::string mod = module_of(file);
  const bool header = is_header(file);
  const std::string stem = file.stem().string();
  const bool is_units_header = mod == "util" && stem == "units" && header;
  const std::string own_key = mod.empty() ? "" : mod + "/" + stem + ".hpp";

  // Pass 1: file-level facts — emit markers (D2) and #pragma once (H1).
  bool has_pragma_once = false;
  std::string emit_marker;
  int emit_line = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string t = trim(lines[i].code);
    if (t.compare(0, 7, "#pragma") == 0 &&
        t.find("once") != std::string::npos) {
      has_pragma_once = true;
    }
    if (emit_marker.empty()) {
      for (const auto& [pos, ident] : identifiers(lines[i].code)) {
        (void)pos;
        if (emit_markers().count(ident) != 0) {
          emit_marker = ident;
          emit_line = static_cast<int>(i) + 1;
          break;
        }
      }
    }
  }

  std::vector<Finding> found;
  const auto add = [&](std::size_t idx, const char* rule, std::string msg) {
    found.push_back(Finding{file.generic_string(), static_cast<int>(idx) + 1,
                            rule, std::move(msg)});
  };

  if (header && !has_pragma_once && !raw.empty()) {
    add(0, "H1", "header is missing #pragma once");
  }

  // Direct module-qualified project includes (for the I rule family).
  std::vector<std::pair<std::string, int>> project_includes;  // key, line

  bool first_include_seen = false;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;

    // --- includes: D1/D3 banned headers, L1/L2 layering, H3 order ---
    // (parsed from the strings-intact view: the include path IS a string)
    const std::string inc = include_target(lines[i].code_strings);
    if (!inc.empty()) {
      if (const auto it = banned_includes().find(inc);
          it != banned_includes().end()) {
        add(i, it->second.c_str(),
            "#include " + inc + " is banned: " +
                (it->second == "D3"
                     ? std::string("<random> distributions are "
                                   "implementation-defined; use util/rng")
                     : std::string("wall-time/date APIs break determinism; "
                                   "use sim::Simulator::now()")));
      }
      if (inc.front() == '"') {
        const std::string path = inc.substr(1, inc.size() - 2);
        const std::size_t slash = path.find('/');
        const std::string first =
            slash == std::string::npos ? "" : path.substr(0, slash);
        const bool first_is_module = layer_deps().count(first) != 0;
        if (first_is_module) {
          project_includes.emplace_back(path, static_cast<int>(i) + 1);
        }
        if (!mod.empty()) {
          if (!first_is_module) {
            add(i, "L2",
                "project include \"" + path +
                    "\" must be module-qualified (\"<module>/<file>.hpp\")");
          } else if (first != mod &&
                     layer_deps().at(mod).count(first) == 0) {
            add(i, "L1",
                "module '" + mod + "' must not include '" + first +
                    "' (allowed: self" +
                    [&] {
                      std::string s;
                      for (const auto& d : layer_deps().at(mod)) {
                        s += ", " + d;
                      }
                      return s;
                    }() +
                    "); see docs/static_analysis.md for the module DAG");
          }
        }
      }
      if (!first_include_seen && !mod.empty() && !header) {
        const std::filesystem::path own =
            file.parent_path() / (file.stem().string() + ".hpp");
        std::error_code ec;
        if (std::filesystem::exists(own, ec)) {
          const std::string expect = mod + "/" + file.stem().string() + ".hpp";
          if (inc != "\"" + expect + "\"") {
            add(i, "H3",
                "first include must be this file's own header \"" + expect +
                    "\" (keeps the header self-contained)");
          }
        }
      }
      first_include_seen = true;
    }

    // --- identifier-based rules (skipped on include directives: the
    // header itself was already judged above, and `<ctime>` would
    // otherwise double-report as the identifier `ctime`) ---
    for (const auto& [pos, ident] :
         inc.empty() ? identifiers(code)
                     : std::vector<std::pair<std::size_t, std::string>>{}) {
      if (const auto it = banned_idents().find(ident);
          it != banned_idents().end()) {
        add(i, "D1", ident + ": " + it->second);
      } else if (ident == "time" &&
                 is_banned_time_call(code, pos, pos + ident.size())) {
        add(i, "D1",
            "time(): wall-time API; simulated time comes from "
            "sim::Simulator::now()");
      } else if (!emit_marker.empty() &&
                 unordered_containers().count(ident) != 0) {
        add(i, "D2",
            ident + " in a result-emitting file (uses " + emit_marker +
                " at line " + std::to_string(emit_line) +
                "): iteration order is unspecified; use std::map or sort "
                "keys before emitting");
      }
    }

    // --- H2: using namespace in headers ---
    if (header) {
      const std::size_t un = code.find("using namespace");
      if (un != std::string::npos &&
          (un == 0 || !is_ident_char(code[un - 1]))) {
        add(i, "H2",
            "`using namespace` in a header leaks into every includer; "
            "qualify names instead");
      }
    }

    // --- O1/O2: metric-name literals ---
    for (const auto& name : metric_literals(lines[i].code_strings)) {
      if (!valid_metric_name(name)) {
        add(i, "O1",
            "metric name \"" + name +
                "\" does not match component.metric.unit (>= 3 lowercase "
                "dot-separated segments)");
      } else if (opt.check_docs && opt.documented_metrics.count(name) == 0) {
        add(i, "O2",
            "metric name \"" + name +
                "\" is not documented in the metrics reference; add it to "
                "docs/observability.md");
      }
    }
  }

  // ------------------------------------------------------------------
  // Token-stream rules: U (units hygiene) and E (handle lifecycle).
  // ------------------------------------------------------------------
  const std::vector<Token> toks = tokenize(lines);
  const std::set<std::size_t> include_lines = [&] {
    std::set<std::size_t> out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (!include_target(lines[i].code_strings).empty()) out.insert(i + 1);
    }
    return out;
  }();

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tk = toks[i];
    const std::size_t lineno = static_cast<std::size_t>(tk.line);
    if (include_lines.count(lineno) != 0) continue;

    // --- U1: bare conversion constants ---
    if (tk.kind == Token::Kind::kNumber && !is_units_header) {
      if (const char* fix = banned_conversion_constant(tk.text)) {
        add(lineno - 1, "U1",
            "bare conversion constant " + tk.text +
                " outside src/util/units.hpp; " + fix);
      }
    }

    // --- U2/U3: declaration suffix/type agreement ---
    if (tk.kind == Token::Kind::kIdent && i > 0 && i + 1 < toks.size() &&
        !is_cpp_keyword_lite(tk.text) && !is_units_header) {
      const Token& next = toks[i + 1];
      const bool decl_follower =
          next.kind == Token::Kind::kPunct &&
          (next.text == ";" || next.text == "=" || next.text == "," ||
           next.text == ")" || next.text == "{" || next.text == "[" ||
           next.text == ":");
      if (decl_follower) {
        // The declared type is the token right before the name (allow one
        // `&` for pass-by-reference).
        std::size_t ti = i - 1;
        if (toks[ti].kind == Token::Kind::kPunct && toks[ti].text == "&" &&
            ti > 0) {
          --ti;
        }
        const Token& tt = toks[ti];
        const bool qualified =
            ti > 0 && toks[ti - 1].kind == Token::Kind::kPunct &&
            toks[ti - 1].text == "::" &&
            !(ti > 1 && toks[ti - 2].text == "std");
        if (tt.kind == Token::Kind::kIdent && !qualified &&
            (is_unit_alias(tt.text) || is_raw_arith_type(tt.text))) {
          const std::string& type = tt.text;
          const std::string& name = tk.text;
          bool suffix_matched = false;
          for (const auto& [suffix, alias] : unit_suffixes()) {
            if (name.size() <= suffix.size() ||
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) != 0) {
              continue;
            }
            suffix_matched = true;
            if (alias.empty()) {
              if (!is_floating_type(type) && type != "Tick") {
                add(lineno - 1, "U2",
                    "'" + name + "' states a fractional unit (" + suffix +
                        ") but is declared " + type +
                        "; boundary values are double (convert with "
                        "seconds_to_ticks/milliseconds_to_ticks) — or "
                        "rename to _ticks and use Tick");
              } else if (type == "Tick") {
                add(lineno - 1, "U2",
                    "'" + name + "' is a Tick but its name says " + suffix +
                        "; rename to _ticks (a Tick is 1 µs — mislabelled "
                        "units are how energy results drift)");
              }
            } else if (type != alias) {
              add(lineno - 1, "U2",
                  "'" + name + "' states " + suffix +
                      " but is declared " + type + "; use the units.hpp "
                      "alias " + alias);
            }
            break;
          }
          if (!suffix_matched && is_raw_arith_type(type) &&
              quantity_words().count(last_name_word(name)) != 0) {
            add(lineno - 1, "U3",
                "'" + name + "' holds a physical quantity but is declared "
                "raw " + type + "; use Tick/Joules/Watts (units.hpp) or "
                "state the unit in the name (_ticks/_ms/_sec/_joules)");
          }
        }
      }
    }

    // --- E1: dropped EventHandle ---
    if (tk.kind == Token::Kind::kIdent &&
        (tk.text == "schedule_at" || tk.text == "schedule_after") &&
        i + 1 < toks.size() && toks[i + 1].kind == Token::Kind::kPunct &&
        toks[i + 1].text == "(" &&
        is_discarded_schedule_call(toks, static_cast<int>(i))) {
      add(lineno - 1, "E1",
          tk.text + "(...) returns a cancellable EventHandle that is "
          "silently dropped; bind it, return it, or mark the event "
          "fire-and-forget with (void) — un-cancellable timers are the "
          "root cause class the hedge machinery exists to avoid");
    }
  }

  // ------------------------------------------------------------------
  // Rule family I: cross-TU include hygiene (needs the symbol index).
  // Like the L family it only applies to module files under src/ —
  // application-level code (tests/, bench/, examples/, tools/)
  // intentionally includes umbrella headers.
  // ------------------------------------------------------------------
  if (opt.index != nullptr && !opt.index->empty() && !mod.empty()) {
    const SymbolIndex& idx = *opt.index;

    // Identifier usage off include directives.  I1 (is the include used
    // at all?) counts every identifier; I2 (must this header be included
    // directly?) excludes member accesses — `obj.params` names a member,
    // not a symbol this TU must see a declaration for.
    std::map<std::string, int> first_use;         // liberal, for I1
    std::map<std::string, int> first_use_strong;  // no member access, for I2
    for (std::size_t ti = 0; ti < toks.size(); ++ti) {
      const Token& t = toks[ti];
      if (t.kind != Token::Kind::kIdent) continue;
      if (include_lines.count(static_cast<std::size_t>(t.line)) != 0)
        continue;
      first_use.emplace(t.text, t.line);
      const Token* prev = ti > 0 ? &toks[ti - 1] : nullptr;
      const Token* next = ti + 1 < toks.size() ? &toks[ti + 1] : nullptr;
      // `obj.params` names a member, not a symbol needing a declaration.
      const bool member_access =
          prev != nullptr && prev->kind == Token::Kind::kPunct &&
          (prev->text == "." || prev->text == "->");
      // In `std::set` the demanded symbol is std's, and in `disk::Model`
      // it is the one after the `::` — not the qualifier itself.
      const bool std_qualified =
          prev != nullptr && prev->text == "::" && ti >= 2 &&
          toks[ti - 2].text == "std";
      const bool is_qualifier = next != nullptr && next->text == "::";
      // `Params params,` / `& start)` declare a name; only the type to
      // the left is a real symbol demand.
      const bool decl_name =
          prev != nullptr && next != nullptr &&
          ((prev->kind == Token::Kind::kIdent &&
            !is_cpp_keyword_lite(prev->text)) ||
           prev->text == ">" || prev->text == "&" || prev->text == "*" ||
           prev->text == "]") &&
          next->kind == Token::Kind::kPunct &&
          (next->text == "," || next->text == ")" || next->text == ";" ||
           next->text == "=" || next->text == "{" || next->text == "[" ||
           next->text == ":");
      if (!member_access && !std_qualified && !is_qualifier && !decl_name) {
        first_use_strong.emplace(t.text, t.line);
      }
    }

    std::set<std::string> direct;
    for (const auto& [key, inc_line] : project_includes) direct.insert(key);

    // I1: dead direct includes.
    for (const auto& [key, inc_line] : project_includes) {
      if (key == own_key) continue;
      const auto it = idx.headers.find(key);
      if (it == idx.headers.end() || it->second.opaque) continue;
      bool used = false;
      for (const auto& sym : it->second.declared) {
        if (first_use.count(sym) != 0) {
          used = true;
          break;
        }
      }
      if (!used) {
        add(static_cast<std::size_t>(inc_line) - 1, "I1",
            "nothing declared by \"" + key + "\" is referenced in this "
            "file — dead include (or the file relies on its transitive "
            "includes; include those directly)");
      }
    }

    // I2: symbols owned by a header that is only reachable transitively.
    // A .cpp's own header re-exports everything it includes (the paired
    // header is always included first, so its dependencies are a stable
    // part of the TU's interface) — standard IWYU associated-header rule.
    std::set<std::string> exported;
    if (!header) {
      if (const auto it = idx.headers.find(own_key);
          it != idx.headers.end()) {
        exported = it->second.reach;
      }
    }
    std::set<std::string> reachable;
    for (const auto& key : direct) {
      const auto it = idx.headers.find(key);
      if (it == idx.headers.end()) continue;
      reachable.insert(it->second.reach.begin(), it->second.reach.end());
    }
    const std::set<std::string> own_decls = declared_symbols(raw);
    std::map<std::string, std::pair<int, std::string>> missing;  // hdr->line,sym
    for (const auto& [sym, use_line] : first_use_strong) {
      if (sym.size() < 3 || own_decls.count(sym) != 0) continue;
      const auto owner_it = idx.unique_owner.find(sym);
      if (owner_it == idx.unique_owner.end()) continue;
      const std::string& owner = owner_it->second;
      if (owner == own_key || direct.count(owner) != 0) continue;
      if (exported.count(owner) != 0) continue;  // via own header
      if (reachable.count(owner) == 0) continue;  // not provably from here
      const auto it = missing.find(owner);
      if (it == missing.end() || use_line < it->second.first) {
        missing[owner] = {use_line, sym};
      }
    }
    for (const auto& [owner, where] : missing) {
      add(static_cast<std::size_t>(where.first) - 1, "I2",
          "'" + where.second + "' is declared in \"" + owner +
              "\" which this file only includes transitively; include it "
              "directly (include-what-you-use)");
    }
  }

  // Apply suppressions: tokens on the finding's line, or on the directly
  // preceding line when that line is comment-only.
  std::vector<Finding> kept;
  for (auto& f : found) {
    const std::size_t idx = static_cast<std::size_t>(f.line - 1);
    std::set<std::string> tokens = allow_tokens(lines[idx].comment);
    if (idx > 0 && trim(lines[idx - 1].code).empty()) {
      const auto above = allow_tokens(lines[idx - 1].comment);
      tokens.insert(above.begin(), above.end());
    }
    if (!suppressed(tokens, f.rule)) kept.push_back(std::move(f));
  }
  std::sort(kept.begin(), kept.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });
  kept.erase(std::unique(kept.begin(), kept.end(),
                         [](const Finding& a, const Finding& b) {
                           return a.file == b.file && a.line == b.line &&
                                  a.rule == b.rule && a.message == b.message;
                         }),
             kept.end());
  return kept;
}

std::vector<Finding> lint_paths(
    const std::vector<std::filesystem::path>& paths, const Options& opt,
    std::size_t* files_scanned) {
  std::vector<std::filesystem::path> files;
  const auto lintable = [](const std::filesystem::path& p) {
    const std::string ext = p.extension().string();
    return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
  };
  for (const auto& p : paths) {
    std::error_code ec;
    if (std::filesystem::is_directory(p, ec)) {
      for (std::filesystem::recursive_directory_iterator it(p, ec), end;
           it != end; it.increment(ec)) {
        if (ec) break;
        if (it->is_directory() &&
            it->path().filename() == "lint_fixtures") {
          it.disable_recursion_pending();
          continue;
        }
        if (it->is_regular_file() && lintable(it->path())) {
          files.push_back(it->path());
        }
      }
    } else {
      files.push_back(p);
    }
  }
  std::sort(files.begin(), files.end(),
            [](const std::filesystem::path& a, const std::filesystem::path& b) {
              return a.generic_string() < b.generic_string();
            });
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<Finding> out;
  for (const auto& f : files) {
    auto one = lint_file(f, opt);
    out.insert(out.end(), std::make_move_iterator(one.begin()),
               std::make_move_iterator(one.end()));
  }
  if (files_scanned != nullptr) *files_scanned = files.size();
  return out;
}

}  // namespace eevfs::lint
