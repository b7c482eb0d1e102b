// Ring-buffered structured event tracer.
//
// Components emit fixed-size TraceEvent records stamped with sim time.
// The tracer is zero-overhead when disabled: every emit site is guarded
// by the inline `wants()` check (one load + mask), and RunMetrics never
// depends on trace state, so enabling tracing cannot perturb a run.
//
// Capacity is a hard bound: when the ring is full the OLDEST event is
// dropped (the end of a run — destage flush, final requests — is what a
// debugging session usually needs) and `dropped()` counts the loss.
//
// Sinks: JSONL (one event object per line, grep-friendly), Chrome trace
// format (load in chrome://tracing or https://ui.perfetto.dev), and a
// raw binary dump that round-trips through read_binary for offline
// tooling.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/units.hpp"

namespace eevfs::obs {

/// Bitmask of event sources, for filtering at emit time.
enum TraceCategory : std::uint32_t {
  kCatSim = 1u << 0,
  kCatDisk = 1u << 1,
  kCatPower = 1u << 2,
  kCatPrefetch = 1u << 3,
  kCatBuffer = 1u << 4,
  kCatNet = 1u << 5,
  kCatFault = 1u << 6,
  kCatServer = 1u << 7,
  kCatNode = 1u << 8,
  kCatClient = 1u << 9,
  kCatRecovery = 1u << 10,
};
inline constexpr std::uint32_t kAllCategories = 0xffffffffu;

std::string_view to_string(TraceCategory c);

/// Parses a comma-separated category list ("disk,power,client"); "all"
/// or an empty string yields kAllCategories.  Unknown names are ignored.
std::uint32_t parse_category_mask(std::string_view spec);

enum class TraceLevel : std::uint8_t {
  kDebug = 0,  // high-volume (per-message net sends)
  kInfo = 1,   // state changes, request lifecycle
};

/// Interned-string handle; 0 is always the empty string.
using StringId = std::uint32_t;

/// Fixed-size trace record.  Strings are interned; a0/a1 carry two
/// event-specific integer arguments (bytes, ids, ...), documented per
/// event name in docs/observability.md.
struct TraceEvent {
  Tick ts = 0;        // sim time, µs
  Tick dur = 0;       // 0 = instant; >0 = complete event of [ts, ts+dur]
  std::uint32_t category = 0;
  TraceLevel level = TraceLevel::kInfo;
  StringId name = 0;    // event type, e.g. "disk.state"
  StringId track = 0;   // timeline row, e.g. "node0/disk2"
  StringId detail = 0;  // free-form, e.g. "idle->standby"
  std::int64_t a0 = 0;
  std::int64_t a1 = 0;
};

struct TracerConfig {
  bool enabled = false;
  std::size_t capacity = std::size_t{1} << 16;
  std::uint32_t category_mask = kAllCategories;
  TraceLevel min_level = TraceLevel::kDebug;
};

class Tracer {
 public:
  Tracer() = default;
  explicit Tracer(const TracerConfig& cfg) : cfg_(cfg) {}

  const TracerConfig& config() const { return cfg_; }
  bool enabled() const { return cfg_.enabled; }

  /// True when an event of this category/level would be recorded.  Emit
  /// sites guard on this so argument marshalling is skipped entirely
  /// when tracing is off — the disabled cost is this inline check.
  bool wants(TraceCategory cat, TraceLevel level = TraceLevel::kInfo) const {
    return cfg_.enabled && (cfg_.category_mask & cat) != 0 &&
           level >= cfg_.min_level;
  }

  /// Interns `s`, returning a stable id.  Works even when disabled so
  /// components can cache track ids at setup time.  Ids are dense, in
  /// first-seen order; finding an interned string is a binary search.
  StringId intern(std::string_view s);
  const std::string& lookup(StringId id) const { return strings_.at(id); }

  void instant(Tick ts, TraceCategory cat, TraceLevel level, StringId name,
               StringId track, StringId detail = 0, std::int64_t a0 = 0,
               std::int64_t a1 = 0);
  /// Complete event spanning [ts, ts + dur].
  void complete(Tick ts, Tick dur, TraceCategory cat, TraceLevel level,
                StringId name, StringId track, StringId detail = 0,
                std::int64_t a0 = 0, std::int64_t a1 = 0);

  const std::deque<TraceEvent>& events() const { return ring_; }
  std::size_t recorded() const { return recorded_; }
  std::uint64_t dropped() const { return dropped_; }

  /// One JSON object per line:
  /// {"ts":..,"dur":..,"cat":"disk","level":"info","name":..,"track":..,
  ///  "detail":..,"a0":..,"a1":..}
  void write_jsonl(std::ostream& out) const;

  /// Chrome trace format (JSON array of events).  Tracks become thread
  /// rows via thread_name metadata; ts is in µs, which is exactly one
  /// sim tick, so the Perfetto timeline reads in sim time.
  void write_chrome_trace(std::ostream& out) const;

  /// Raw dump: header, string table, then fixed-size records.
  void write_binary(std::ostream& out) const;
  /// Loads a write_binary dump into `*this` (events + string table);
  /// returns false on a malformed stream.
  bool read_binary(std::istream& in);

 private:
  void push(TraceEvent ev);

  TracerConfig cfg_;
  std::deque<TraceEvent> ring_;
  std::vector<std::string> strings_{std::string{}};  // id 0 = ""
  /// Ids 1.. sorted by their string: intern's search index.  It holds
  /// ids, not views, so growth of strings_ cannot invalidate it.
  std::vector<StringId> by_string_;
  std::size_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace eevfs::obs
