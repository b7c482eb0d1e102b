#include "obs/tracer.hpp"

#include <algorithm>
#include <istream>
#include <numeric>
#include <ostream>
#include <utility>

#include "obs/json.hpp"

namespace eevfs::obs {

std::string_view to_string(TraceCategory c) {
  switch (c) {
    case kCatSim: return "sim";
    case kCatDisk: return "disk";
    case kCatPower: return "power";
    case kCatPrefetch: return "prefetch";
    case kCatBuffer: return "buffer";
    case kCatNet: return "net";
    case kCatFault: return "fault";
    case kCatServer: return "server";
    case kCatNode: return "node";
    case kCatClient: return "client";
    case kCatRecovery: return "recovery";
  }
  return "?";
}

std::uint32_t parse_category_mask(std::string_view spec) {
  if (spec.empty() || spec == "all") return kAllCategories;
  static constexpr std::pair<std::string_view, TraceCategory> kNames[] = {
      {"sim", kCatSim},       {"disk", kCatDisk},     {"power", kCatPower},
      {"prefetch", kCatPrefetch}, {"buffer", kCatBuffer}, {"net", kCatNet},
      {"fault", kCatFault},   {"server", kCatServer}, {"node", kCatNode},
      {"client", kCatClient}, {"recovery", kCatRecovery},
  };
  std::uint32_t mask = 0;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string_view tok = spec.substr(
        pos, comma == std::string_view::npos ? spec.size() - pos : comma - pos);
    for (const auto& [name, cat] : kNames) {
      if (tok == name) mask |= cat;
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return mask == 0 ? kAllCategories : mask;
}

StringId Tracer::intern(std::string_view s) {
  if (s.empty()) return 0;
  const auto pos = std::lower_bound(
      by_string_.begin(), by_string_.end(), s,
      [this](StringId id, std::string_view key) { return strings_[id] < key; });
  if (pos != by_string_.end() && strings_[*pos] == s) return *pos;
  const auto id = static_cast<StringId>(strings_.size());
  strings_.emplace_back(s);
  by_string_.insert(pos, id);
  return id;
}

void Tracer::push(TraceEvent ev) {
  if (cfg_.capacity == 0) {
    ++dropped_;
    return;
  }
  if (ring_.size() == cfg_.capacity) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(ev);
  ++recorded_;
}

void Tracer::instant(Tick ts, TraceCategory cat, TraceLevel level,
                     StringId name, StringId track, StringId detail,
                     std::int64_t a0, std::int64_t a1) {
  if (!wants(cat, level)) return;
  TraceEvent ev;
  ev.ts = ts;
  ev.category = cat;
  ev.level = level;
  ev.name = name;
  ev.track = track;
  ev.detail = detail;
  ev.a0 = a0;
  ev.a1 = a1;
  push(ev);
}

void Tracer::complete(Tick ts, Tick dur, TraceCategory cat, TraceLevel level,
                      StringId name, StringId track, StringId detail,
                      std::int64_t a0, std::int64_t a1) {
  if (!wants(cat, level)) return;
  TraceEvent ev;
  ev.ts = ts;
  ev.dur = dur;
  ev.category = cat;
  ev.level = level;
  ev.name = name;
  ev.track = track;
  ev.detail = detail;
  ev.a0 = a0;
  ev.a1 = a1;
  push(ev);
}

namespace {

std::string_view level_name(TraceLevel l) {
  return l == TraceLevel::kDebug ? "debug" : "info";
}

}  // namespace

void Tracer::write_jsonl(std::ostream& out) const {
  for (const TraceEvent& ev : ring_) {
    JsonWriter w;
    w.begin_object();
    w.key("ts").value(static_cast<std::int64_t>(ev.ts));
    if (ev.dur != 0) w.key("dur").value(static_cast<std::int64_t>(ev.dur));
    w.key("cat").value(to_string(static_cast<TraceCategory>(ev.category)));
    w.key("level").value(level_name(ev.level));
    w.key("name").value(lookup(ev.name));
    w.key("track").value(lookup(ev.track));
    if (ev.detail != 0) w.key("detail").value(lookup(ev.detail));
    if (ev.a0 != 0) w.key("a0").value(ev.a0);
    if (ev.a1 != 0) w.key("a1").value(ev.a1);
    w.end_object();
    out << w.str() << '\n';
  }
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();

  // Tracks map to threads of a single process; name each row once.
  // Track id 0 ("") also gets a row so untracked events stay visible.
  std::vector<bool> used(strings_.size(), false);
  for (const TraceEvent& ev : ring_) used[ev.track] = true;
  for (std::size_t tid = 0; tid < used.size(); ++tid) {
    if (!used[tid]) continue;
    w.begin_object();
    w.key("ph").value("M");
    w.key("pid").value(std::int64_t{0});
    w.key("tid").value(static_cast<std::int64_t>(tid));
    w.key("name").value("thread_name");
    w.key("args").begin_object();
    w.key("name").value(tid == 0 ? std::string_view{"(run)"}
                                 : std::string_view{strings_[tid]});
    w.end_object();
    w.end_object();
  }

  for (const TraceEvent& ev : ring_) {
    w.begin_object();
    w.key("ph").value(ev.dur != 0 ? "X" : "i");
    w.key("pid").value(std::int64_t{0});
    w.key("tid").value(static_cast<std::int64_t>(ev.track));
    // Sim ticks are µs, which is the Chrome trace ts unit.
    w.key("ts").value(static_cast<std::int64_t>(ev.ts));
    if (ev.dur != 0) {
      w.key("dur").value(static_cast<std::int64_t>(ev.dur));
    } else {
      w.key("s").value("t");  // instant scoped to its thread row
    }
    w.key("cat").value(to_string(static_cast<TraceCategory>(ev.category)));
    w.key("name").value(lookup(ev.name));
    w.key("args").begin_object();
    if (ev.detail != 0) w.key("detail").value(lookup(ev.detail));
    w.key("a0").value(ev.a0);
    w.key("a1").value(ev.a1);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << w.str() << '\n';
}

namespace {

constexpr char kBinaryMagic[8] = {'E', 'E', 'V', 'T', 'R', 'C', '0', '1'};

void put_u64(std::ostream& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
  out.write(buf, 8);
}

bool get_u64(std::istream& in, std::uint64_t& v) {
  char buf[8];
  if (!in.read(buf, 8)) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  }
  return true;
}

}  // namespace

void Tracer::write_binary(std::ostream& out) const {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  put_u64(out, strings_.size());
  for (const std::string& s : strings_) {
    put_u64(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
  }
  put_u64(out, ring_.size());
  for (const TraceEvent& ev : ring_) {
    put_u64(out, static_cast<std::uint64_t>(ev.ts));
    put_u64(out, static_cast<std::uint64_t>(ev.dur));
    put_u64(out, ev.category);
    put_u64(out, static_cast<std::uint64_t>(ev.level));
    put_u64(out, ev.name);
    put_u64(out, ev.track);
    put_u64(out, ev.detail);
    put_u64(out, static_cast<std::uint64_t>(ev.a0));
    put_u64(out, static_cast<std::uint64_t>(ev.a1));
  }
}

bool Tracer::read_binary(std::istream& in) {
  char magic[sizeof(kBinaryMagic)];
  if (!in.read(magic, sizeof(magic))) return false;
  for (std::size_t i = 0; i < sizeof(magic); ++i) {
    if (magic[i] != kBinaryMagic[i]) return false;
  }
  std::uint64_t nstrings = 0;
  if (!get_u64(in, nstrings)) return false;
  // A dump never has more strings than bytes; reject absurd headers
  // before allocating.
  if (nstrings == 0 || nstrings > (std::uint64_t{1} << 32)) return false;
  std::vector<std::string> strings;
  strings.reserve(static_cast<std::size_t>(nstrings));
  for (std::uint64_t i = 0; i < nstrings; ++i) {
    std::uint64_t len = 0;
    if (!get_u64(in, len)) return false;
    if (len > (std::uint64_t{1} << 24)) return false;
    std::string s(static_cast<std::size_t>(len), '\0');
    if (len != 0 &&
        !in.read(s.data(), static_cast<std::streamsize>(len))) {
      return false;
    }
    strings.push_back(std::move(s));
  }
  if (!strings.empty() && !strings[0].empty()) return false;
  std::uint64_t nevents = 0;
  if (!get_u64(in, nevents)) return false;
  std::deque<TraceEvent> ring;
  for (std::uint64_t i = 0; i < nevents; ++i) {
    std::uint64_t ts = 0, dur = 0, cat = 0, level = 0, name = 0, track = 0,
                  detail = 0, a0 = 0, a1 = 0;
    if (!get_u64(in, ts) || !get_u64(in, dur) || !get_u64(in, cat) ||
        !get_u64(in, level) || !get_u64(in, name) || !get_u64(in, track) ||
        !get_u64(in, detail) || !get_u64(in, a0) || !get_u64(in, a1)) {
      return false;
    }
    if (name >= nstrings || track >= nstrings || detail >= nstrings) {
      return false;
    }
    TraceEvent ev;
    ev.ts = static_cast<Tick>(ts);
    ev.dur = static_cast<Tick>(dur);
    ev.category = static_cast<std::uint32_t>(cat);
    ev.level = static_cast<TraceLevel>(level);
    ev.name = static_cast<StringId>(name);
    ev.track = static_cast<StringId>(track);
    ev.detail = static_cast<StringId>(detail);
    ev.a0 = static_cast<std::int64_t>(a0);
    ev.a1 = static_cast<std::int64_t>(a1);
    ring.push_back(ev);
  }
  strings_ = std::move(strings);
  by_string_.resize(strings_.size() - 1);
  std::iota(by_string_.begin(), by_string_.end(), StringId{1});
  std::stable_sort(by_string_.begin(), by_string_.end(),
                   [this](StringId a, StringId b) {
                     return strings_[a] < strings_[b];
                   });
  ring_ = std::move(ring);
  recorded_ = ring_.size();
  dropped_ = 0;
  return true;
}

}  // namespace eevfs::obs
