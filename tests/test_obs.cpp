// Observability layer: registry determinism, tracer ring semantics,
// sink golden output, and the guarantee that tracing never perturbs a
// run (docs/observability.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "core/run_report.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::obs {
namespace {

// ---------------------------------------------------------------- registry

TEST(Registry, CreatesOnFirstUseAndFinds) {
  Registry reg;
  reg.counter("disk.spin_ups.count").add(3);
  reg.gauge("energy.total.joules").set(42.5);
  reg.histogram("disk.queue_wait.us").record(100);
  EXPECT_EQ(reg.size(), 3u);
  ASSERT_NE(reg.find_counter("disk.spin_ups.count"), nullptr);
  EXPECT_EQ(reg.find_counter("disk.spin_ups.count")->value(), 3u);
  ASSERT_NE(reg.find_gauge("energy.total.joules"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("energy.total.joules")->value(), 42.5);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
}

TEST(Registry, NameRegisteredAsOneKindCannotChangeKind) {
  Registry reg;
  reg.counter("a.b.count");  // eevfs-lint: allow(O)
  EXPECT_THROW(reg.gauge("a.b.count"), std::logic_error);  // eevfs-lint: allow(O)
  EXPECT_THROW(reg.histogram("a.b.count"), std::logic_error);  // eevfs-lint: allow(O)
  reg.gauge("c.d.bytes");  // eevfs-lint: allow(O)
  EXPECT_THROW(reg.counter("c.d.bytes"), std::logic_error);  // eevfs-lint: allow(O)
  // Same kind re-lookup returns the same object.
  reg.counter("a.b.count").add(1);  // eevfs-lint: allow(O)
  reg.counter("a.b.count").add(1);  // eevfs-lint: allow(O)
  EXPECT_EQ(reg.find_counter("a.b.count")->value(), 2u);
}

TEST(Registry, SnapshotIsSortedAndDeterministic) {
  auto build = [] {
    Registry reg;
    reg.counter("z.last.count").add(9);  // eevfs-lint: allow(O)
    reg.histogram("m.middle.us").record(7);  // eevfs-lint: allow(O)
    reg.gauge("a.first.joules").set(1.0);  // eevfs-lint: allow(O)
    return reg.snapshot();
  };
  const auto a = build();
  const auto b = build();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].name, "a.first.joules");
  EXPECT_EQ(a[1].name, "m.middle.us");
  EXPECT_EQ(a[2].name, "z.last.count");
  EXPECT_EQ(a[0].kind, MetricKind::kGauge);
  EXPECT_EQ(a[1].kind, MetricKind::kHistogram);
  EXPECT_EQ(a[2].kind, MetricKind::kCounter);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].value, b[i].value);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

/// Nearest-rank `percent`-th percentile of a sorted sample, in exact
/// integer arithmetic: the ceil(n*percent/100)-th value, the first for 0.
std::uint64_t nearest_rank(const std::vector<std::uint64_t>& sorted,
                           std::uint64_t percent) {
  const std::uint64_t n = sorted.size();
  const std::uint64_t rank =
      std::max<std::uint64_t>(1, (n * percent + 99) / 100);
  return sorted[static_cast<std::size_t>(rank - 1)];
}

/// The histogram's percentile bound: `got` lies in
/// [exact, exact * (1 + 2^-7)).
bool within_bound(std::uint64_t got, std::uint64_t exact) {
  return got == exact ||
         (got > exact && got - exact <= (exact - 1) / 128);
}

constexpr std::uint64_t kPercents[] = {0, 50, 95, 99, 100};

TEST(Histogram, ExactStatsAndConservativePercentiles) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  for (const std::uint64_t pct : kPercents) {
    EXPECT_EQ(h.percentile(static_cast<double>(pct) / 100.0), 0u);
  }

  // Samples spread over every octave of [0, 2^64 - 1], both ends included.
  Rng rng(20);
  std::vector<std::uint64_t> xs = {0, ~0ull};
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t width = rng.next_below(65);
    xs.push_back(width == 0 ? 0 : rng.next_u64() >> (64 - width));
  }
  double sum = 0.0;
  for (const std::uint64_t x : xs) {
    h.record(x);
    sum += static_cast<double>(x);
  }
  std::sort(xs.begin(), xs.end());
  EXPECT_EQ(h.count(), xs.size());
  EXPECT_EQ(h.min(), xs.front());
  EXPECT_EQ(h.max(), xs.back());
  EXPECT_EQ(h.sum(), sum);
  for (const std::uint64_t pct : kPercents) {
    const std::uint64_t got = h.percentile(static_cast<double>(pct) / 100.0);
    const std::uint64_t exact = nearest_rank(xs, pct);
    EXPECT_TRUE(within_bound(got, exact))
        << "p" << pct << ": got " << got << ", exact " << exact;
  }
  EXPECT_EQ(h.percentile(1.0), ~0ull);
  EXPECT_EQ(h.percentile(-1.0), h.percentile(0.0));
  EXPECT_EQ(h.percentile(2.0), h.percentile(1.0));
}

TEST(Histogram, ZeroAndHugeSamplesLandInBounds) {
  Histogram h;
  h.record(0);
  h.record(~0ull);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), ~0ull);
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(~0ull));
  // 0 lands in the first bucket, read back exactly; 2^64 - 1 in the last,
  // whose upper edge is clamped to the max instead of overflowing.
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(0.5), 0u);
  EXPECT_EQ(h.percentile(0.51), ~0ull);
  EXPECT_EQ(h.percentile(1.0), ~0ull);
}

// ------------------------------------------------------------------ tracer

TracerConfig small_ring(std::size_t capacity) {
  TracerConfig cfg;
  cfg.enabled = true;
  cfg.capacity = capacity;
  return cfg;
}

TEST(Tracer, DisabledByDefaultAndRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  EXPECT_FALSE(t.wants(kCatDisk));
  t.instant(0, kCatDisk, TraceLevel::kInfo, t.intern("x"), 0);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.events().empty());
}

TEST(Tracer, WantsFiltersByCategoryAndLevel) {
  TracerConfig cfg = small_ring(8);
  cfg.category_mask = kCatDisk | kCatPower;
  cfg.min_level = TraceLevel::kInfo;
  Tracer t(cfg);
  EXPECT_TRUE(t.wants(kCatDisk));
  EXPECT_TRUE(t.wants(kCatPower, TraceLevel::kInfo));
  EXPECT_FALSE(t.wants(kCatNet));
  EXPECT_FALSE(t.wants(kCatDisk, TraceLevel::kDebug));
  // instant() itself also filters, so unguarded emits are still correct.
  t.instant(1, kCatNet, TraceLevel::kInfo, t.intern("net.send"), 0);
  t.instant(2, kCatDisk, TraceLevel::kDebug, t.intern("disk.state"), 0);
  EXPECT_EQ(t.recorded(), 0u);
  t.instant(3, kCatDisk, TraceLevel::kInfo, t.intern("disk.state"), 0);
  EXPECT_EQ(t.recorded(), 1u);
}

TEST(Tracer, RingOverflowDropsOldestAndCounts) {
  Tracer t(small_ring(4));
  const StringId name = t.intern("ev");
  for (Tick ts = 0; ts < 10; ++ts) {
    t.instant(ts, kCatSim, TraceLevel::kInfo, name, 0);
  }
  EXPECT_EQ(t.recorded(), 10u);  // recorded counts every accepted event
  EXPECT_EQ(t.dropped(), 6u);
  ASSERT_EQ(t.events().size(), 4u);
  // The survivors are the NEWEST four (drop-oldest policy).
  EXPECT_EQ(t.events().front().ts, 6);
  EXPECT_EQ(t.events().back().ts, 9);
}

TEST(Tracer, InternIsStableAndZeroIsEmpty) {
  Tracer t;
  EXPECT_EQ(t.lookup(0), "");
  const StringId a = t.intern("node0/data0");
  const StringId b = t.intern("node0/data0");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, 0u);
  EXPECT_EQ(t.lookup(a), "node0/data0");
  EXPECT_EQ(t.intern(""), 0u);

  // Enough strings to regrow the table many times, half of them short
  // enough to live in std::string's inline buffer (which moves on
  // regrowth), interned in an order that is not sorted.
  Tracer u;
  std::vector<std::string> names;
  for (int i = 0; i < 5000; ++i) {
    names.push_back(i % 2 == 0 ? std::to_string(i)
                               : "node" + std::to_string(i) + "/data/track");
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(u.intern(names[i]), static_cast<StringId>(i + 1));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(u.intern(names[i]), static_cast<StringId>(i + 1));
    EXPECT_EQ(u.lookup(static_cast<StringId>(i + 1)), names[i]);
  }
}

TEST(Tracer, JsonlGoldenOutput) {
  Tracer t(small_ring(8));
  t.instant(150, kCatDisk, TraceLevel::kInfo, t.intern("disk.state"),
            t.intern("node0/data0"), t.intern("idle->active"));
  t.complete(200, 50, kCatClient, TraceLevel::kInfo,
             t.intern("client.request"), t.intern("client1"), t.intern("ok"),
             7, 2);
  std::ostringstream out;
  t.write_jsonl(out);
  EXPECT_EQ(out.str(),
            "{\"ts\":150,\"cat\":\"disk\",\"level\":\"info\","
            "\"name\":\"disk.state\",\"track\":\"node0/data0\","
            "\"detail\":\"idle->active\"}\n"
            "{\"ts\":200,\"dur\":50,\"cat\":\"client\",\"level\":\"info\","
            "\"name\":\"client.request\",\"track\":\"client1\","
            "\"detail\":\"ok\",\"a0\":7,\"a1\":2}\n");
}

TEST(Tracer, ChromeTraceShape) {
  Tracer t(small_ring(8));
  t.instant(10, kCatPower, TraceLevel::kInfo, t.intern("power.sleep"),
            t.intern("node0"));
  t.complete(20, 5, kCatNode, TraceLevel::kInfo, t.intern("node.read"),
             t.intern("node0"), 0, 4096);
  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string s = out.str();
  // An object wrapping a traceEvents array of instant ("ph":"i"),
  // complete ("ph":"X"), and thread_name metadata events, µs timestamps.
  EXPECT_EQ(s.front(), '{');
  EXPECT_NE(s.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(s.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(s.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(s.find("\"ts\":10"), std::string::npos);
  EXPECT_NE(s.find("\"dur\":5"), std::string::npos);
  EXPECT_NE(s.find("node0"), std::string::npos);
}

TEST(CategoryMask, ParsesListsAndAll) {
  EXPECT_EQ(parse_category_mask("all"), kAllCategories);
  EXPECT_EQ(parse_category_mask(""), kAllCategories);
  EXPECT_EQ(parse_category_mask("disk"), kCatDisk);
  EXPECT_EQ(parse_category_mask("disk,power,client"),
            kCatDisk | kCatPower | kCatClient);
  // Unknown names are ignored; a spec with no known names falls back to
  // everything rather than silencing the trace.
  EXPECT_EQ(parse_category_mask("bogus"), kAllCategories);
  EXPECT_EQ(parse_category_mask("bogus,disk"), kCatDisk);
}

}  // namespace
}  // namespace eevfs::obs

namespace eevfs::core {
namespace {

workload::Workload tiny_workload(std::size_t requests = 200) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = requests;
  return workload::generate_synthetic(cfg);
}

// The central guarantee of the observability layer: enabling tracing
// changes NOTHING about the simulation — RunMetrics and the counter
// snapshot are identical with tracing on and off.
TEST(Observability, TracingDoesNotPerturbTheRun) {
  const auto w = tiny_workload();
  ClusterConfig off_cfg = baseline::eevfs_pf();
  ClusterConfig on_cfg = off_cfg;
  on_cfg.trace.enabled = true;

  Cluster off(off_cfg), on(on_cfg);
  const RunMetrics a = off.run(w);
  const RunMetrics b = on.run(w);
  EXPECT_GT(on.tracer().recorded(), 0u);
  EXPECT_EQ(off.tracer().recorded(), 0u);

  EXPECT_EQ(a.total_joules, b.total_joules);  // bit-exact
  EXPECT_EQ(a.disk_joules, b.disk_joules);
  EXPECT_EQ(a.power_transitions, b.power_transitions);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.response_time_sec.mean(), b.response_time_sec.mean());
  EXPECT_EQ(a.counters, b.counters);  // every metric, bit-exact
}

// Components get the tracer only when it records, so an untraced run
// interns no string: a 1024-node cell keeps no table of its disk labels.
TEST(Observability, UntracedRunInternsNothing) {
  Cluster off(baseline::eevfs_pf());
  (void)off.run(tiny_workload());
  EXPECT_EQ(off.tracer().lookup(0), "");
  EXPECT_THROW((void)off.tracer().lookup(1), std::out_of_range);
}

// The response percentiles pool every client's successful requests:
// the latency histogram's p50/p95/p99 and RunMetrics' p95/p99 each lie
// within the histogram's bound of the exact nearest-rank value of the
// traced `ok` request durations, over the defaults/pf golden's workload.
TEST(Observability, ResponsePercentilesPoolEveryClient) {
  workload::SyntheticConfig wcfg;
  wcfg.num_files = 1000;
  wcfg.num_requests = 1000;
  wcfg.mean_data_size_mb = 10.0;
  wcfg.mu = 1000.0;
  wcfg.inter_arrival_ms = 700.0;
  wcfg.seed = 42;
  ClusterConfig cfg;
  ASSERT_GT(cfg.num_clients, 1u);
  cfg.trace.enabled = true;
  cfg.trace.category_mask = obs::kCatClient;
  cfg.trace.min_level = obs::TraceLevel::kInfo;
  cfg.trace.capacity = wcfg.num_requests * (cfg.max_request_retries + 1);
  Cluster cluster(cfg);
  const RunMetrics m = cluster.run(workload::generate_synthetic(wcfg));

  const obs::Tracer& tracer = cluster.tracer();
  ASSERT_EQ(tracer.dropped(), 0u);
  std::vector<std::uint64_t> ok;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (tracer.lookup(ev.detail) == "ok") {
      ok.push_back(static_cast<std::uint64_t>(ev.dur));
    }
  }
  std::sort(ok.begin(), ok.end());
  ASSERT_EQ(ok.size(), m.response_time_sec.count());
  const obs::Sample& latency = m.metric("client.request_latency.us");
  EXPECT_EQ(latency.count, ok.size());

  const auto expect_pooled = [&ok](const char* what, Tick got,
                                   std::uint64_t percent) {
    const std::uint64_t exact = obs::nearest_rank(ok, percent);
    EXPECT_TRUE(obs::within_bound(static_cast<std::uint64_t>(got), exact))
        << what << ": " << got << " us, exact " << exact << " us";
  };
  expect_pooled("latency p50", static_cast<Tick>(latency.p50), 50);
  expect_pooled("latency p95", static_cast<Tick>(latency.p95), 95);
  expect_pooled("latency p99", static_cast<Tick>(latency.p99), 99);
  expect_pooled("response_p95_sec", seconds_to_ticks(m.response_p95_sec), 95);
  expect_pooled("response_p99_sec", seconds_to_ticks(m.response_p99_sec), 99);
}

TEST(Observability, EveryCounterNameFollowsTheConvention) {
  const auto w = tiny_workload(100);
  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  ASSERT_FALSE(m.counters.empty());
  for (const auto& s : m.counters) {
    // component.metric.unit — at least three non-empty dot segments.
    std::size_t segments = 1;
    EXPECT_NE(s.name.front(), '.') << s.name;
    EXPECT_NE(s.name.back(), '.') << s.name;
    for (std::size_t i = 1; i < s.name.size(); ++i) {
      if (s.name[i] == '.') {
        ++segments;
        EXPECT_NE(s.name[i - 1], '.') << s.name;
      }
    }
    EXPECT_GE(segments, 3u) << s.name;
  }
}

TEST(Observability, CounterUniverseIsStableAcrossConfigs) {
  // Every component registers its names when it is built, zero-valued or
  // not, so every configuration exposes the PF run's name universe —
  // faults, crashes (the only runs with a RecoveryManager), erasure
  // coding, the journal off, online popularity, power hints and MAID
  // alike — and a RAM-tier run adds exactly the ten ramcache.* names.
  // Report consumers can diff runs column by column.
  const auto w = tiny_workload(100);
  const ClusterConfig pf = baseline::eevfs_pf();
  const auto names = [&w](const ClusterConfig& cfg) {
    Cluster c(cfg);
    std::vector<std::string> out;
    for (const obs::Sample& s : c.run(w).counters) out.push_back(s.name);
    return out;
  };
  const std::vector<std::string> universe = names(pf);

  std::vector<std::pair<std::string, ClusterConfig>> variants;
  const auto variant = [&](const char* label, auto edit) {
    ClusterConfig cfg = pf;
    edit(cfg);
    variants.emplace_back(label, cfg);
  };
  variant("npf",
          [](ClusterConfig& c) { c.cache_policy = CachePolicy::kNone; });
  variant("replicated disk fault", [](ClusterConfig& c) {
    c.replication_degree = 2;
    c.fault_plan.fail_data_disk(0.0, 0, 0);
  });
  variant("crash/restart", [](ClusterConfig& c) {
    c.fault_plan.crash_node(1.0, 0).restart_node(5.0, 0);
  });
  variant("ec(4,2)", [](ClusterConfig& c) {
    c.ec_n = 4;
    c.ec_k = 2;
  });
  variant("journal off", [](ClusterConfig& c) {
    c.journal_mode = disk::JournalMode::kOff;
  });
  variant("online popularity",
          [](ClusterConfig& c) { c.online_popularity = true; });
  variant("hints", [](ClusterConfig& c) {
    c.power_policy = PowerPolicy::kHints;
  });
  variant("maid", [](ClusterConfig& c) {
    c.cache_policy = CachePolicy::kLruOnMiss;
    c.power_policy = PowerPolicy::kIdleTimer;
  });
  for (const auto& [label, cfg] : variants) {
    EXPECT_EQ(names(cfg), universe) << label;
  }

  ClusterConfig ram = pf;
  ram.ram_cache_bytes = 64 * kMB;
  const std::vector<std::string> with_ram = names(ram);
  std::vector<std::string> added;
  std::set_difference(with_ram.begin(), with_ram.end(), universe.begin(),
                      universe.end(), std::back_inserter(added));
  EXPECT_EQ(with_ram.size(), universe.size() + added.size());
  EXPECT_EQ(added.size(), 10u);
  for (const std::string& name : added) {
    EXPECT_EQ(name.rfind("ramcache.", 0), 0u) << name;
  }
}

TEST(RunReport, WriterProducesAValidDocument) {
  const auto w = tiny_workload(100);
  ClusterConfig cfg = baseline::eevfs_pf();
  cfg.trace.enabled = true;
  Cluster c(cfg);
  const RunMetrics m = c.run(w);

  RunReportWriter report("test_obs");
  report.add_run({.name = "pf", .config = "tiny synthetic"}, m, &c.tracer());
  report.add_run(
      {.name = "pf/again", .config = "", .wall_seconds = c.wall_seconds()},
      m);
  EXPECT_EQ(report.runs(), 2u);

  std::string error;
  EXPECT_TRUE(validate_run_report(report.json(), &error)) << error;
}

TEST(RunReport, ValidatorRejectsBadDocuments) {
  std::string error;
  EXPECT_FALSE(validate_run_report("not json", &error));
  EXPECT_FALSE(validate_run_report("{}", &error));
  EXPECT_FALSE(error.empty());
  // Wrong schema version hard-fails.
  EXPECT_FALSE(validate_run_report(
      R"({"schema_version":999,"bench":"x","runs":[]})", &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);
  // Prior schema versions hard-fail too (v2 documents still carry the
  // "availability" and "ram" objects).
  EXPECT_FALSE(validate_run_report(
      R"({"schema_version":2,"bench":"x","runs":[]})", &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);
  // runs must be an array.
  EXPECT_FALSE(validate_run_report(
      R"({"schema_version":3,"bench":"x","runs":{}})", &error));
  // Minimal valid document.
  EXPECT_TRUE(validate_run_report(
      R"({"schema_version":3,"bench":"x","runs":[]})", &error))
      << error;
}

TEST(RunReport, ValidatorEnforcesCounterShape) {
  const char* bad_name =
      R"({"schema_version":3,"bench":"x","runs":[{"name":"r","config":"",
          "meta":{"wall_seconds":0},
          "metrics":{"energy_joules":1,"disk_joules":1,"base_joules":0,
            "power_transitions":0,"spin_ups":0,"spin_downs":0,
            "wakeups_on_demand":0,"response_mean_sec":0,
            "response_p95_sec":0,"response_p99_sec":0,"requests":0,
            "buffer_hits":0,"data_disk_reads":0,"buffer_hit_rate":0,
            "makespan_sec":0,"prefetch_sec":0,"bytes_served":0,
            "bytes_prefetched":0},
          "counters":[{"name":"two.segments","kind":"counter","value":0}]}]})";
  std::string error;
  EXPECT_FALSE(validate_run_report(bad_name, &error));
  EXPECT_NE(error.find("two.segments"), std::string::npos);
}

}  // namespace
}  // namespace eevfs::core
