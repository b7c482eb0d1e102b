// Observability layer: registry determinism, tracer ring semantics,
// sink golden output, and the guarantee that tracing never perturbs a
// run (docs/observability.md).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "core/run_report.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"
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

TEST(Histogram, ExactStatsAndConservativePercentiles) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.99), 0u);
  EXPECT_EQ(h.min(), 0u);
  for (std::uint64_t x : {0ull, 1ull, 2ull, 3ull, 100ull, 1000ull}) {
    h.record(x);
  }
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_DOUBLE_EQ(h.sum(), 1106.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1106.0 / 6.0);
  // Percentiles resolve to the upper bound of the containing power-of-two
  // bucket: conservative, never below the true quantile.
  EXPECT_GE(h.percentile(0.5), 2u);
  EXPECT_GE(h.percentile(0.99), 1000u);
  EXPECT_LE(h.percentile(0.99), 1024u);
  EXPECT_EQ(h.percentile(0.0), 0u);  // bucket 0 holds x == 0
}

TEST(Histogram, ZeroAndHugeSamplesLandInBounds) {
  Histogram h;
  h.record(0);
  h.record(~0ull);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(64), 1u);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max(), ~0ull);
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
  // A loaded dump interns against its own table.
  std::stringstream dump;
  u.write_binary(dump);
  Tracer back;
  ASSERT_TRUE(back.read_binary(dump));
  EXPECT_EQ(back.intern(names[4321]), 4322u);
  EXPECT_EQ(back.intern("fresh"), 5001u);
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

TEST(Tracer, BinaryRoundTrips) {
  Tracer t(small_ring(16));
  t.instant(1, kCatFault, TraceLevel::kInfo, t.intern("fault.inject"),
            t.intern("node2"), t.intern("disk_transient"), -5, 99);
  t.complete(2, 3, kCatNet, TraceLevel::kDebug, t.intern("net.send"),
             t.intern("server"), 0, 1234);
  std::ostringstream out;
  t.write_binary(out);

  Tracer back;
  std::istringstream in(out.str());
  ASSERT_TRUE(back.read_binary(in));
  ASSERT_EQ(back.events().size(), 2u);
  const TraceEvent& e0 = back.events()[0];
  EXPECT_EQ(e0.ts, 1);
  EXPECT_EQ(e0.category, static_cast<std::uint32_t>(kCatFault));
  EXPECT_EQ(back.lookup(e0.name), "fault.inject");
  EXPECT_EQ(back.lookup(e0.track), "node2");
  EXPECT_EQ(back.lookup(e0.detail), "disk_transient");
  EXPECT_EQ(e0.a0, -5);
  EXPECT_EQ(e0.a1, 99);
  const TraceEvent& e1 = back.events()[1];
  EXPECT_EQ(e1.dur, 3);
  EXPECT_EQ(e1.level, TraceLevel::kDebug);
  EXPECT_EQ(back.lookup(e1.name), "net.send");

  std::istringstream garbage("not a trace");
  Tracer reject;
  EXPECT_FALSE(reject.read_binary(garbage));
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
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    EXPECT_EQ(a.counters[i].name, b.counters[i].name) << i;
    EXPECT_EQ(a.counters[i].kind, b.counters[i].kind) << a.counters[i].name;
    EXPECT_EQ(a.counters[i].value, b.counters[i].value)
        << a.counters[i].name;
    EXPECT_EQ(a.counters[i].count, b.counters[i].count)
        << a.counters[i].name;
  }
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
  // Zero-valued counters are still registered: a fault-free PF run and
  // an NPF run expose the same name universe, so report consumers can
  // diff runs column-by-column.
  const auto w = tiny_workload(100);
  ClusterConfig pf = baseline::eevfs_pf();
  ClusterConfig npf = pf;
  npf.enable_prefetch = false;
  Cluster a(pf), b(npf);
  const RunMetrics ma = a.run(w);
  const RunMetrics mb = b.run(w);
  ASSERT_EQ(ma.counters.size(), mb.counters.size());
  for (std::size_t i = 0; i < ma.counters.size(); ++i) {
    EXPECT_EQ(ma.counters[i].name, mb.counters[i].name);
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
  // Prior schema versions hard-fail too (v1 documents lack "ram").
  EXPECT_FALSE(validate_run_report(
      R"({"schema_version":1,"bench":"x","runs":[]})", &error));
  EXPECT_NE(error.find("schema_version"), std::string::npos);
  // runs must be an array.
  EXPECT_FALSE(validate_run_report(
      R"({"schema_version":2,"bench":"x","runs":{}})", &error));
  // Minimal valid document.
  EXPECT_TRUE(validate_run_report(
      R"({"schema_version":2,"bench":"x","runs":[]})", &error))
      << error;
}

TEST(RunReport, ValidatorEnforcesCounterShape) {
  const char* bad_name =
      R"({"schema_version":2,"bench":"x","runs":[{"name":"r","config":"",
          "meta":{"wall_seconds":0},
          "metrics":{"energy_joules":1,"disk_joules":1,"base_joules":0,
            "power_transitions":0,"spin_ups":0,"spin_downs":0,
            "wakeups_on_demand":0,"response_mean_sec":0,
            "response_p95_sec":0,"response_p99_sec":0,"requests":0,
            "buffer_hits":0,"data_disk_reads":0,"buffer_hit_rate":0,
            "makespan_sec":0,"prefetch_sec":0,"bytes_served":0,
            "bytes_prefetched":0},
          "availability":{"faults_injected":0,"failed_requests":0,
            "timed_out_requests":0,"client_retries":0,"degraded_sec":0,
            "mttr_sec":0,"availability":1},
          "ram":{"enabled":false,"hits":0,"misses":0,"hit_rate":0,
            "evictions":0,"writebacks":0,"writes_absorbed":0,
            "lost_writes":0,"pinned_bytes":0},
          "counters":[{"name":"two.segments","kind":"counter","value":0}]}]})";
  std::string error;
  EXPECT_FALSE(validate_run_report(bad_name, &error));
  EXPECT_NE(error.find("two.segments"), std::string::npos);
}

}  // namespace
}  // namespace eevfs::core
