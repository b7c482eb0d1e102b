// Engine-rework golden test: the event-engine internals may change
// (pooled slots, inline callbacks, a different heap), but every cluster
// scenario must produce bit-identical RunMetrics.  The expected digests
// pin the full metric surface — the paper's headline fields and the
// complete registry snapshot, which carries the availability, recovery,
// erasure and RAM-tier counts — for one representative configuration
// per bench family (fig3/4/5 defaults and sweeps, fig6 webtrace,
// fault_tolerance, online_adaptation, ablation_striping,
// ablation_policies/MAID, crash_recovery, tiered_cache).
//
// If a digest changes, the change altered simulation results: diff the
// printed digest text against the parent's before even thinking about
// re-capturing.  Two kinds of re-capture are allowed.  One that only
// renames or adds metrics must show every old value, unchanged, under
// its new name.  One that changes how percentiles are resolved (the
// log-linear histogram did) may move only the `resp_p95` and `resp_p99`
// lines and the `/p50`, `/p95` and `/p99` lines of histogram entries;
// every other line must stay byte-identical.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/cluster.hpp"
#include "fault/fault_injector.hpp"
#include "workload/synthetic.hpp"
#include "workload/webtrace.hpp"

namespace eevfs::core {
namespace {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void field(std::string& out, const char* name, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%.17g\n", name, v);
  out += buf;
}

void field(std::string& out, const char* name, std::uint64_t v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s=%llu\n", name,
                static_cast<unsigned long long>(v));
  out += buf;
}

/// Every deterministic field of RunMetrics, rendered exactly: the
/// headline fields, then the registry snapshot, which carries every
/// other count (availability, recovery, erasure coding, the RAM tier).
std::string digest_text(const RunMetrics& m) {
  std::string out;
  field(out, "total_joules", m.total_joules);
  field(out, "disk_joules", m.disk_joules);
  field(out, "base_joules", m.base_joules);
  field(out, "power_transitions", m.power_transitions);
  field(out, "spin_ups", m.spin_ups);
  field(out, "spin_downs", m.spin_downs);
  field(out, "makespan", static_cast<std::uint64_t>(m.makespan));
  field(out, "prefetch_duration",
        static_cast<std::uint64_t>(m.prefetch_duration));
  field(out, "requests", m.requests);
  field(out, "buffer_hits", m.buffer_hits);
  field(out, "data_disk_reads", m.data_disk_reads);
  field(out, "wakeups_on_demand", m.wakeups_on_demand);
  field(out, "bytes_served", static_cast<std::uint64_t>(m.bytes_served));
  field(out, "bytes_prefetched",
        static_cast<std::uint64_t>(m.bytes_prefetched));
  field(out, "resp_count", static_cast<std::uint64_t>(m.response_time_sec.count()));
  field(out, "resp_mean", m.response_time_sec.mean());
  field(out, "resp_min", m.response_time_sec.min());
  field(out, "resp_max", m.response_time_sec.max());
  field(out, "resp_p95", m.response_p95_sec);
  field(out, "resp_p99", m.response_p99_sec);
  for (const obs::Sample& s : m.counters) {
    out += s.name;
    out += ':';
    out += to_string(s.kind);
    field(out, "/value", s.value);
    field(out, "/count", s.count);
    field(out, "/sum", s.sum);
    field(out, "/mean", s.mean);
    field(out, "/p50", s.p50);
    field(out, "/p95", s.p95);
    field(out, "/p99", s.p99);
    field(out, "/min", s.min);
    field(out, "/max", s.max);
  }
  return out;
}

workload::Workload paper_workload(double mu = 1000.0,
                                  double inter_arrival_ms = 700.0) {
  workload::SyntheticConfig cfg;
  cfg.num_files = 1000;
  cfg.num_requests = 1000;
  cfg.mean_data_size_mb = 10.0;
  cfg.mu = mu;
  cfg.inter_arrival_ms = inter_arrival_ms;
  cfg.seed = 42;
  return workload::generate_synthetic(cfg);
}

/// Runs the scenario and checks the digest hash; on mismatch dumps the
/// digest text so it can be diffed against the pre-rework engine.
void expect_golden(const char* name, const ClusterConfig& cfg,
                   const workload::Workload& w, std::uint64_t expected) {
  Cluster cluster(cfg);
  const RunMetrics m = cluster.run(w);
  const std::string text = digest_text(m);
  const std::uint64_t h = fnv1a(text);
  EXPECT_EQ(h, expected) << name << ": RunMetrics digest changed.\n"
                         << "actual hash: " << h << "ull\n--- digest ---\n"
                         << text;
}

TEST(EngineGolden, PaperDefaultsPf) {
  expect_golden("defaults/pf", ClusterConfig{}, paper_workload(),
                1432356868860525543ull);
}

TEST(EngineGolden, PaperDefaultsNpf) {
  ClusterConfig cfg;
  cfg.cache_policy = CachePolicy::kNone;
  expect_golden("defaults/npf", cfg, paper_workload(), 17285548362236137591ull);
}

TEST(EngineGolden, LowMuSweepCell) {
  expect_golden("mu=10/pf", ClusterConfig{}, paper_workload(10.0),
                17741314843999524951ull);
}

TEST(EngineGolden, ZeroInterArrivalSweepCell) {
  expect_golden("ia=0/pf", ClusterConfig{}, paper_workload(1000.0, 0.0),
                8820807878137625658ull);
}

TEST(EngineGolden, SmallPrefetchSetSweepCell) {
  ClusterConfig cfg;
  cfg.prefetch_file_count = 10;
  expect_golden("k=10/pf", cfg, paper_workload(), 1086923965462284771ull);
}

TEST(EngineGolden, WebTrace) {
  workload::WebTraceConfig wcfg;
  expect_golden("web/pf", ClusterConfig{},
                workload::generate_webtrace(wcfg), 2147626912981545206ull);
}

TEST(EngineGolden, FaultsUnreplicated) {
  ClusterConfig cfg;
  cfg.fault_plan = fault::random_data_disk_failures(
      /*seed=*/1234, /*horizon_sec=*/600.0, cfg.num_storage_nodes,
      cfg.data_disks_per_node, /*count=*/4);
  expect_golden("faults=4/repl=1", cfg, paper_workload(),
                2706868221623935826ull);
}

TEST(EngineGolden, FaultsReplicated) {
  ClusterConfig cfg;
  cfg.replication_degree = 2;
  cfg.fault_plan = fault::random_data_disk_failures(
      /*seed=*/1234, /*horizon_sec=*/600.0, cfg.num_storage_nodes,
      cfg.data_disks_per_node, /*count=*/4);
  expect_golden("faults=4/repl=2", cfg, paper_workload(),
                15351648477755124895ull);
}

TEST(EngineGolden, OnlineAdaptation) {
  ClusterConfig cfg;
  cfg.online_popularity = true;
  expect_golden("online/pf", cfg, paper_workload(), 7890893529782172874ull);
}

TEST(EngineGolden, StripedPlacement) {
  ClusterConfig cfg;
  cfg.stripe_width = 2;
  expect_golden("stripe=2/pf", cfg, paper_workload(), 102467855763246238ull);
}

TEST(EngineGolden, MaidBaseline) {
  ClusterConfig cfg;
  cfg.cache_policy = CachePolicy::kLruOnMiss;
  cfg.power_policy = PowerPolicy::kIdleTimer;
  expect_golden("maid", cfg, paper_workload(), 1319794970228591451ull);
}

TEST(EngineGolden, CrashRecovery) {
  // The PR-6 scenario: write-mixed workload, two crash/restart pairs,
  // replicated placement, journal on (commit).  Pins the whole recovery
  // timeline — crash-stop settlement, journal replay, replica resync,
  // prefetch re-warm, and the per-phase tick accounting.
  workload::Workload w = paper_workload();
  trace::Trace mixed;
  std::size_t i = 0;
  for (const auto& r : w.requests.records()) {
    trace::TraceRecord copy = r;
    if (++i % 4 == 0) copy.op = trace::Op::kWrite;
    mixed.append(copy);
  }
  w.requests = std::move(mixed);
  ClusterConfig cfg;
  cfg.replication_degree = 2;
  cfg.fault_plan = fault::random_crash_schedule(
      /*seed=*/2026, /*horizon_sec=*/600.0, cfg.num_storage_nodes,
      /*count=*/2, /*downtime_sec=*/30.0);
  expect_golden("crash_recovery/journal=commit", cfg, w,
                1540537833520737055ull);
}

TEST(EngineGolden, TieredRamCache) {
  // The PR-10 scenario: 512 MiB RAM tier with the TinyLFU policy over a
  // write-mixed workload.  Pins the three-tier serve path — RAM pin split
  // at prefetch time, RAM-first reads, write absorption + interval
  // flush-back — and the ramcache.* counter block.
  workload::Workload w = paper_workload();
  trace::Trace mixed;
  std::size_t i = 0;
  for (const auto& r : w.requests.records()) {
    trace::TraceRecord copy = r;
    if (++i % 4 == 0) copy.op = trace::Op::kWrite;
    mixed.append(copy);
  }
  w.requests = std::move(mixed);
  ClusterConfig cfg;
  cfg.ram_cache_bytes = 512 * kMB;
  cfg.ram_cache_policy = RamCachePolicy::kTinyLfu;
  expect_golden("ram=512mb/tinylfu", cfg, w, 3814532968962198591ull);
}

TEST(EngineGolden, ErasureCoded) {
  // The PR-7 scenario: (4,2) erasure placement under the overlapping
  // two-node outage, write-mixed workload.  Pins the k-of-n fork-join
  // (hedge launches/cancels, stragglers), degraded reads with decode
  // accounting, k-of-n write acks, and background chunk repair.
  workload::Workload w = paper_workload();
  trace::Trace mixed;
  std::size_t i = 0;
  for (const auto& r : w.requests.records()) {
    trace::TraceRecord copy = r;
    if (++i % 4 == 0) copy.op = trace::Op::kWrite;
    mixed.append(copy);
  }
  w.requests = std::move(mixed);
  ClusterConfig cfg;
  cfg.ec_n = 4;
  cfg.ec_k = 2;
  cfg.fault_plan.fail_node_pair(150.0, 2, 3, 30.0);
  expect_golden("erasure/ec=4,2", cfg, w, 7628287810882125198ull);
}

}  // namespace
}  // namespace eevfs::core
