// End-to-end integration tests over the full process flow.
#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/presets.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"
#include "workload/webtrace.hpp"

namespace eevfs::core {
namespace {

workload::Workload small_workload(std::size_t requests = 300,
                                  double mu = 1000.0,
                                  double size_mb = 10.0) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = requests;
  cfg.mu = mu;
  cfg.mean_data_size_mb = size_mb;
  return workload::generate_synthetic(cfg);
}

TEST(Cluster, RunIsDeterministic) {
  const auto w = small_workload();
  const ClusterConfig cfg = baseline::eevfs_pf();
  Cluster a(cfg), b(cfg);
  const RunMetrics ma = a.run(w);
  const RunMetrics mb = b.run(w);
  EXPECT_EQ(ma.total_joules, mb.total_joules);  // bit-exact
  EXPECT_EQ(ma.power_transitions, mb.power_transitions);
  EXPECT_EQ(ma.makespan, mb.makespan);
  EXPECT_EQ(ma.response_time_sec.mean(), mb.response_time_sec.mean());
}

TEST(Cluster, RunIsSingleUse) {
  const auto w = small_workload(50);
  Cluster c(baseline::eevfs_pf());
  c.run(w);
  EXPECT_THROW(c.run(w), std::logic_error);
}

TEST(Cluster, RejectsEmptyWorkload) {
  Cluster c(baseline::eevfs_pf());
  workload::Workload empty;
  empty.file_sizes.assign(10, kMB);
  EXPECT_THROW(c.run(empty), std::invalid_argument);
}

TEST(Cluster, RejectsRequestsForUndeclaredFilesAndMiscounts) {
  // The popularity pass refuses a request for a file past the declared
  // ones, and a stream that yields another count than it declares.
  workload::Workload w = small_workload(50);
  trace::FileId last = 0;
  for (const trace::TraceRecord& r : w.requests.records()) {
    last = std::max(last, r.file);
  }
  w.file_sizes.resize(last);
  EXPECT_THROW(Cluster(baseline::eevfs_pf()).run(w), std::out_of_range);
  workload::SyntheticConfig wcfg;
  wcfg.num_requests = 50;
  workload::StreamingWorkload stream = workload::make_synthetic_stream(wcfg);
  ++stream.num_requests;
  EXPECT_THROW(Cluster(baseline::eevfs_pf()).run_stream(stream),
               std::invalid_argument);
}

TEST(Cluster, AllRequestsAreServedAndBytesConserved) {
  const auto w = small_workload();
  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  EXPECT_EQ(m.requests, w.requests.size());
  EXPECT_EQ(m.response_time_sec.count(), w.requests.size());
  EXPECT_EQ(m.bytes_served, w.requests.total_bytes());
  EXPECT_EQ(m.buffer_hits + m.data_disk_reads, w.requests.size());
}

TEST(Cluster, PrefetchingSavesEnergyOnSkewedWorkload) {
  const auto w = small_workload(500);
  const PfNpfComparison cmp = run_pf_npf(baseline::eevfs_pf(), w);
  EXPECT_GT(cmp.energy_gain(), 0.03);
  EXPECT_LT(cmp.energy_gain(), 0.30);
  EXPECT_GT(cmp.pf.buffer_hit_rate(), 0.5);
  EXPECT_DOUBLE_EQ(cmp.npf.buffer_hit_rate(), 0.0);
}

TEST(Cluster, NpfThrashesFarLessThanPf) {
  // Without a buffer absorbing the hot traffic, NPF per-disk gaps mostly
  // sit below the predictive profit gate: NPF must not thrash power
  // states the way PF's emptied data disks cycle them (this is what
  // keeps the paper's NPF response times low).
  const auto w = small_workload(1000);
  const PfNpfComparison cmp = run_pf_npf(baseline::eevfs_pf(), w);
  EXPECT_LT(cmp.npf.power_transitions, cmp.pf.power_transitions / 4);
  // On-demand wake-ups stay rare relative to requests.
  EXPECT_LT(static_cast<double>(cmp.npf.wakeups_on_demand),
            0.05 * static_cast<double>(cmp.npf.requests));
}

TEST(Cluster, MakespanCoversTraceAndPrefetch) {
  const auto w = small_workload();
  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  EXPECT_GT(m.prefetch_duration, 0);
  EXPECT_GE(m.makespan, m.prefetch_duration + w.requests.duration());
}

TEST(Cluster, EnergyMeterCoversEveryDiskForTheWholeRun) {
  const auto w = small_workload();
  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  const auto& cfg = c.config();
  for (const NodeMetrics& nm : m.per_node) {
    EXPECT_EQ(nm.data_disk_meter.total_ticks(),
              m.makespan * static_cast<Tick>(cfg.data_disks_per_node));
    EXPECT_EQ(nm.buffer_disk_meter.total_ticks(), m.makespan);  // one disk
  }
}

TEST(Cluster, PerNodeMetricsSumToTotals) {
  const auto w = small_workload();
  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  Joules disk = 0.0, base = 0.0;
  std::uint64_t transitions = 0;
  for (const NodeMetrics& nm : m.per_node) {
    disk += nm.disk_joules;
    base += nm.base_joules;
    transitions += nm.power_transitions();
  }
  EXPECT_NEAR(disk, m.disk_joules, 1e-6);
  EXPECT_NEAR(base, m.base_joules, 1e-6);
  EXPECT_EQ(transitions, m.power_transitions);
  EXPECT_NEAR(m.total_joules, m.disk_joules + m.base_joules, 1e-9);
}

TEST(Cluster, SpinUpsNeverExceedSpinDowns) {
  const auto w = small_workload(600);
  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  EXPECT_LE(m.spin_ups, m.spin_downs);
}

TEST(Cluster, AlwaysOnConsumesTheMostEnergy) {
  const auto w = small_workload(400);
  RunMetrics on, pf, npf;
  {
    Cluster c(baseline::always_on());
    on = c.run(w);
  }
  {
    Cluster c(baseline::eevfs_pf());
    pf = c.run(w);
  }
  {
    Cluster c(baseline::eevfs_npf());
    npf = c.run(w);
  }
  EXPECT_EQ(on.power_transitions, 0u);
  EXPECT_LE(pf.total_joules, on.total_joules);
  EXPECT_LE(npf.total_joules, on.total_joules * 1.0001);
}

TEST(Cluster, OracleNeverPaysOnDemandWakeups) {
  const auto w = small_workload(400);
  Cluster c(baseline::oracle());
  const RunMetrics m = c.run(w);
  EXPECT_EQ(m.wakeups_on_demand, 0u);
  EXPECT_GT(m.power_transitions, 0u);
}

TEST(Cluster, MaidWarmsUpItsCache) {
  const auto w = small_workload(600);
  Cluster c(baseline::maid());
  const RunMetrics m = c.run(w);
  // Copy-on-access: later re-reads hit.
  EXPECT_GT(m.buffer_hit_rate(), 0.3);
  EXPECT_EQ(m.bytes_prefetched, 0u);
}

TEST(Cluster, PdcConcentratesLoadOnFirstDisks) {
  const auto w = small_workload(400, /*mu=*/10.0);
  Cluster c(baseline::pdc());
  const RunMetrics m = c.run(w);
  (void)m;
  // With MU=10 the working set is tiny: everything popular lives on each
  // node's first data disk, and the second disk can sleep the whole run.
  std::uint64_t disk0_reads = 0, disk1_reads = 0;
  Tick disk1_standby = 0;
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    disk0_reads += c.node(n).data_disk(0).requests_completed();
    disk1_reads += c.node(n).data_disk(1).requests_completed();
    disk1_standby +=
        c.node(n).data_disk(1).meter().ticks(disk::PowerState::kStandby);
  }
  EXPECT_GT(disk0_reads, 0u);
  EXPECT_EQ(disk1_reads, 0u);
  EXPECT_GT(disk1_standby, 0);
}

TEST(Cluster, WriteWorkloadDestagesEverythingBeforeFinishing) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = 100;
  cfg.mu = 100.0;
  auto w = workload::generate_synthetic(cfg);
  // Convert half the requests to writes.
  trace::Trace mixed;
  std::size_t i = 0;
  for (const auto& r : w.requests.records()) {
    trace::TraceRecord copy = r;
    if (++i % 2 == 0) copy.op = trace::Op::kWrite;
    mixed.append(copy);
  }
  w.requests = std::move(mixed);

  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  EXPECT_EQ(m.requests, 100u);
  EXPECT_GT(m.count("buffer.writes_buffered.count"), 0u);
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    EXPECT_FALSE(c.node(n).has_pending_writes());
  }
}

TEST(Cluster, WebTraceLetsAllDataDisksSleep) {
  // Fig. 6's qualitative claim: the web trace is so skewed that with
  // K=70 prefetched files every data disk stands by for the whole
  // replay.
  workload::WebTraceConfig cfg;
  cfg.num_requests = 500;
  const auto w = workload::generate_webtrace(cfg);
  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  EXPECT_DOUBLE_EQ(m.buffer_hit_rate(), 1.0);
  EXPECT_EQ(m.wakeups_on_demand, 0u);
  // Every data disk slept once and stayed down.
  EXPECT_EQ(m.spin_ups, 0u);
  EXPECT_EQ(m.spin_downs,
            c.config().num_storage_nodes * c.config().data_disks_per_node);
}

TEST(Cluster, ConfigValidationRejectsNonsense) {
  ClusterConfig cfg;
  cfg.num_storage_nodes = 0;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
  cfg = {};
  cfg.data_disks_per_node = 0;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
  cfg = {};
  cfg.num_clients = 0;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
  cfg = {};
  cfg.idle_threshold_sec = -1;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

// Client ids are 16-bit: 65,535 clients is the most a cell may have.
TEST(Cluster, ConfigValidationRejectsMoreClientsThanIdsCanName) {
  ClusterConfig cfg;
  cfg.num_clients = 65'535;
  EXPECT_NO_THROW(cfg.validate());
  cfg.num_clients = 65'536;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(Cluster, Type2NodesAreSlower) {
  ClusterConfig cfg = baseline::eevfs_pf();
  EXPECT_FALSE(cfg.is_type2(0));
  EXPECT_TRUE(cfg.is_type2(1));
  EXPECT_DOUBLE_EQ(cfg.node_nic_mbps(0), 1000.0);
  EXPECT_DOUBLE_EQ(cfg.node_nic_mbps(1), 100.0);
  EXPECT_DOUBLE_EQ(cfg.node_disk_profile(0).bandwidth_bytes_per_sec, 58e6);
  EXPECT_DOUBLE_EQ(cfg.node_disk_profile(1).bandwidth_bytes_per_sec, 34e6);
}

TEST(Cluster, SingleNodeSingleClientWorks) {
  ClusterConfig cfg = baseline::eevfs_pf();
  cfg.num_storage_nodes = 1;
  cfg.num_clients = 1;
  const auto w = small_workload(100);
  Cluster c(cfg);
  const RunMetrics m = c.run(w);
  EXPECT_EQ(m.requests, 100u);
  EXPECT_EQ(m.per_node.size(), 1u);
}

TEST(Cluster, HintsPolicyReducesWakePenalty) {
  const auto w = small_workload(500);
  ClusterConfig predictive = baseline::eevfs_pf();
  ClusterConfig hints = baseline::eevfs_pf();
  hints.power_policy = PowerPolicy::kHints;
  RunMetrics mp, mh;
  {
    Cluster c(predictive);
    mp = c.run(w);
  }
  {
    Cluster c(hints);
    mh = c.run(w);
  }
  // §IV-C: hints avoid sleeping into imminent requests and pre-wake, so
  // clients see fewer on-demand spin-ups.
  EXPECT_LT(mh.wakeups_on_demand, mp.wakeups_on_demand);
  EXPECT_LT(mh.response_time_sec.mean(), mp.response_time_sec.mean());
}

}  // namespace
}  // namespace eevfs::core
