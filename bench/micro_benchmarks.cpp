// google-benchmark microbenchmarks for the hot data structures: the
// event queue, workload generation, popularity analysis, placement, the
// prefetch planner, and a full end-to-end cluster run per second.
//
// Six scenarios report executed simulator events as items/s: two engine
// churns (BM_EngineChurn, BM_DatacenterChurn) and four whole-cluster runs
// (BM_ClusterScenario/*).  Each also reports its event count per run as
// the `events` counter, which is deterministic; the rates are host
// timings and compare only between runs on one machine.
#include <benchmark/benchmark.h>

#include "core/cluster.hpp"
#include "core/placement.hpp"
#include "core/prefetcher.hpp"
#include "fault/fault_injector.hpp"
#include "harness.hpp"
#include "sim/engine.hpp"
#include "workload/synthetic.hpp"
#include "workload/webtrace.hpp"

namespace {

using namespace eevfs;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    for (std::size_t i = 0; i < events; ++i) {
      (void)sim.schedule_at(static_cast<Tick>((i * 7919) % 100000), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(100000);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(sim.schedule_at(i, [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
    benchmark::DoNotOptimize(sim.run());
  }
}
BENCHMARK(BM_SimulatorCancelHeavy);

void BM_SyntheticGenerate(benchmark::State& state) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::generate_synthetic(cfg));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_SyntheticGenerate)->Arg(1000)->Arg(100000);

void BM_WebTraceGenerate(benchmark::State& state) {
  workload::WebTraceConfig cfg;
  cfg.num_requests = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::generate_webtrace(cfg));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_WebTraceGenerate)->Arg(1000)->Arg(100000);

void BM_PopularityAnalyzer(benchmark::State& state) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = static_cast<std::size_t>(state.range(0));
  const auto w = workload::generate_synthetic(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::PopularityAnalyzer(w.requests));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_PopularityAnalyzer)->Arg(1000)->Arg(100000);

void BM_Placement(benchmark::State& state) {
  workload::SyntheticConfig cfg;
  cfg.num_files = static_cast<std::size_t>(state.range(0));
  cfg.num_requests = cfg.num_files;
  const auto w = workload::generate_synthetic(cfg);
  const trace::PopularityAnalyzer pop(w.requests);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::place_files(core::PlacementPolicy::kPopularityRoundRobin, 8,
                          cfg.num_files, pop, w.file_sizes, rng));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_Placement)->Arg(1000)->Arg(100000);

void BM_PrefetchPlanner(benchmark::State& state) {
  // One node's slice: ~125 files, 2 disks, dense pattern.
  const disk::DiskProfile profile = disk::DiskProfile::ata133_fast();
  const core::Prefetcher prefetcher(
      core::EnergyPredictionModel(profile, seconds_to_ticks(5.0), 1.8),
      profile, true);
  std::map<trace::FileId, std::vector<Tick>> accesses;
  std::vector<std::vector<Tick>> disk_accesses(2);
  std::vector<core::PrefetchCandidate> candidates;
  Rng rng(3);
  for (trace::FileId f = 0; f < 125; ++f) {
    const std::size_t d = f % 2;
    Tick t = static_cast<Tick>(rng.next_below(5'000'000));
    for (int i = 0; i < 8; ++i) {
      accesses[f].push_back(t);
      disk_accesses[d].push_back(t);
      t += seconds_to_ticks(rng.uniform(1.0, 90.0));
    }
    candidates.push_back({f, 10 * kMB, {d}});
  }
  std::vector<core::FileHints> hints;
  for (auto& [f, offsets] : accesses) {
    std::sort(offsets.begin(), offsets.end());
    hints.push_back({f, offsets});
  }
  for (auto& v : disk_accesses) std::sort(v.begin(), v.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prefetcher.plan(candidates, hints, disk_accesses,
                        seconds_to_ticks(800.0), 80 * kGB));
  }
}
BENCHMARK(BM_PrefetchPlanner);

void BM_FullClusterRun(benchmark::State& state) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = static_cast<std::size_t>(state.range(0));
  const auto w = workload::generate_synthetic(cfg);
  for (auto _ : state) {
    core::ClusterConfig ccfg;
    core::Cluster cluster(ccfg);
    benchmark::DoNotOptimize(cluster.run(w));
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_FullClusterRun)->Arg(1000)->Arg(10000);

/// Executed events as items/s, and the count of one run as `events`.
void report_events(benchmark::State& state, std::uint64_t events) {
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
  state.counters["events"] = static_cast<double>(events);
}

/// Engine-only churn: no cluster model, just schedule/cancel/fire at
/// queue depths the cluster runs never reach.  The scenario most
/// sensitive to event-pool and heap changes.
void BM_EngineChurn(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    std::vector<sim::EventHandle> handles;
    handles.reserve(200000);
    for (int wave = 0; wave < 20; ++wave) {
      handles.clear();
      const Tick base = sim.now();
      for (std::uint32_t i = 0; i < 10000; ++i) {
        handles.push_back(
            sim.schedule_at(base + 1 + (i * 7919u) % 10000u, [] {}));
      }
      for (std::size_t i = 0; i < handles.size(); i += 3) handles[i].cancel();
      sim.run(base + 10001);
    }
    events = sim.executed_events();
    benchmark::DoNotOptimize(events);
  }
  report_events(state, events);
}
BENCHMARK(BM_EngineChurn)->Unit(benchmark::kMillisecond);

/// Datacenter-scale timer churn: the timer population of a 1024-node
/// cluster.  Every disk re-arms a 5 s standby deadline and a 250 ms
/// hedge timer on each request arrival and cancels both on the next
/// one; every node heartbeats once a second.  ~90% of the far-future
/// timers are cancelled before firing, so at any instant hundreds of
/// thousands of dead entries are resident — the scenario the
/// timing-wheel scheduler exists for (a lone binary heap pays
/// log(resident) on every operation against them).
struct DatacenterChurn {
  static constexpr Tick kHorizon = 30 * kTicksPerSecond;
  static constexpr Tick kStandby = 5 * kTicksPerSecond;
  static constexpr Tick kHedge = kTicksPerSecond / 4;
  static constexpr std::uint32_t kNodes = 1024;
  static constexpr std::uint32_t kDisksPerNode = 4;
  static constexpr std::uint32_t kDisks = kNodes * kDisksPerNode;

  sim::Simulator sim;
  std::vector<sim::EventHandle> standby{kDisks};
  std::vector<sim::EventHandle> hedge{kDisks};

  // Per-disk arrival period: 50-149 ms, deterministically spread so the
  // cancel traffic is not phase-locked.
  static Tick period(std::uint32_t disk) {
    return (50 + (disk * 7919u) % 100) * (kTicksPerSecond / 1000);
  }

  void arrival(std::uint32_t disk) {
    standby[disk].cancel();
    hedge[disk].cancel();
    standby[disk] = sim.schedule_after(kStandby, [] {});
    hedge[disk] = sim.schedule_after(kHedge, [] {});
    if (sim.now() + period(disk) <= kHorizon) {
      (void)sim.schedule_after(period(disk), [this, disk] { arrival(disk); });
    }
  }

  void heartbeat(std::uint32_t node) {
    if (sim.now() + kTicksPerSecond <= kHorizon) {
      (void)sim.schedule_after(kTicksPerSecond, [this, node] { heartbeat(node); });
    }
  }

  std::uint64_t run() {
    for (std::uint32_t d = 0; d < kDisks; ++d) {
      (void)sim.schedule_at(d % period(d), [this, d] { arrival(d); });
    }
    for (std::uint32_t n = 0; n < kNodes; ++n) {
      (void)sim.schedule_at(n, [this, n] { heartbeat(n); });
    }
    sim.run();
    return sim.executed_events();
  }
};

void BM_DatacenterChurn(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    DatacenterChurn churn;
    events = churn.run();
    benchmark::DoNotOptimize(events);
  }
  report_events(state, events);
}
BENCHMARK(BM_DatacenterChurn)->Unit(benchmark::kMillisecond);

/// The paper's Table II workload at 10x its request count: tens of
/// milliseconds of event-loop work per run, enough for a stable reading.
workload::Workload paper_workload_x10() {
  return bench::paper_workload(
      bench::Defaults::kDataMb, bench::Defaults::kMu,
      bench::Defaults::kInterArrivalMs, 10 * bench::Defaults::kRequests);
}

workload::Workload webtrace_10k() {
  workload::WebTraceConfig cfg;
  cfg.num_requests = 10000;
  return workload::generate_webtrace(cfg);
}

core::ClusterConfig paper_npf_config() {
  core::ClusterConfig cfg = bench::paper_config();
  cfg.cache_policy = core::CachePolicy::kNone;
  return cfg;
}

/// Replication 2 and four data-disk failures: the retry, failover and
/// heartbeat event paths.
core::ClusterConfig fault_replicated_config() {
  core::ClusterConfig cfg = bench::paper_config();
  cfg.replication_degree = 2;
  cfg.fault_plan = fault::random_data_disk_failures(
      /*seed=*/1234, /*horizon_sec=*/600.0, cfg.num_storage_nodes,
      cfg.data_disks_per_node, /*count=*/4);
  return cfg;
}

void BM_ClusterScenario(benchmark::State& state,
                        const core::ClusterConfig& cfg,
                        const workload::Workload& w) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    core::Cluster cluster(cfg);
    benchmark::DoNotOptimize(cluster.run(w));
    events = cluster.executed_events();
  }
  report_events(state, events);
}
// Prefetching on, then off (no prefetch copies, no power transitions).
BENCHMARK_CAPTURE(BM_ClusterScenario, paper_pf, bench::paper_config(),
                  paper_workload_x10())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ClusterScenario, paper_npf, paper_npf_config(),
                  paper_workload_x10())
    ->Unit(benchmark::kMillisecond);
// The buffer-hit heavy path.
BENCHMARK_CAPTURE(BM_ClusterScenario, webtrace, bench::paper_config(),
                  webtrace_10k())
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ClusterScenario, fault_replicated,
                  fault_replicated_config(), paper_workload_x10())
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
