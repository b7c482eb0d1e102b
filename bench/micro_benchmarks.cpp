// google-benchmark microbenchmarks for the hot data structures: the
// event queue, workload generation, popularity analysis, placement, the
// prefetch planner, and a full end-to-end cluster run per second.
#include <benchmark/benchmark.h>

#include "core/cluster.hpp"
#include "core/placement.hpp"
#include "core/prefetcher.hpp"
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

}  // namespace

BENCHMARK_MAIN();
