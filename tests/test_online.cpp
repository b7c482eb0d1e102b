// Online popularity mode: the server learns from its request log and
// periodically reconciles each node's buffered set.
#include <gtest/gtest.h>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::core {
namespace {

workload::Workload skewed(std::size_t requests = 800, std::uint64_t seed = 42) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = requests;
  cfg.mu = 100.0;  // tight working set: easy to learn
  cfg.seed = seed;
  return workload::generate_synthetic(cfg);
}

ClusterConfig online_config(double interval_sec = 30.0) {
  ClusterConfig cfg = baseline::eevfs_pf();
  cfg.online_popularity = true;
  cfg.refresh_interval_sec = interval_sec;
  return cfg;
}

TEST(OnlineMode, LearnsAndServesFromBuffer) {
  Cluster c(online_config());
  const auto w = skewed();
  const RunMetrics m = c.run(w);
  EXPECT_EQ(m.requests, w.requests.size());
  EXPECT_EQ(m.bytes_served, w.requests.total_bytes());
  // No foreknowledge: nothing prefetched before replay...
  EXPECT_EQ(m.prefetch_duration, 0);
  // ...but the log-driven refresh finds the working set.
  EXPECT_GT(m.buffer_hit_rate(), 0.5);
  EXPECT_GT(m.count("server.refreshes.count"), 3u);
}

TEST(OnlineMode, EnergySitsBetweenNpfAndOfflinePf) {
  const auto w = skewed();
  RunMetrics online, offline, npf;
  {
    Cluster c(online_config());
    online = c.run(w);
  }
  {
    Cluster c(baseline::eevfs_pf());
    offline = c.run(w);
  }
  {
    Cluster c(baseline::eevfs_npf());
    npf = c.run(w);
  }
  EXPECT_LT(online.total_joules, npf.total_joules);
  EXPECT_GT(online.total_joules, offline.total_joules * 0.999);
}

TEST(OnlineMode, HitRateImprovesOverTheRun) {
  // Compare the hit rate of a short run against a long one with the same
  // workload prefix: more elapsed time means more learned popularity.
  RunMetrics short_run, long_run;
  {
    Cluster c(online_config());
    short_run = c.run(skewed(200));
  }
  {
    Cluster c(online_config());
    long_run = c.run(skewed(1600));
  }
  EXPECT_GT(long_run.buffer_hit_rate(), short_run.buffer_hit_rate());
}

TEST(OnlineMode, AdaptsToAPopularityShift) {
  // Phase change mid-trace: the hot set moves to a disjoint id range.
  // Offline PF (trained on the whole trace) still covers both phases, so
  // the interesting check is that online mode keeps adapting: its final
  // buffered set must contain phase-2 files.
  workload::SyntheticConfig a;
  a.num_requests = 600;
  a.mu = 50.0;
  workload::SyntheticConfig b = a;
  b.mu = 700.0;
  b.seed = 43;
  const auto wa = workload::generate_synthetic(a);
  const auto wb = workload::generate_synthetic(b);
  workload::Workload merged;
  merged.name = "phase_shift";
  merged.file_sizes = wa.file_sizes;
  for (const auto& r : wa.requests.records()) merged.requests.append(r);
  const Tick offset = wa.requests.duration() + milliseconds_to_ticks(700);
  for (const auto& r : wb.requests.records()) {
    trace::TraceRecord copy = r;
    copy.arrival += offset;
    merged.requests.append(copy);
  }

  Cluster c(online_config(20.0));
  const RunMetrics m = c.run(merged);
  EXPECT_GT(m.buffer_hit_rate(), 0.3);
  // A phase-2 hot file (ids near 700) ended up buffered on its node.
  const trace::PopularityAnalyzer phase2(wb.requests);
  const trace::FileId hot2 = phase2.ranked().front().file;
  bool buffered_somewhere = false;
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    buffered_somewhere |= c.node(n).is_buffered(hot2);
  }
  EXPECT_TRUE(buffered_somewhere);
}

TEST(OnlineMode, RefreshStopsWithTheRun) {
  Cluster c(online_config(5.0));
  const auto w = skewed(300);
  const RunMetrics m = c.run(w);
  // It ran, and the simulation still drained.
  EXPECT_GT(m.count("server.refreshes.count"), 0u);
}

TEST(OnlineMode, RejectsNonPositiveInterval) {
  ClusterConfig cfg = online_config(0.0);
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

TEST(OnlineMode, NpfOnlineDoesNothing) {
  ClusterConfig cfg = online_config();
  cfg.cache_policy = CachePolicy::kNone;
  cfg.power_policy = PowerPolicy::kNone;
  Cluster c(cfg);
  const RunMetrics m = c.run(skewed(300));
  EXPECT_EQ(m.buffer_hits, 0u);
  EXPECT_EQ(m.count("server.refreshes.count"), 0u);
}

}  // namespace
}  // namespace eevfs::core
