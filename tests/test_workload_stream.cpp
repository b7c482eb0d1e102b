// Streaming workload path: SyntheticStream must reproduce
// generate_synthetic record-for-record, and Cluster::run_stream must
// agree with Cluster::run whenever the two inputs get the same hints
// (none in play) — they share one build and one replay.
#include "workload/stream.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::workload {
namespace {

void expect_same_sequence(const SyntheticConfig& cfg) {
  const Workload eager = generate_synthetic(cfg);
  const StreamingWorkload lazy = make_synthetic_stream(cfg);

  ASSERT_EQ(lazy.file_sizes, eager.file_sizes);
  ASSERT_EQ(lazy.num_requests, eager.requests.size());
  EXPECT_EQ(lazy.name, eager.name);

  // Two independent passes, both checked against the eager trace —
  // passes must be deterministic and restartable.
  for (int pass = 0; pass < 2; ++pass) {
    auto stream = lazy.open();
    trace::TraceRecord r;
    std::size_t i = 0;
    while (stream->next(&r)) {
      ASSERT_LT(i, eager.requests.size());
      const trace::TraceRecord& e = eager.requests[i];
      ASSERT_EQ(r.arrival, e.arrival) << "pass " << pass << " record " << i;
      ASSERT_EQ(r.file, e.file) << "pass " << pass << " record " << i;
      ASSERT_EQ(r.bytes, e.bytes) << "pass " << pass << " record " << i;
      ASSERT_EQ(r.client, e.client) << "pass " << pass << " record " << i;
      ++i;
    }
    EXPECT_EQ(i, eager.requests.size());
  }
}

TEST(StreamWorkload, MatchesGenerateSyntheticFixedSpacing) {
  SyntheticConfig cfg;
  cfg.num_requests = 400;
  cfg.mu = 100.0;
  expect_same_sequence(cfg);
}

TEST(StreamWorkload, MatchesGenerateSyntheticJitteredAndDispersed) {
  SyntheticConfig cfg;
  cfg.num_requests = 400;
  cfg.mu = 10.0;
  cfg.inter_arrival_jitter = 1.0;
  cfg.size_sigma = 0.5;
  cfg.seed = 7;
  expect_same_sequence(cfg);
}

// With prefetching off and the power policy disabled the streaming
// path's modeled access-pattern hints are never consulted, and a
// non-zero inter-arrival delay rules out same-tick arrival ties — so
// run() and run_stream() execute the identical event sequence and every
// metric must match bit-exactly.
TEST(StreamWorkload, RunStreamMatchesRunWithoutHints) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 300;
  wcfg.mu = 100.0;
  wcfg.inter_arrival_ms = 700.0;

  core::ClusterConfig ccfg = baseline::eevfs_pf();
  ccfg.enable_prefetch = false;
  ccfg.power_policy = core::PowerPolicy::kNone;

  core::Cluster eager(ccfg);
  const core::RunMetrics a = eager.run(generate_synthetic(wcfg));
  core::Cluster lazy(ccfg);
  const core::RunMetrics b = lazy.run_stream(make_synthetic_stream(wcfg));

  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.total_joules, b.total_joules);  // bit-exact
  EXPECT_EQ(a.disk_joules, b.disk_joules);
  EXPECT_EQ(a.bytes_served, b.bytes_served);
  EXPECT_EQ(a.buffer_hits, b.buffer_hits);
  EXPECT_EQ(a.data_disk_reads, b.data_disk_reads);
  EXPECT_EQ(a.response_time_sec.mean(), b.response_time_sec.mean());
  EXPECT_EQ(a.response_p99_sec, b.response_p99_sec);
  // One replay path: the same events, and every counter the same.
  EXPECT_EQ(lazy.executed_events(), eager.executed_events());
  EXPECT_EQ(lazy.stream_peak_resident_records(),
            eager.stream_peak_resident_records());
  ASSERT_EQ(a.counters.size(), b.counters.size());
  for (std::size_t i = 0; i < a.counters.size(); ++i) {
    const obs::Sample& x = a.counters[i];
    const obs::Sample& y = b.counters[i];
    EXPECT_EQ(x.name, y.name) << i;
    EXPECT_EQ(x.kind, y.kind) << x.name;
    EXPECT_EQ(x.value, y.value) << x.name;
    EXPECT_EQ(x.count, y.count) << x.name;
    EXPECT_EQ(x.mean, y.mean) << x.name;
    EXPECT_EQ(x.p50, y.p50) << x.name;
    EXPECT_EQ(x.p95, y.p95) << x.name;
    EXPECT_EQ(x.p99, y.p99) << x.name;
    EXPECT_EQ(x.min, y.min) << x.name;
    EXPECT_EQ(x.max, y.max) << x.name;
  }
}

// A stream whose passes yield more or fewer records than it declares is
// rejected before anything is simulated, naming both counts.
TEST(StreamWorkload, RunStreamRejectsMiscountedStream) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 300;
  for (const std::size_t declared : {200u, 400u}) {
    StreamingWorkload w = make_synthetic_stream(wcfg);
    w.num_requests = declared;
    core::Cluster c(baseline::eevfs_pf());
    try {
      (void)c.run_stream(w);
      ADD_FAILURE() << "declared " << declared << ": no exception";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::to_string(declared)), std::string::npos)
          << what;
      EXPECT_NE(what.find("300"), std::string::npos) << what;
    }
    EXPECT_EQ(c.executed_events(), 0u) << "declared " << declared;
  }
}

TEST(StreamWorkload, RunStreamServesAllWithBoundedResidency) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 2000;
  wcfg.mu = 100.0;
  wcfg.inter_arrival_ms = 350.0;

  core::Cluster c(baseline::eevfs_pf());
  const core::RunMetrics m = c.run_stream(make_synthetic_stream(wcfg));

  EXPECT_EQ(m.requests, wcfg.num_requests);
  EXPECT_EQ(m.response_time_sec.count(), wcfg.num_requests);
  EXPECT_EQ(m.availability.failed_requests, 0u);
  EXPECT_GT(m.total_joules, 0.0);
  // The whole point of the streaming path: the replay reads ahead only
  // to each client's next record, far below the full trace.
  EXPECT_GT(c.stream_peak_resident_records(), 0u);
  EXPECT_LT(c.stream_peak_resident_records(), wcfg.num_requests / 2);
}

TEST(StreamWorkload, RunStreamIsDeterministic) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 500;
  wcfg.mu = 10.0;

  const core::ClusterConfig ccfg = baseline::eevfs_pf();
  core::Cluster a(ccfg), b(ccfg);
  const core::RunMetrics ma = a.run_stream(make_synthetic_stream(wcfg));
  const core::RunMetrics mb = b.run_stream(make_synthetic_stream(wcfg));
  EXPECT_EQ(ma.total_joules, mb.total_joules);  // bit-exact
  EXPECT_EQ(ma.makespan, mb.makespan);
  EXPECT_EQ(ma.power_transitions, mb.power_transitions);
  EXPECT_EQ(a.stream_peak_resident_records(),
            b.stream_peak_resident_records());
}

TEST(StreamWorkload, RunStreamRejectsOnlinePopularity) {
  SyntheticConfig wcfg;
  wcfg.num_requests = 50;
  core::ClusterConfig ccfg = baseline::eevfs_pf();
  ccfg.online_popularity = true;
  core::Cluster c(ccfg);
  EXPECT_THROW(c.run_stream(make_synthetic_stream(wcfg)),
               std::invalid_argument);
}

}  // namespace
}  // namespace eevfs::workload
