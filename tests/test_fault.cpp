// Fault injection and degraded-mode serving, bottom-up: the DiskModel
// fault machinery, StorageNode degraded paths, FaultPlan construction,
// and the end-to-end availability story (the ISSUE's acceptance
// criteria: replicated runs survive a disk loss with zero failed
// requests and bit-identical metrics; unreplicated runs fail typed,
// never hang).
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "core/recovery_manager.hpp"
#include "core/storage_node.hpp"
#include "core/storage_server.hpp"
#include "disk/disk_model.hpp"
#include "fault/fault_injector.hpp"
#include "obs/tracer.hpp"
#include "workload/synthetic.hpp"

#include "hint_views.hpp"
#include "registry_count.hpp"

namespace eevfs {
namespace {

using core::NodeId;
using core::RequestStatus;

// --- DiskModel fault machinery ---------------------------------------

class DiskFaultTest : public ::testing::Test {
 protected:
  sim::Simulator sim;
  disk::DiskProfile profile = disk::DiskProfile::ata133_fast();
};

TEST_F(DiskFaultTest, FailedDiskFailsFastWithUnavailable) {
  disk::DiskModel disk(sim, profile, "d");
  disk.fail();
  EXPECT_TRUE(disk.failed());
  disk::IoStatus st = disk::IoStatus::kOk;
  disk::DiskRequest req;
  req.bytes = kMB;
  req.on_complete = [&](Tick, disk::IoStatus s) { st = s; };
  disk.submit(std::move(req));
  sim.run();
  EXPECT_EQ(st, disk::IoStatus::kUnavailable);
  EXPECT_EQ(disk.requests_failed(), 1u);
  EXPECT_EQ(disk.requests_completed(), 0u);
  // The controller dropped the drive off the bus: zero watts from here.
  EXPECT_DOUBLE_EQ(profile.watts(disk::PowerState::kFailed), 0.0);
}

TEST_F(DiskFaultTest, FailMidFlightDrainsEveryQueuedRequestTyped) {
  disk::DiskModel disk(sim, profile, "d");
  std::vector<disk::IoStatus> seen;
  for (int i = 0; i < 3; ++i) {
    disk::DiskRequest req;
    req.bytes = 10 * kMB;
    req.on_complete = [&](Tick, disk::IoStatus s) { seen.push_back(s); };
    disk.submit(std::move(req));
  }
  disk.fail();  // one in flight, two queued: all must complete typed
  sim.run();
  ASSERT_EQ(seen.size(), 3u);
  for (const disk::IoStatus s : seen) {
    EXPECT_EQ(s, disk::IoStatus::kUnavailable);
  }
  EXPECT_EQ(disk.requests_failed(), 3u);
  EXPECT_EQ(disk.requests_completed(), 0u);
}

TEST_F(DiskFaultTest, FailWithWrappedQueueDrainsInSubmissionOrder) {
  // Four requests fill the queue's buffer (capacity 4).  When the second
  // completes, two more are queued behind the other two, so they wrap to
  // the front of the buffer; then the drive fails with request 2 in
  // flight.  Every queued request completes kUnavailable, in the order
  // it was submitted.
  disk::DiskModel disk(sim, profile, "d");
  std::vector<std::pair<int, disk::IoStatus>> seen;
  std::function<void(int)> submit = [&](int id) {
    disk::DiskRequest req;
    req.bytes = 10 * kMB;
    req.on_complete = [&, id](Tick, disk::IoStatus s) {
      seen.emplace_back(id, s);
      if (id != 1) return;
      submit(4);
      submit(5);
      (void)sim.schedule_after(1, [&] { disk.fail(); });
    };
    disk.submit(std::move(req));
  };
  for (int id = 0; id < 4; ++id) submit(id);
  sim.run();
  const std::vector<std::pair<int, disk::IoStatus>> expected{
      {0, disk::IoStatus::kOk},          {1, disk::IoStatus::kOk},
      {2, disk::IoStatus::kUnavailable}, {3, disk::IoStatus::kUnavailable},
      {4, disk::IoStatus::kUnavailable}, {5, disk::IoStatus::kUnavailable}};
  EXPECT_EQ(seen, expected);
  EXPECT_EQ(disk.requests_failed(), 4u);
  EXPECT_EQ(disk.requests_completed(), 2u);
}

TEST_F(DiskFaultTest, LatentReadErrorsAreTransient) {
  disk::DiskModel disk(sim, profile, "d");
  disk.inject_read_errors(1);
  std::vector<disk::IoStatus> seen;
  for (int i = 0; i < 2; ++i) {
    disk::DiskRequest req;
    req.bytes = kMB;
    req.on_complete = [&](Tick, disk::IoStatus s) { seen.push_back(s); };
    disk.submit(std::move(req));
  }
  sim.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], disk::IoStatus::kMediaError);
  EXPECT_EQ(seen[1], disk::IoStatus::kOk);
  EXPECT_EQ(disk.media_errors(), 1u);
  // The bad read still spun the platters but transferred nothing.
  EXPECT_EQ(disk.bytes_transferred(), kMB);
}

TEST_F(DiskFaultTest, WritesDoNotConsumeLatentReadErrors) {
  disk::DiskModel disk(sim, profile, "d");
  disk.inject_read_errors(1);
  disk::IoStatus write_st{}, read_st{};
  disk::DiskRequest w;
  w.bytes = kMB;
  w.is_write = true;
  w.on_complete = [&](Tick, disk::IoStatus s) { write_st = s; };
  disk.submit(std::move(w));
  disk::DiskRequest r;
  r.bytes = kMB;
  r.on_complete = [&](Tick, disk::IoStatus s) { read_st = s; };
  disk.submit(std::move(r));
  sim.run();
  EXPECT_EQ(write_st, disk::IoStatus::kOk);
  EXPECT_EQ(read_st, disk::IoStatus::kMediaError);
}

TEST_F(DiskFaultTest, SpinUpFlakeRetriesAndRecovers) {
  disk::DiskModel disk(sim, profile, "d");
  ASSERT_TRUE(disk.request_spin_down());
  sim.run();
  ASSERT_EQ(disk.state(), disk::PowerState::kStandby);
  const Tick t0 = sim.now();
  disk.inject_spin_up_flakes(2);  // 3 attempts total, within the bound
  Tick completed = -1;
  disk::IoStatus st{};
  disk::DiskRequest req;
  req.bytes = kMB;
  req.on_complete = [&](Tick t, disk::IoStatus s) { completed = t; st = s; };
  disk.submit(std::move(req));
  sim.run();
  EXPECT_EQ(st, disk::IoStatus::kOk);
  EXPECT_EQ(completed,
            t0 + 3 * profile.spin_up_time + profile.service_time(kMB, false));
  EXPECT_EQ(disk.spin_up_retries(), 2u);
  EXPECT_FALSE(disk.failed());
}

TEST_F(DiskFaultTest, SpinUpFlakeStormFailsTheDrive) {
  disk::DiskProfile p = profile;
  p.max_spin_up_attempts = 3;
  disk::DiskModel disk(sim, p, "d");
  ASSERT_TRUE(disk.request_spin_down());
  sim.run();
  disk.inject_spin_up_flakes(5);  // 6 attempts > the 3-attempt bound
  disk::IoStatus st = disk::IoStatus::kOk;
  disk::DiskRequest req;
  req.bytes = kMB;
  req.on_complete = [&](Tick, disk::IoStatus s) { st = s; };
  disk.submit(std::move(req));
  sim.run();
  EXPECT_TRUE(disk.failed());
  EXPECT_EQ(st, disk::IoStatus::kUnavailable);
  EXPECT_EQ(disk.requests_failed(), 1u);
}

// --- StorageNode degraded-mode serving --------------------------------

class NodeFaultTest : public ::testing::Test {
 protected:
  NodeFaultTest() : net(sim) {
    node_ep = net.add_endpoint("node", net::mbps_to_bytes_per_sec(1000));
    client_ep = net.add_endpoint("client", net::mbps_to_bytes_per_sec(1000));
  }

  core::NodeParams params() {
    core::NodeParams p;
    p.id = 0;
    p.data_disks = 2;
    p.buffer_disks = 1;
    p.disk_profile = disk::DiskProfile::ata133_fast();
    p.power.policy = core::PowerPolicy::kPredictive;
    return p;
  }

  std::unique_ptr<core::StorageNode> make_node(core::NodeParams p) {
    return std::make_unique<core::StorageNode>(sim, net, node_ep, p,
                                               registry);
  }

  /// Registers `n` files (round-robin over the two data disks: even ids
  /// on disk 0).  The first `hot` files are hot — accessed every second,
  /// so the PRE-BUD gate accepts them as prefetch candidates — the rest
  /// are cold.
  void setup_files(core::StorageNode& node, std::size_t n, Bytes size,
                   std::size_t hot = 1) {
    const Tick horizon = seconds_to_ticks(600);
    for (trace::FileId f = 0; f < n; ++f) {
      node.create_file(f, size);
      if (f < hot) {
        for (Tick t = 0; t < horizon; t += seconds_to_ticks(1)) {
          pattern[f].push_back(t);
        }
      } else {
        pattern[f].push_back(horizon - seconds_to_ticks(1));
      }
    }
    node.receive_access_pattern(core::hint_views(pattern), horizon);
  }

  /// The offsets setup_files hints; the node reads them until it plans.
  core::HintOffsets pattern;

  RequestStatus serve(core::StorageNode& node, trace::FileId f) {
    RequestStatus st = RequestStatus::kOk;
    node.serve_read(f, client_ep, [&](Tick, RequestStatus s) { st = s; });
    sim.run();
    return st;
  }

  sim::Simulator sim;
  net::NetworkFabric net;
  obs::Registry registry;
  net::EndpointId node_ep{}, client_ep{};
};

TEST_F(NodeFaultTest, BufferedCopyRescuesDeadDataDisk) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->start_prefetch({0}, [] {});
  sim.run();
  ASSERT_TRUE(node->is_buffered(0));
  node->mutable_data_disk(0).fail();  // file 0 lives on data disk 0
  EXPECT_EQ(serve(*node, 0), RequestStatus::kOk);
  EXPECT_EQ(count(registry, "node.buffered_rescues.count"), 1u);
  // An unbuffered file on the dead disk has no live copy on this node:
  // it must fail upward (typed) so the server can try a replica.
  EXPECT_EQ(serve(*node, 2), RequestStatus::kDiskUnavailable);
  EXPECT_GE(count(registry, "node.failed_serves.count"), 1u);
  // A file on the surviving disk is unaffected.
  EXPECT_EQ(serve(*node, 1), RequestStatus::kOk);
}

TEST_F(NodeFaultTest, DeadBufferDiskFallsBackToDataDisks) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->start_prefetch({0}, [] {});
  sim.run();
  ASSERT_TRUE(node->is_buffered(0));
  node->mutable_buffer_disk(0).fail();
  // Availability is kept — the read degrades to the data-disk copy — at
  // an energy cost the node meters.
  EXPECT_EQ(serve(*node, 0), RequestStatus::kOk);
  EXPECT_EQ(count(registry, "node.buffer_fallback_reads.count"), 1u);
  EXPECT_EQ(count(registry, "node.failed_serves.count"), 0u);
}

TEST_F(NodeFaultTest, MediaErrorsAreRetriedWithBackoff) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->mutable_data_disk(0).inject_read_errors(2);
  EXPECT_EQ(serve(*node, 0), RequestStatus::kOk);
  EXPECT_EQ(count(registry, "node.disk_io_retries.count"), 2u);
  EXPECT_EQ(node->data_disk(0).media_errors(), 2u);
  EXPECT_EQ(count(registry, "node.failed_serves.count"), 0u);
}

TEST_F(NodeFaultTest, RetryBudgetExhaustionFailsTyped) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->mutable_data_disk(0).inject_read_errors(100);
  EXPECT_EQ(serve(*node, 0), RequestStatus::kDiskUnavailable);
  EXPECT_EQ(count(registry, "node.disk_io_retries.count"),
            core::StorageNode::kMaxIoRetries);
  EXPECT_GE(count(registry, "node.failed_serves.count"), 1u);
}

TEST_F(NodeFaultTest, CrashedNodeFailsFastAndRestartRecovers) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->crash();
  EXPECT_FALSE(node->alive());
  const Tick before = sim.now();
  RequestStatus st = RequestStatus::kOk;
  Tick failed_at = -1;
  node->serve_read(0, client_ep, [&](Tick t, RequestStatus s) {
    st = s;
    failed_at = t;
  });
  sim.run();
  EXPECT_EQ(st, RequestStatus::kNodeUnavailable);
  EXPECT_LE(failed_at - before, 2);  // connection refused, no disk touched
  EXPECT_EQ(node->data_disk(0).requests_completed(), 0u);
  node->restart();
  EXPECT_TRUE(node->alive());
  EXPECT_EQ(serve(*node, 0), RequestStatus::kOk);
}

TEST_F(NodeFaultTest, StrandedWritesAreNotLostAckedWrites) {
  // The durability split: *stranded* means the destage target disks died
  // (no journal can save those bytes); *lost acked* means a crash wiped
  // healthy bookkeeping.  One failure must never count as the other.
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->start_prefetch({}, [] {});
  sim.run();
  for (std::size_t d = 0; d < node->num_data_disks(); ++d) {
    node->mutable_data_disk(d).request_spin_down();
  }
  sim.run();
  RequestStatus st = RequestStatus::kNoReplica;
  node->serve_write(0, 10 * kMB, client_ep,
                    [&](Tick, RequestStatus s) { st = s; });
  sim.run();
  ASSERT_EQ(st, RequestStatus::kOk);
  ASSERT_EQ(node->undestaged_acked(), 1u);
  // The parked write's home disk dies: stranded, and retired from the
  // at-risk set — the journal must not replay it forever.
  node->mutable_data_disk(0).fail();
  sim.run();
  EXPECT_EQ(count(registry, "buffer.writes_stranded.count"), 1u);
  EXPECT_EQ(count(registry, "fault.lost_acked_writes.count"), 0u);
  EXPECT_EQ(node->undestaged_acked(), 0u);
  ASSERT_NE(node->journal(), nullptr);
  EXPECT_EQ(node->journal()->durable_records(), 0u);
  // A later crash/restart replays nothing: the strand already settled.
  node->crash();
  EXPECT_EQ(count(registry, "fault.lost_acked_writes.count"), 0u);
  node->restart();
  std::size_t replayed = 99;
  node->replay_journal([&](std::size_t n) { replayed = n; });
  sim.run();
  EXPECT_EQ(replayed, 0u);
}

TEST_F(NodeFaultTest, CrashSettlesOpenServesOnceInOpeningOrder) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->start_prefetch({}, [] {});
  sim.run();
  // Two reads and a staged write, all still on their disks when the
  // process dies 1 ms later.
  std::vector<std::pair<int, RequestStatus>> settled;
  std::vector<Tick> settled_at;
  const auto record = [&](int serve) {
    return [&, serve](Tick t, RequestStatus s) {
      settled.emplace_back(serve, s);
      settled_at.push_back(t);
    };
  };
  node->serve_read(1, client_ep, record(0));
  node->serve_write(2, 10 * kMB, client_ep, record(1));
  node->serve_read(3, client_ep, record(2));
  const Tick crash_at = sim.now() + milliseconds_to_ticks(1.0);
  (void)sim.schedule_at(crash_at, [&] { node->crash(); });
  sim.run();
  // The disk I/O the serves waited on still completes, but settles
  // nothing and ships nothing.
  const std::vector<std::pair<int, RequestStatus>> expected = {
      {0, RequestStatus::kNodeUnavailable},
      {1, RequestStatus::kNodeUnavailable},
      {2, RequestStatus::kNodeUnavailable}};
  EXPECT_EQ(settled, expected);
  EXPECT_EQ(settled_at, std::vector<Tick>(3, crash_at + 1));
  EXPECT_EQ(node->data_disk(1).requests_completed(), 2u);
  EXPECT_EQ(count(registry, "node.bytes_served.bytes"), 0u);
  EXPECT_EQ(count(registry, "node.failed_serves.count"), 3u);
}

TEST_F(NodeFaultTest, BufferDiskFailingMidReadFallsBackToStripes) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->start_prefetch({0}, [] {});
  sim.run();
  ASSERT_TRUE(node->is_buffered(0));
  RequestStatus st = RequestStatus::kNoReplica;
  node->serve_read(0, client_ep, [&](Tick, RequestStatus s) { st = s; });
  // The buffer disk dies under the buffered read.
  (void)sim.schedule_after(milliseconds_to_ticks(1.0), [&] {
    node->mutable_buffer_disk(0).fail();
  });
  sim.run();
  EXPECT_EQ(st, RequestStatus::kOk);
  EXPECT_EQ(count(registry, "prefetch.buffer_hits.count"), 1u);
  EXPECT_EQ(count(registry, "node.buffer_fallback_reads.count"), 1u);
  EXPECT_EQ(count(registry, "prefetch.data_disk_reads.count"), 1u);
  EXPECT_EQ(count(registry, "node.bytes_served.bytes"), 10 * kMB);
  EXPECT_EQ(count(registry, "node.failed_serves.count"), 0u);
}

TEST_F(NodeFaultTest, EveryServeEmitsOneSpanWithItsStatus) {
  obs::TracerConfig trace;
  trace.enabled = true;
  obs::Tracer tracer(trace);
  auto node = make_node(params());
  node->set_observer(&tracer);
  setup_files(*node, 4, 10 * kMB);
  node->start_prefetch({}, [] {});
  sim.run();
  EXPECT_EQ(serve(*node, 1), RequestStatus::kOk);
  RequestStatus wst = RequestStatus::kNoReplica;
  node->serve_write(1, 10 * kMB, client_ep,
                    [&](Tick, RequestStatus s) { wst = s; });
  sim.run();
  EXPECT_EQ(wst, RequestStatus::kOk);
  node->mutable_data_disk(0).fail();
  EXPECT_EQ(serve(*node, 2), RequestStatus::kDiskUnavailable);
  // Open when the node crashes, then refused by the crashed node.
  RequestStatus open_st = RequestStatus::kOk;
  node->serve_read(3, client_ep, [&](Tick, RequestStatus s) { open_st = s; });
  (void)sim.schedule_after(milliseconds_to_ticks(1.0),
                           [&] { node->crash(); });
  sim.run();
  EXPECT_EQ(open_st, RequestStatus::kNodeUnavailable);
  EXPECT_EQ(serve(*node, 1), RequestStatus::kNodeUnavailable);

  std::vector<std::tuple<std::string, std::string, std::int64_t>> spans;
  for (const obs::TraceEvent& ev : tracer.events()) {
    const std::string& name = tracer.lookup(ev.name);
    if (name != "node.read" && name != "node.write") continue;
    EXPECT_GT(ev.dur, 0) << name;
    spans.emplace_back(name, tracer.lookup(ev.detail), ev.a0);
  }
  const std::vector<std::tuple<std::string, std::string, std::int64_t>>
      expected = {{"node.read", "ok", 1},
                  {"node.write", "ok", 1},
                  {"node.read", "disk_unavailable", 2},
                  {"node.read", "node_unavailable", 3},
                  {"node.read", "node_unavailable", 1}};
  EXPECT_EQ(spans, expected);
}

TEST_F(NodeFaultTest, RewarmRecopiesThePlannedSliceAfterACrash) {
  // Files 0 and 1 are hot, one on each data disk, and make up the slice;
  // 2 and 3 are cold and outside it.
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB, /*hot=*/2);
  node->start_prefetch({0, 1}, [] {});
  sim.run();
  ASSERT_TRUE(node->is_buffered(0));
  ASSERT_TRUE(node->is_buffered(1));
  // The crash wipes the buffer index; the restart does not refill it.
  node->crash();
  node->restart();
  for (trace::FileId f = 0; f < 4; ++f) EXPECT_FALSE(node->is_buffered(f));
  std::size_t rewarmed = 99;
  node->rewarm_prefetch([&](std::size_t n) { rewarmed = n; });
  sim.run();
  EXPECT_EQ(rewarmed, 2u);
  EXPECT_TRUE(node->is_buffered(0));
  EXPECT_TRUE(node->is_buffered(1));
  EXPECT_FALSE(node->is_buffered(2));
  EXPECT_FALSE(node->is_buffered(3));
}

TEST_F(NodeFaultTest, RewarmSkipsFilesTheGateRejected) {
  // Slice {0, 1}: file 0 is hot, file 1 is cold and the PRE-BUD gate
  // rejects it.  Re-warm restores the plan, not the slice.
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB);
  node->start_prefetch({0, 1}, [] {});
  sim.run();
  const auto& rejected = node->prefetch_plan().rejected_by_gate;
  ASSERT_EQ(rejected.size(), 1u);
  ASSERT_EQ(rejected.front(), 1u);
  ASSERT_TRUE(node->is_buffered(0));
  ASSERT_FALSE(node->is_buffered(1));
  node->crash();
  node->restart();
  std::size_t rewarmed = 99;
  node->rewarm_prefetch([&](std::size_t n) { rewarmed = n; });
  sim.run();
  EXPECT_EQ(rewarmed, 1u);
  EXPECT_TRUE(node->is_buffered(0));
  EXPECT_FALSE(node->is_buffered(1));
}

TEST_F(NodeFaultTest, RewarmRepinsRamFilesWithoutBufferingThem) {
  // Hot files 0 and 1 make up the slice; the RAM pin budget (half of
  // 20 MB) holds one, so file 0 is pinned and file 1 is buffered.
  core::NodeParams p = params();
  p.ram_cache_bytes = 20 * kMB;
  auto node = make_node(p);
  setup_files(*node, 4, 10 * kMB, /*hot=*/2);
  node->start_prefetch({0, 1}, [] {});
  sim.run();
  // The crash replaces the RAM tier, so each check asks the node for it.
  const auto in_ram = [&](trace::FileId f) {
    return node->ram_cache()->contains(f);
  };
  ASSERT_EQ(node->prefetch_plan().ram_pinned.size(), 1u);
  ASSERT_TRUE(in_ram(0));
  ASSERT_FALSE(node->is_buffered(0));
  ASSERT_TRUE(node->is_buffered(1));
  node->crash();
  node->restart();
  ASSERT_FALSE(in_ram(0));
  std::size_t rewarmed = 99;
  node->rewarm_prefetch([&](std::size_t n) { rewarmed = n; });
  sim.run();
  EXPECT_EQ(rewarmed, 2u);
  EXPECT_TRUE(in_ram(0));
  EXPECT_FALSE(node->is_buffered(0));
  EXPECT_TRUE(node->is_buffered(1));
  EXPECT_FALSE(in_ram(1));
}

// --- FaultPlan construction -------------------------------------------

TEST(FaultPlan, BuildersAppendTypedSpecs) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.fail_data_disk(1.0, 2, 1)
      .fail_buffer_disk(1.5, 3, 0)
      .flake_spin_up(2.0, 0, 0, 3)
      .latent_read_errors(0.5, 0, 1, 7)
      .crash_node(3.0, 1)
      .restart_node(4.0, 1);
  EXPECT_FALSE(plan.empty());
  ASSERT_EQ(plan.events.size(), 6u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kDiskFailure);
  EXPECT_FALSE(plan.events[0].buffer_disk);
  EXPECT_EQ(plan.events[0].node, 2u);
  EXPECT_EQ(plan.events[0].disk, 1u);
  EXPECT_TRUE(plan.events[1].buffer_disk);
  EXPECT_EQ(plan.events[2].kind, fault::FaultKind::kSpinUpFlake);
  EXPECT_EQ(plan.events[2].param, 3u);
  EXPECT_EQ(plan.events[3].kind, fault::FaultKind::kLatentReadErrors);
  EXPECT_EQ(plan.events[3].param, 7u);
  EXPECT_EQ(plan.events[4].kind, fault::FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[5].kind, fault::FaultKind::kNodeRestart);
}

TEST(FaultPlan, FailNodePairExpandsToOverlappingOutages) {
  fault::FaultPlan plan;
  plan.fail_node_pair(100.0, 2, 3, 40.0);
  // Two staggered crash/restart pairs: B goes down a quarter of the
  // downtime after A, so both nodes are dead together for half of it.
  ASSERT_EQ(plan.events.size(), 4u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[0].node, 2u);
  EXPECT_DOUBLE_EQ(plan.events[0].at_sec, 100.0);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[1].node, 3u);
  EXPECT_DOUBLE_EQ(plan.events[1].at_sec, 110.0);
  EXPECT_EQ(plan.events[2].kind, fault::FaultKind::kNodeRestart);
  EXPECT_EQ(plan.events[2].node, 2u);
  EXPECT_DOUBLE_EQ(plan.events[2].at_sec, 140.0);
  EXPECT_EQ(plan.events[3].kind, fault::FaultKind::kNodeRestart);
  EXPECT_EQ(plan.events[3].node, 3u);
  EXPECT_DOUBLE_EQ(plan.events[3].at_sec, 150.0);
  // Overlap window [110, 140): both down for half the downtime.
  fault::FaultPlan bad;
  EXPECT_THROW(bad.fail_node_pair(1.0, 2, 2, 10.0), std::invalid_argument);
  EXPECT_THROW(bad.fail_node_pair(1.0, 2, 3, 0.0), std::invalid_argument);
}

TEST(FaultPlan, DropsAloneMakeThePlanNonEmpty) {
  fault::FaultPlan plan;
  plan.network_drop_prob = 0.01;
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RandomDataDiskFailuresAreDeterministic) {
  const auto a = fault::random_data_disk_failures(42, 10.0, 8, 2, 5);
  const auto b = fault::random_data_disk_failures(42, 10.0, 8, 2, 5);
  ASSERT_EQ(a.events.size(), 5u);
  ASSERT_EQ(b.events.size(), 5u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].at_sec, b.events[i].at_sec);
    EXPECT_EQ(a.events[i].node, b.events[i].node);
    EXPECT_EQ(a.events[i].disk, b.events[i].disk);
    EXPECT_EQ(a.events[i].kind, fault::FaultKind::kDiskFailure);
    EXPECT_FALSE(a.events[i].buffer_disk);
    EXPECT_GT(a.events[i].at_sec, 0.0);
    EXPECT_LT(a.events[i].at_sec, 10.0);
    EXPECT_LT(a.events[i].node, 8u);
    EXPECT_LT(a.events[i].disk, 2u);
  }
}

TEST(FaultPlan, RandomCrashSchedulePairsCrashWithRestart) {
  const auto a = fault::random_crash_schedule(2026, 600.0, 8, 4, 30.0);
  const auto b = fault::random_crash_schedule(2026, 600.0, 8, 4, 30.0);
  ASSERT_EQ(a.events.size(), b.events.size());  // deterministic
  ASSERT_EQ(a.events.size() % 2, 0u);
  std::map<std::size_t, double> busy_until;
  for (std::size_t i = 0; i < a.events.size(); i += 2) {
    const auto& crash = a.events[i];
    const auto& restart = a.events[i + 1];
    EXPECT_EQ(crash.kind, fault::FaultKind::kNodeCrash);
    EXPECT_EQ(restart.kind, fault::FaultKind::kNodeRestart);
    EXPECT_EQ(crash.node, restart.node);
    EXPECT_DOUBLE_EQ(restart.at_sec, crash.at_sec + 30.0);
    EXPECT_GT(crash.at_sec, 0.0);
    EXPECT_LT(crash.at_sec, 600.0);
    // A node is never re-crashed while still down.
    EXPECT_GT(crash.at_sec, busy_until[crash.node]);
    busy_until[crash.node] = restart.at_sec;
    EXPECT_DOUBLE_EQ(crash.at_sec, b.events[i].at_sec);
  }
}

TEST(FaultPlan, ParseAcceptsEveryDirectiveAndComments) {
  const auto plan = fault::parse_fault_plan(
      "# chaos schedule\n"
      "crash 30 1\n"
      "restart 60 1\n"
      "fail_data_disk 10 0 1  # inline comment\n"
      "fail_buffer_disk 12 0 0\n"
      "flake_spin_up 20 2 0 3\n"
      "latent_read_errors 25 1 0 7\n"
      "fail_node_pair 40 2 3 20\n"
      "\n"
      "drop_prob 0.01\n"
      "seed 99\n");
  ASSERT_EQ(plan.events.size(), 10u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[0].node, 1u);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kNodeRestart);
  EXPECT_FALSE(plan.events[2].buffer_disk);
  EXPECT_TRUE(plan.events[3].buffer_disk);
  EXPECT_EQ(plan.events[4].param, 3u);
  EXPECT_EQ(plan.events[5].param, 7u);
  // fail_node_pair expanded into two staggered crash/restart pairs.
  EXPECT_EQ(plan.events[6].kind, fault::FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[6].node, 2u);
  EXPECT_EQ(plan.events[7].kind, fault::FaultKind::kNodeCrash);
  EXPECT_EQ(plan.events[7].node, 3u);
  EXPECT_DOUBLE_EQ(plan.events[7].at_sec, 45.0);
  EXPECT_EQ(plan.events[8].kind, fault::FaultKind::kNodeRestart);
  EXPECT_EQ(plan.events[9].kind, fault::FaultKind::kNodeRestart);
  EXPECT_DOUBLE_EQ(plan.network_drop_prob, 0.01);
  EXPECT_EQ(plan.seed, 99u);
}

TEST(FaultPlan, ParseRejectsBadNodePairs) {
  // Same node twice, and the a==b error surfaces through the parser.
  EXPECT_THROW(fault::parse_fault_plan("fail_node_pair 40 2 2 20\n"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_plan("fail_node_pair 40 2 3\n"),
               std::invalid_argument);  // missing downtime
}

TEST(FaultPlan, ParseRejectsMalformedLinesWithTheLineNumber) {
  EXPECT_THROW(fault::parse_fault_plan("explode 1 2\n"),
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_plan("crash 30\n"),  // missing node
               std::invalid_argument);
  EXPECT_THROW(fault::parse_fault_plan("crash 30 1 extra\n"),
               std::invalid_argument);
  try {
    fault::parse_fault_plan("crash 30 1\nrestart nonsense\n");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// --- Cluster-level availability (the acceptance criteria) --------------

workload::Workload small_workload(std::size_t requests = 300,
                                  double mu = 1000.0,
                                  double size_mb = 10.0) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = requests;
  cfg.mu = mu;
  cfg.mean_data_size_mb = size_mb;
  return workload::generate_synthetic(cfg);
}

TEST(ClusterFault, ReplicatedClusterSurvivesDataDiskFailure) {
  const auto w = small_workload(400);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.replication_degree = 2;
  cfg.fault_plan.fail_data_disk(0.0, 0, 0);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  // Every request lands despite the lost disk: the buffered copies and
  // the replica set absorb the failure.
  EXPECT_EQ(m.count("client.failed_requests.count"), 0u);
  EXPECT_GT(m.count("server.requests_rerouted.count"), 0u);
  EXPECT_GT(m.retried_requests(), 0u);
  EXPECT_EQ(m.response_time_sec.count(), w.requests.size());
  EXPECT_EQ(m.count("fault.injected.count"), 1u);
  EXPECT_DOUBLE_EQ(m.availability(), 1.0);
  ASSERT_NE(c.injector(), nullptr);
  EXPECT_EQ(c.injector()->injected(fault::FaultKind::kDiskFailure), 1u);
}

TEST(ClusterFault, RequestsCountEachRequestOnceUnderRetries) {
  // A client re-issue reaches the server as one more attempt; the request
  // count must not grow with it, or availability reads high.
  core::ClusterConfig dead_disk = baseline::eevfs_pf();
  dead_disk.fault_plan.fail_data_disk(0.0, 0, 0);
  core::ClusterConfig drops = baseline::eevfs_pf();
  drops.fault_plan.network_drop_prob = 0.02;
  drops.request_timeout_sec = 3.0;
  drops.max_request_retries = 6;
  for (const core::ClusterConfig& cfg : {dead_disk, drops}) {
    const auto w = small_workload(300);
    core::Cluster c(cfg);
    const core::RunMetrics m = c.run(w);
    ASSERT_GT(m.count("client.retries.count"), 0u);
    EXPECT_EQ(m.requests, w.requests.size());
    EXPECT_EQ(m.count("client.requests.count"), w.requests.size());
    const std::uint64_t failed = m.count("client.failed_requests.count");
    EXPECT_EQ(m.response_time_sec.count() + failed, m.requests);
    EXPECT_DOUBLE_EQ(m.availability(),
                     1.0 - static_cast<double>(failed) / 300.0);
  }
}

TEST(ClusterFault, FaultedRunIsBitIdenticalAcrossRuns) {
  const auto w = small_workload(400);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.replication_degree = 2;
  cfg.fault_plan.fail_data_disk(0.0, 0, 0);
  core::Cluster a(cfg), b(cfg);
  const core::RunMetrics ma = a.run(w);
  const core::RunMetrics mb = b.run(w);
  EXPECT_EQ(ma.total_joules, mb.total_joules);  // bit-exact
  EXPECT_EQ(ma.makespan, mb.makespan);
  EXPECT_EQ(ma.counters, mb.counters);  // every count, bit-exact
  EXPECT_EQ(ma.response_time_sec.mean(), mb.response_time_sec.mean());
}

TEST(ClusterFault, UnreplicatedClusterFailsTypedButNeverHangs) {
  const auto w = small_workload(400);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.replication_degree = 1;
  cfg.fault_plan.fail_data_disk(0.0, 0, 0);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);  // completing at all is the point
  EXPECT_GT(m.count("client.failed_requests.count"), 0u);
  EXPECT_EQ(m.count("server.requests_rerouted.count"), 0u);  // nowhere to go
  EXPECT_GT(m.count("client.retries.count"), 0u);
  // Every request is accounted for: served or typed-failed, no strand.
  EXPECT_EQ(m.response_time_sec.count() +
                m.count("client.failed_requests.count"),
            w.requests.size());
  EXPECT_LT(m.availability(), 1.0);
}

TEST(ClusterFault, BufferDiskLossDegradesToDataDisksWithoutFailures) {
  // 200 requests over ~10 s; the buffer disk dies mid-replay, after the
  // prefetch put the hot files on it.
  const auto w = small_workload(200, 20.0);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.fault_plan.fail_buffer_disk(4.0, 0, 0);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  EXPECT_EQ(m.count("client.failed_requests.count"), 0u);
  EXPECT_GT(m.count("node.buffer_fallback_reads.count"), 0u);
  // Fallback reads spin data disks a healthy buffer would have spared.
  EXPECT_GT(m.metric("node.fault_energy_delta.joules").value, 0.0);
}

TEST(ClusterFault, NodeCrashIsDetectedAndRecoveredByHeartbeats) {
  const auto w = small_workload(200, 20.0);  // ~10 s of replay
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.fault_plan.crash_node(0.0, 0).restart_node(6.0, 0);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  ASSERT_NE(c.injector(), nullptr);
  EXPECT_EQ(c.injector()->injected(fault::FaultKind::kNodeCrash), 1u);
  EXPECT_EQ(c.injector()->injected(fault::FaultKind::kNodeRestart), 1u);
  // While the node was down its requests failed typed...
  EXPECT_GT(m.count("client.failed_requests.count"), 0u);
  EXPECT_GT(m.response_time_sec.count(), 0u);
  EXPECT_EQ(m.response_time_sec.count() +
                m.count("client.failed_requests.count"),
            w.requests.size());
  // ...and the health monitor saw the outage end after the restart.
  EXPECT_GT(m.count("server.degraded_time.us"), 0u);
  EXPECT_EQ(m.count("server.heartbeat_recoveries.count"), 1u);
  EXPECT_GT(m.heartbeat_mttr_sec(), 0.0);
}

TEST(ClusterFault, NetworkDropsAreAbsorbedByTimeoutsAndRetries) {
  const auto w = small_workload(300);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.fault_plan.network_drop_prob = 0.02;
  cfg.request_timeout_sec = 3.0;
  cfg.max_request_retries = 6;
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  ASSERT_NE(c.injector(), nullptr);
  EXPECT_GT(c.injector()->messages_dropped(), 0u);
  EXPECT_GT(m.count("client.timeouts.count") +
                m.count("client.retries.count"),
            0u);
  EXPECT_EQ(m.response_time_sec.count() +
                m.count("client.failed_requests.count"),
            w.requests.size());
}

TEST(ClusterFault, MisaddressedFaultsAreCountedNotApplied) {
  const auto w = small_workload(100);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.fault_plan.fail_data_disk(0.0, 99, 0);  // node out of range
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  ASSERT_NE(c.injector(), nullptr);
  EXPECT_EQ(c.injector()->faults_misaddressed(), 1u);
  EXPECT_EQ(c.injector()->faults_injected(), 0u);
  EXPECT_EQ(m.count("client.failed_requests.count"), 0u);
}

/// `requests` with every (1/write_fraction)-th turned into a write —
/// crash-stop durability only matters on a write-mixed workload.
workload::Workload write_mixed(std::size_t requests, double write_fraction) {
  workload::Workload w = small_workload(requests);
  const auto period = static_cast<std::size_t>(1.0 / write_fraction);
  trace::Trace mixed;
  std::size_t i = 0;
  for (const auto& r : w.requests.records()) {
    trace::TraceRecord copy = r;
    if (++i % period == 0) copy.op = trace::Op::kWrite;
    mixed.append(copy);
  }
  w.requests = std::move(mixed);
  return w;
}

TEST(ClusterFault, JournaledCrashRecoversEveryAckedWrite) {
  const auto w = write_mixed(400, 0.25);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.replication_degree = 2;
  cfg.fault_plan = fault::random_crash_schedule(
      /*seed=*/2026, ticks_to_seconds(w.requests.duration()),
      cfg.num_storage_nodes, /*count=*/2, /*downtime_sec=*/20.0);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  // The acceptance invariant: with the journal on (default commit mode),
  // a crash-stop never destroys an acknowledged write.
  EXPECT_EQ(m.count("fault.lost_acked_writes.count"), 0u);
  EXPECT_GE(m.count("recovery.episodes.count"), 1u);
  EXPECT_GT(m.metric("recovery.mttr.us").sum, 0.0);
  EXPECT_GT(m.recovery_mttr_sec(), 0.0);
  // Every request is accounted for: served or typed-failed, no strand.
  EXPECT_EQ(m.response_time_sec.count() +
                m.count("client.failed_requests.count"),
            w.requests.size());
}

TEST(ClusterFault, JournalOffQuantifiesTheCrashLoss) {
  const auto w = write_mixed(400, 0.25);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.replication_degree = 2;
  cfg.journal_mode = disk::JournalMode::kOff;
  cfg.fault_plan = fault::random_crash_schedule(
      /*seed=*/2026, ticks_to_seconds(w.requests.duration()),
      cfg.num_storage_nodes, /*count=*/2, /*downtime_sec=*/20.0);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  // The ablation: same crash schedule, no journal — acked writes caught
  // undestaged on the crashed node are gone, and nothing replays.
  EXPECT_GT(m.count("fault.lost_acked_writes.count"), 0u);
  EXPECT_EQ(m.count("recovery.replayed_writes.count"), 0u);
  EXPECT_GE(m.count("recovery.episodes.count"), 1u);
  EXPECT_EQ(m.response_time_sec.count() +
                m.count("client.failed_requests.count"),
            w.requests.size());
}

TEST(ClusterFault, CrashedRunWithRecoveryIsBitIdenticalAcrossRuns) {
  const auto w = write_mixed(300, 0.25);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.replication_degree = 2;
  cfg.fault_plan.crash_node(20.0, 0).restart_node(50.0, 0);
  core::Cluster a(cfg), b(cfg);
  const core::RunMetrics ma = a.run(w);
  const core::RunMetrics mb = b.run(w);
  EXPECT_EQ(ma.total_joules, mb.total_joules);  // bit-exact
  EXPECT_EQ(ma.makespan, mb.makespan);
  EXPECT_EQ(ma.counters, mb.counters);  // recovery counts included
}

TEST(ClusterFault, DeadMarkedPrimaryIsTriedNotSkipped) {
  // Regression for the try_replica audit: a heartbeat dead-mark is a
  // HINT, not a verdict.  A dead-marked primary is demoted to the back
  // of the candidate list but still tried — never skipped in a way that
  // burns a client retry or fails the request outright.  Here the only
  // replica restarts at 16.3 s, and reads arrive while the stale
  // dead-mark is still standing (the clearing heartbeat lands at ~17 s):
  // they must be served by the dead-marked node, not bounced.
  workload::Workload w;
  w.name = "dead-mark-regression";
  w.file_sizes = {10 * kMB};
  for (const double sec : {1.0, 2.0, 3.0, 16.35, 16.6, 18.0}) {
    w.requests.append({seconds_to_ticks(sec), 10 * kMB, 0, 0,
                       trace::Op::kRead});
  }
  core::ClusterConfig cfg = baseline::eevfs_pf();
  // No prefetch: replay starts at t=0, so arrivals are absolute sim
  // times.
  cfg.cache_policy = core::CachePolicy::kNone;
  cfg.replication_degree = 1;
  cfg.fault_plan.crash_node(8.0, 0).restart_node(16.3, 0);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  // Heartbeats (1 s interval, 3 misses) dead-mark node 0 by ~12 s; the
  // mark outlives the 16.3 s restart until the next successful ping.
  EXPECT_GT(m.count("server.degraded_time.us"), 0u);
  // All six reads served — including the two against the dead-marked
  // node — with no retries and no failovers (the primary itself served).
  EXPECT_EQ(m.response_time_sec.count(), w.requests.size());
  EXPECT_EQ(m.count("client.failed_requests.count"), 0u);
  EXPECT_EQ(m.count("client.retries.count"), 0u);
  EXPECT_EQ(m.count("server.requests_rerouted.count"), 0u);
}

// --- Erasure coding (robustness extension) -----------------------------

TEST(ClusterFault, ErasureReadsSurviveNodeCrashDegraded) {
  const auto w = small_workload(300);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.ec_n = 4;
  cfg.ec_k = 2;
  cfg.fault_plan.crash_node(30.0, 2).restart_node(90.0, 2);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  // The tentpole acceptance: with n - k = 2 >= 1 injected outage, every
  // read is served — degraded via parity when a chunk holder is down.
  EXPECT_EQ(m.count("client.failed_requests.count"), 0u);
  EXPECT_DOUBLE_EQ(m.availability(), 1.0);
  EXPECT_EQ(m.count("ec.reads.count"), w.requests.size());
  EXPECT_GT(m.count("ec.degraded_reads.count"), 0u);
  // Every degraded join decodes; hedge-won joins may decode too.
  EXPECT_GE(m.count("ec.reconstructions.count"),
            m.count("ec.degraded_reads.count"));
  EXPECT_GT(m.count("ec.decode_time.us"), 0u);
  EXPECT_GT(m.metric("ec.degraded_energy.joules").value, 0.0);
  // k-of-n fan-out: at least k chunk requests per read.
  EXPECT_GE(m.count("ec.chunk_requests.count"),
            m.count("ec.reads.count") * cfg.ec_k);
  // A degraded read is a reroute (served around the primary's chunk).
  EXPECT_GE(m.count("server.requests_rerouted.count"),
            m.count("ec.degraded_reads.count"));
}

TEST(ClusterFault, ErasureRepairRebuildsChunksAfterRestart) {
  const auto w = write_mixed(400, 0.25);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.ec_n = 4;
  cfg.ec_k = 2;
  cfg.fault_plan.crash_node(30.0, 2).restart_node(90.0, 2);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  // Writes landed k-of-n while node 2 was down (its chunks went stale);
  // the recovery pipeline rebuilt each lost chunk from k survivors.
  EXPECT_EQ(m.count("fault.lost_acked_writes.count"), 0u);
  EXPECT_EQ(m.count("client.failed_requests.count"), 0u);
  EXPECT_GT(m.count("ec.repaired_chunks.count"), 0u);
  // In erasure mode the resync phase IS chunk repair: same count.
  EXPECT_EQ(m.count("recovery.resynced_files.count"),
            m.count("ec.repaired_chunks.count"));
  EXPECT_GE(m.count("recovery.episodes.count"), 1u);
}

TEST(ClusterFault, ErasureSurvivesOverlappingNodePair) {
  // The case a single spare copy cannot mask: two nodes down at once.
  // (4,2) tolerates n - k = 2 losses, so the durability gate holds.
  const auto w = write_mixed(400, 0.25);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.ec_n = 4;
  cfg.ec_k = 2;
  cfg.fault_plan.fail_node_pair(30.0, 2, 3, 30.0);
  core::Cluster c(cfg);
  const core::RunMetrics m = c.run(w);
  EXPECT_EQ(m.count("client.failed_requests.count"), 0u);
  EXPECT_EQ(m.count("fault.lost_acked_writes.count"), 0u);
  EXPECT_GT(m.count("ec.degraded_reads.count"), 0u);
  EXPECT_DOUBLE_EQ(m.availability(), 1.0);
}

TEST(ClusterFault, ErasureMidRepairCrashAbandonsStaleEpisode) {
  // Crash again right after the restart, while chunk repair is still
  // trickling: the generation guard must abandon the stale episode (no
  // half-repaired chunk marked clean) and the rerun stays bit-identical.
  const auto w = write_mixed(400, 0.25);
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.ec_n = 4;
  cfg.ec_k = 2;
  cfg.fault_plan.crash_node(30.0, 2)
      .restart_node(60.0, 2)
      .crash_node(60.5, 2)
      .restart_node(120.0, 2);
  core::Cluster a(cfg), b(cfg);
  const core::RunMetrics ma = a.run(w);
  const core::RunMetrics mb = b.run(w);
  ASSERT_NE(a.recovery(), nullptr);
  EXPECT_GE(ma.count("recovery.episodes_abandoned.count"), 1u);
  EXPECT_EQ(ma.count("fault.lost_acked_writes.count"), 0u);
  EXPECT_EQ(ma.count("client.failed_requests.count"), 0u);
  // Bit-identical across runs, down to the erasure bookkeeping.
  EXPECT_EQ(ma.total_joules, mb.total_joules);
  EXPECT_EQ(ma.makespan, mb.makespan);
  EXPECT_EQ(ma.counters, mb.counters);
}

TEST(ClusterFault, ValidateRejectsNonsensicalFaultConfigs) {
  core::ClusterConfig cfg = baseline::eevfs_pf();
  cfg.replication_degree = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.replication_degree = cfg.num_storage_nodes + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  cfg = baseline::eevfs_pf();
  cfg.fault_plan.network_drop_prob = 0.1;  // drops without a timeout
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  EXPECT_THROW(core::Cluster{cfg}, std::invalid_argument);
  cfg.request_timeout_sec = 1.0;
  EXPECT_NO_THROW(cfg.validate());
  cfg.fault_plan.network_drop_prob = 1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);

  // Erasure parameters: n and k set together, n > k >= 1, n bounded by
  // the node count, and mutually exclusive with replication.
  cfg = baseline::eevfs_pf();
  cfg.ec_n = 4;  // k left 0
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.ec_k = 4;  // k must be < n
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.ec_k = 2;
  EXPECT_NO_THROW(cfg.validate());
  cfg.ec_n = cfg.num_storage_nodes + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.ec_n = 4;
  cfg.replication_degree = 2;  // pick one redundancy scheme
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.replication_degree = 1;
  cfg.ec_hedge_ms = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

// --- Recovery's repair rule ---------------------------------------------

/// A server, its storage nodes and a recovery manager wired by hand, so a
/// test can crash, dead-mark and restart nodes between requests.  A
/// restarted node's stale copy is repaired from the first `need` healthy
/// holders (alive and not dead-marked): one under replication, k under
/// erasure.
class RepairTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kFiles = 20;

  RepairTest() : net(sim) {
    server_ep = net.add_endpoint("server", net::mbps_to_bytes_per_sec(1000));
    client_ep = net.add_endpoint("client", net::mbps_to_bytes_per_sec(1000));
  }

  /// `num_nodes` nodes holding kFiles 1 MB files, each on `copies`
  /// consecutive nodes: replicas, or (copies, ec_k) chunks when ec_k > 0.
  void build(std::size_t num_nodes, std::size_t copies, std::size_t ec_k) {
    for (NodeId n = 0; n < num_nodes; ++n) {
      core::NodeParams p;
      p.id = n;
      p.data_disks = 2;
      p.buffer_disks = 1;
      p.disk_profile = disk::DiskProfile::ata133_fast();
      nodes.push_back(std::make_unique<core::StorageNode>(
          sim, net, net.add_endpoint("node", net::mbps_to_bytes_per_sec(1000)),
          p, registry));
      raw.push_back(nodes.back().get());
    }
    server = std::make_unique<core::StorageServer>(
        sim, net, server_ep, core::PlacementPolicy::kPopularityRoundRobin, 1,
        registry);
    if (ec_k > 0) {
      core::StorageServer::ErasureParams ec;
      ec.n = copies;
      ec.k = ec_k;
      server->set_erasure(ec);
    } else {
      server->set_replication_degree(copies);
    }
    server->register_nodes(raw);
    server->ingest_popularity(trace::PopularityAnalyzer({}, 0));
    server->place_and_create(std::vector<Bytes>(kFiles, kMB));
    server->distribute_patterns(0, nullptr);
    for (core::StorageNode* n : raw) n->start_prefetch({}, [] {});
    sim.run();
    for (core::StorageNode* n : raw) n->begin_replay(sim.now());
    recovery =
        std::make_unique<core::RecoveryManager>(sim, *server, raw, registry);
    recovery->set_observer(&tracer);
  }

  RequestStatus route(trace::FileId f, trace::Op op) {
    RequestStatus st = RequestStatus::kNoReplica;
    server->route({sim.now(), kMB, f, 0, op}, client_ep,
                  [&](Tick, RequestStatus s) { st = s; });
    sim.run();
    return st;
  }

  bool holds(trace::FileId f, NodeId n) const {
    const std::span<const NodeId> holders = server->metadata().holders(f);
    return std::find(holders.begin(), holders.end(), n) != holders.end();
  }

  /// The holders of `f` other than `n`, in placement order.
  std::vector<NodeId> others(trace::FileId f, NodeId n) const {
    std::vector<NodeId> out;
    for (const NodeId h : server->metadata().holders(f)) {
      if (h != n) out.push_back(h);
    }
    return out;
  }

  /// Crashes node `n` and writes every file it holds while it is down, so
  /// each of its copies goes stale.  Returns those files, ascending.
  std::vector<trace::FileId> miss_writes(NodeId n) {
    raw[n]->crash();
    recovery->on_crash(n);
    // A read of a file `n` is primary for fails over and dead-marks `n`;
    // every write after it skips `n` and marks its copy stale.
    trace::FileId first = 0;
    while (server->metadata().node(first) != n) ++first;
    EXPECT_EQ(route(first, trace::Op::kRead), RequestStatus::kOk);
    std::vector<trace::FileId> files;
    for (trace::FileId f = 0; f < kFiles; ++f) {
      if (!holds(f, n)) continue;
      EXPECT_EQ(route(f, trace::Op::kWrite), RequestStatus::kOk) << f;
      files.push_back(f);
    }
    return files;
  }

  /// Restarts `n` through the recovery manager and runs its episode.
  void recover(NodeId n) {
    recovery->on_restart(n);
    sim.run();
    EXPECT_EQ(count(registry, "recovery.episodes.count"), 1u);
    EXPECT_EQ(count(registry, "recovery.episodes_abandoned.count"), 0u);
  }

  /// The files whose chunk repair the trace records, ascending.
  std::vector<trace::FileId> rebuilt_chunks() const {
    std::vector<trace::FileId> out;
    for (const obs::TraceEvent& ev : tracer.events()) {
      if (tracer.lookup(ev.name) == "recovery.ec_repair") {
        out.push_back(static_cast<trace::FileId>(ev.a1));
      }
    }
    return out;
  }

  sim::Simulator sim;
  net::NetworkFabric net;
  obs::Registry registry;
  obs::Tracer tracer{obs::TracerConfig{.enabled = true}};
  net::EndpointId server_ep{}, client_ep{};
  std::vector<std::unique_ptr<core::StorageNode>> nodes;
  std::vector<core::StorageNode*> raw;
  std::unique_ptr<core::StorageServer> server;
  std::unique_ptr<core::RecoveryManager> recovery;
};

TEST_F(RepairTest, ReplicaWithoutALiveHolderStaysStale) {
  build(3, 2, 0);
  const std::vector<trace::FileId> stale = miss_writes(0);
  raw[1]->crash();
  // Exactly the files whose other copy is on node 2 have a donor.
  std::size_t expected = 0;
  for (const trace::FileId f : stale) {
    if (others(f, 0)[0] == 2) ++expected;
  }
  ASSERT_GT(expected, 0u);
  ASSERT_LT(expected, stale.size());
  recover(0);
  EXPECT_EQ(count(registry, "recovery.resynced_files.count"), expected);
}

TEST_F(RepairTest, ReplicaOnADeadMarkedHolderStaysStale) {
  build(3, 2, 0);
  const std::vector<trace::FileId> stale = miss_writes(0);
  // Node 1 fails one read, which dead-marks it, and comes back without a
  // heartbeat to clear the mark: alive, but not a donor.
  raw[1]->crash();
  trace::FileId on_1 = 0;
  while (server->metadata().node(on_1) != 1) ++on_1;
  ASSERT_EQ(route(on_1, trace::Op::kRead), RequestStatus::kOk);
  ASSERT_TRUE(server->node_dead(1));
  raw[1]->restart();
  // Exactly the files whose other copy is on node 2 have a donor.
  std::size_t expected = 0;
  for (const trace::FileId f : stale) {
    if (others(f, 0)[0] == 2) ++expected;
  }
  ASSERT_GT(expected, 0u);
  ASSERT_LT(expected, stale.size());
  recover(0);
  EXPECT_EQ(count(registry, "recovery.resynced_files.count"), expected);
}

TEST_F(RepairTest, ChunkWithFewerThanKLiveHoldersStaysStale) {
  build(5, 4, 2);  // (4, 2) over five nodes
  const std::vector<trace::FileId> stale = miss_writes(0);
  raw[1]->crash();
  raw[2]->crash();
  std::vector<trace::FileId> expected;
  for (const trace::FileId f : stale) {
    const std::vector<NodeId> holders = others(f, 0);
    if (std::count_if(holders.begin(), holders.end(),
                      [](NodeId h) { return h > 2; }) >= 2) {
      expected.push_back(f);
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), stale.size());
  recover(0);
  EXPECT_EQ(rebuilt_chunks(), expected);
  EXPECT_EQ(count(registry, "recovery.resynced_files.count"), expected.size());
  EXPECT_EQ(count(registry, "ec.repaired_chunks.count"), expected.size());
}

TEST_F(RepairTest, FailedDonorReadLeavesTheFileStaleAndRepairMovesOn) {
  build(5, 4, 2);
  const std::vector<trace::FileId> stale = miss_writes(0);
  // Node 1 is down, so each file's donors are its first two holders past
  // nodes 0 and 1.  Every read from node 4 fails: its disks are gone.
  raw[1]->crash();
  for (std::size_t d = 0; d < raw[4]->num_data_disks(); ++d) {
    raw[4]->mutable_data_disk(d).fail();
  }
  raw[4]->mutable_buffer_disk(0).fail();
  std::vector<trace::FileId> expected;
  std::vector<trace::FileId> failed_second;
  for (const trace::FileId f : stale) {
    std::vector<NodeId> donors;
    for (const NodeId h : others(f, 0)) {
      if (h != 1 && donors.size() < 2) donors.push_back(h);
    }
    if (donors[1] == 4) failed_second.push_back(f);
    if (donors[0] != 4 && donors[1] != 4) expected.push_back(f);
  }
  // Some repair fails on its second donor, after the first was read, and
  // a later file is still rebuilt.
  ASSERT_FALSE(failed_second.empty());
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(failed_second.front(), expected.back());
  recover(0);
  EXPECT_EQ(rebuilt_chunks(), expected);
  EXPECT_EQ(count(registry, "recovery.resynced_files.count"), expected.size());
  EXPECT_EQ(count(registry, "ec.repaired_chunks.count"), expected.size());
}

}  // namespace
}  // namespace eevfs
