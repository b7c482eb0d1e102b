#include "core/storage_node.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hint_views.hpp"
#include "registry_count.hpp"

namespace eevfs::core {
namespace {

class StorageNodeTest : public ::testing::Test {
 protected:
  StorageNodeTest() : net(sim) {
    node_ep = net.add_endpoint("node", net::mbps_to_bytes_per_sec(1000));
    client_ep = net.add_endpoint("client", net::mbps_to_bytes_per_sec(1000));
  }

  NodeParams params() {
    NodeParams p;
    p.id = 0;
    p.data_disks = 2;
    p.disk_profile = disk::DiskProfile::ata133_fast();
    p.power.policy = PowerPolicy::kPredictive;
    return p;
  }

  std::unique_ptr<StorageNode> make_node(NodeParams p) {
    return std::make_unique<StorageNode>(sim, net, node_ep, p, registry);
  }

  /// Registers `n` equally sized files and a pattern where file 0 is
  /// accessed every second (hot) and the rest once each at the end.
  void setup_files(StorageNode& node, std::size_t n, Bytes size,
                   Tick horizon) {
    for (trace::FileId f = 0; f < n; ++f) {
      node.create_file(f, size);
      if (f == 0) {
        for (Tick t = 0; t < horizon; t += seconds_to_ticks(1)) {
          pattern[f].push_back(t);
        }
      } else {
        pattern[f].push_back(horizon - seconds_to_ticks(1));
      }
    }
    node.receive_access_pattern(hint_views(pattern), horizon);
  }

  /// The offsets setup_files hints; the node reads them until it plans.
  HintOffsets pattern;
  sim::Simulator sim;
  net::NetworkFabric net;
  obs::Registry registry;
  net::EndpointId node_ep{}, client_ep{};
};

TEST_F(StorageNodeTest, RoundRobinDiskAssignment) {
  auto node = make_node(params());
  for (trace::FileId f = 0; f < 6; ++f) node->create_file(f, kMB);
  EXPECT_EQ(node->data_disk_of(0).value(), 0u);
  EXPECT_EQ(node->data_disk_of(1).value(), 1u);
  EXPECT_EQ(node->data_disk_of(2).value(), 0u);
  EXPECT_EQ(node->data_disk_of(5).value(), 1u);
  EXPECT_FALSE(node->data_disk_of(99).has_value());
}

TEST_F(StorageNodeTest, ConcentratePlacementBandsByPopularityOrder) {
  auto p = params();
  p.disk_placement = DiskPlacement::kConcentrate;
  p.data_disks = 2;
  auto node = make_node(p);
  node->expect_files(6);
  for (trace::FileId f = 0; f < 6; ++f) node->create_file(f, kMB);
  // First half (hottest) on disk 0, second half on disk 1.
  EXPECT_EQ(node->data_disk_of(0).value(), 0u);
  EXPECT_EQ(node->data_disk_of(2).value(), 0u);
  EXPECT_EQ(node->data_disk_of(3).value(), 1u);
  EXPECT_EQ(node->data_disk_of(5).value(), 1u);
}

TEST_F(StorageNodeTest, ConcentrateWithoutExpectationThrows) {
  auto p = params();
  p.disk_placement = DiskPlacement::kConcentrate;
  auto node = make_node(p);
  EXPECT_THROW(node->create_file(0, kMB), std::logic_error);
}

TEST_F(StorageNodeTest, DuplicateCreateThrows) {
  auto node = make_node(params());
  node->create_file(0, kMB);
  EXPECT_THROW(node->create_file(0, kMB), std::invalid_argument);
}

// The file table is built by appending and one sort, never by a sorted
// insert per file, and a lookup is a binary search.  On a 4-vCPU Intel
// Xeon host, 128,000 creates in scrambled order and a lookup of each take
// 0.04 s in a Release build and 0.1 s under ASan; with a sorted insert
// per create they take 4 s, and with a linear-scan lookup 11 s.
TEST_F(StorageNodeTest, ManyFilesCreateAndFindQuickly) {
  constexpr trace::FileId kFiles = 128'000;
  auto node = make_node(params());
  // Wall time is what this test measures.
  const auto start = std::chrono::steady_clock::now();  // eevfs-lint: allow(D1)
  for (trace::FileId i = 0; i < kFiles; ++i) {
    node->create_file((i * 7'919u) % kFiles, kMB);  // 7,919 is prime
  }
  ASSERT_EQ(node->metadata().files(), kFiles);
  for (trace::FileId f = 0; f < kFiles; ++f) {
    ASSERT_TRUE(node->data_disk_of(f).has_value()) << "file " << f;
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;  // eevfs-lint: allow(D1)
  EXPECT_LT(elapsed.count(), 2.0);
  // Creation order, not id order, drives the disk round-robin.
  EXPECT_EQ(node->data_disk_of(7'919).value(), 1u);
  EXPECT_FALSE(node->data_disk_of(kFiles).has_value());
}

TEST_F(StorageNodeTest, PrefetchCopiesAndMarksBuffered) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
  bool done = false;
  node->start_prefetch({0}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(node->is_buffered(0));
  EXPECT_FALSE(node->is_buffered(1));
  EXPECT_EQ(node->prefetch_plan().accepted.size(), 1u);
  // The copy did one data-disk read and one buffer-disk write.
  EXPECT_EQ(node->data_disk(0).requests_completed(), 1u);
  EXPECT_EQ(node->buffer_disk().requests_completed(), 1u);
  EXPECT_EQ(node->buffer_disk().bytes_transferred(), 10 * kMB);
}

TEST_F(StorageNodeTest, EmptyPrefetchStillCompletesAndSetsExpectations) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
  bool done = false;
  node->start_prefetch({}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  // Disk 0 holds the hot file (1 s gaps): predicted gap must be small.
  const auto gap = node->power_manager().predicted_gap(0);
  ASSERT_TRUE(gap.has_value());
  EXPECT_LT(*gap, seconds_to_ticks(3));
}

TEST_F(StorageNodeTest, PrefetchCandidateNotOnNodeThrows) {
  auto node = make_node(params());
  setup_files(*node, 2, kMB, seconds_to_ticks(10));
  EXPECT_THROW(node->start_prefetch({42}, [] {}), std::invalid_argument);
}

// The file table stores the first stripe disk in 16 bits.
TEST_F(StorageNodeTest, RejectsMoreDisksThanTheFileTableIndexes) {
  NodeParams p = params();
  p.data_disks = NodeMetadata::kMaxDisks + 1;
  EXPECT_THROW(make_node(p), std::invalid_argument);
}

TEST_F(StorageNodeTest, BeginReplayBeforePrefetchThrows) {
  auto node = make_node(params());
  EXPECT_THROW(node->begin_replay(0), std::logic_error);
}

TEST_F(StorageNodeTest, ServeReadHitUsesBufferDiskOnly) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({0}, [] {});
  sim.run();
  const auto data_reads_before = node->data_disk(0).requests_completed();
  Tick delivered = -1;
  node->serve_read(0, client_ep,
                   [&](Tick t, core::RequestStatus) { delivered = t; });
  sim.run();
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(node->data_disk(0).requests_completed(), data_reads_before);
  EXPECT_EQ(node->buffer_disk().requests_completed(), 2u);  // copy + hit
}

TEST_F(StorageNodeTest, ServeReadMissUsesDataDisk) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({}, [] {});
  sim.run();
  Tick delivered = -1;
  node->serve_read(1, client_ep,
                   [&](Tick t, core::RequestStatus) { delivered = t; });
  sim.run();
  // File 1 lives on data disk 1.
  EXPECT_EQ(node->data_disk(1).requests_completed(), 1u);
  EXPECT_GE(delivered,
            node->data_disk(1).profile().service_time(10 * kMB, false));
}

TEST_F(StorageNodeTest, ServeReadUnknownFileThrows) {
  auto node = make_node(params());
  EXPECT_THROW(node->serve_read(7, client_ep, nullptr), std::logic_error);
}

TEST_F(StorageNodeTest, OnDemandWakeIsCounted) {
  auto node = make_node(params());
  setup_files(*node, 2, kMB, seconds_to_ticks(600));
  node->start_prefetch({}, [] {});
  sim.run();
  // Force disk 0 down, then read from it.
  while (node->data_disk(0).state() != disk::PowerState::kStandby) {
    const_cast<disk::DiskModel&>(node->data_disk(0)).request_spin_down();
    sim.run();
  }
  EXPECT_EQ(count(registry, "power.wakeups_on_demand.count"), 0u);
  node->serve_read(0, client_ep, nullptr);
  sim.run();
  EXPECT_EQ(count(registry, "power.wakeups_on_demand.count"), 1u);
}

TEST_F(StorageNodeTest, MaidCopiesOnMissAndHitsAfterwards) {
  auto p = params();
  p.cache_policy = CachePolicy::kLruOnMiss;
  auto node = make_node(p);
  setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({}, [] {});
  sim.run();
  node->serve_read(2, client_ep, nullptr);  // miss -> copy in background
  sim.run();
  EXPECT_TRUE(node->is_buffered(2));
  const auto before = node->data_disk(0).requests_completed();
  node->serve_read(2, client_ep, nullptr);  // now a hit
  sim.run();
  EXPECT_EQ(node->data_disk(0).requests_completed(), before);
}

TEST_F(StorageNodeTest, MaidCopyEvictedWhileInFlightIsNotBuffered) {
  // A 15 MB buffer disk holds one of two 10 MB files.  Both are read in
  // the same tick, so file 1's insert evicts file 0 while file 0's copy
  // is still being written: that copy lands for an entry the buffer
  // index no longer holds.
  auto p = params();
  p.cache_policy = CachePolicy::kLruOnMiss;
  p.disk_profile.capacity = 15 * kMB;
  auto node = make_node(p);
  setup_files(*node, 2, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({}, [] {});
  sim.run();
  node->serve_read(0, client_ep, nullptr);
  node->serve_read(1, client_ep, nullptr);
  sim.run();
  EXPECT_EQ(node->buffer_disk().requests_completed(), 2u);  // both copies
  EXPECT_FALSE(node->is_buffered(0));
  EXPECT_TRUE(node->is_buffered(1));
  // The re-read misses the buffer disk and writes a third copy, which
  // evicts file 1's.
  node->serve_read(0, client_ep, nullptr);
  sim.run();
  EXPECT_EQ(node->buffer_disk().requests_completed(), 3u);
  EXPECT_TRUE(node->is_buffered(0));
  EXPECT_FALSE(node->is_buffered(1));
}

TEST_F(StorageNodeTest, WriteGoesToBufferLogAndDestagesOnRead) {
  auto node = make_node(params());
  setup_files(*node, 2, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({}, [] {});
  sim.run();
  Tick acked = -1;
  node->serve_write(0, 10 * kMB, client_ep,
                    [&](Tick t, core::RequestStatus) { acked = t; });
  // Ack must not wait for the data disk: only the buffer-disk log write.
  sim.run();
  EXPECT_GT(acked, 0);
  EXPECT_LT(acked, seconds_to_ticks(1));
  // A read on the same disk destages the pending write.
  node->serve_read(0, client_ep, nullptr);
  sim.run();
  EXPECT_FALSE(node->has_pending_writes());
  // Data disk saw the read plus the destaged write.
  EXPECT_EQ(node->data_disk(0).requests_completed(), 2u);
}

TEST_F(StorageNodeTest, WriteFallsThroughWhenBufferingDisabled) {
  auto p = params();
  p.write_buffering = false;
  auto node = make_node(p);
  setup_files(*node, 2, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({}, [] {});
  sim.run();
  node->serve_write(0, 10 * kMB, client_ep, nullptr);
  sim.run();
  EXPECT_EQ(node->data_disk(0).requests_completed(), 1u);
  EXPECT_FALSE(node->has_pending_writes());
}

TEST_F(StorageNodeTest, WritesToSleepingDisksStayPendingUntilFlushed) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({}, [] {});
  sim.run();
  // Put both data disks into standby: a buffered write must NOT wake them.
  for (std::size_t d = 0; d < node->num_data_disks(); ++d) {
    const_cast<disk::DiskModel&>(node->data_disk(d)).request_spin_down();
  }
  sim.run();
  ASSERT_EQ(node->data_disk(0).state(), disk::PowerState::kStandby);
  node->serve_write(0, 10 * kMB, client_ep, nullptr);
  node->serve_write(1, 10 * kMB, client_ep, nullptr);
  sim.run();
  ASSERT_TRUE(node->has_pending_writes());
  EXPECT_EQ(node->data_disk(0).state(), disk::PowerState::kStandby);
  EXPECT_EQ(count(registry, "power.wakeups_on_demand.count"), 0u);

  bool flushed = false;
  node->flush_pending_writes([&] { flushed = true; });
  sim.run();
  EXPECT_TRUE(flushed);
  EXPECT_FALSE(node->has_pending_writes());
  EXPECT_EQ(node->data_disk(0).requests_completed(), 1u);
  EXPECT_EQ(node->data_disk(1).requests_completed(), 1u);
}

TEST_F(StorageNodeTest, WriteBookedDuringTheDrainIsForcedToItsSleepingDisk) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({}, [] {});
  sim.run();
  for (std::size_t d = 0; d < node->num_data_disks(); ++d) {
    node->mutable_data_disk(d).request_spin_down();
  }
  sim.run();
  ASSERT_EQ(node->data_disk(1).state(), disk::PowerState::kStandby);
  node->serve_write(0, 10 * kMB, client_ep, nullptr);
  sim.run();
  ASSERT_TRUE(node->has_pending_writes());
  // File 1 lives on disk 1.  Its log write is still in flight when the
  // drain registers its waiter, so it books onto the queue of a disk
  // that nothing else will wake.
  node->serve_write(1, 10 * kMB, client_ep, nullptr);
  bool flushed = false;
  node->flush_pending_writes([&] { flushed = true; });
  sim.run();
  EXPECT_TRUE(flushed);
  EXPECT_FALSE(node->has_pending_writes());
  EXPECT_EQ(node->data_disk(1).requests_completed(), 1u);
}

// The prefetcher and the RAM weights binary-search the hints by file.
TEST_F(StorageNodeTest, AccessPatternMustAscendByFile) {
  auto node = make_node(params());
  const HintOffsets hints{{1, {seconds_to_ticks(1)}},
                          {2, {seconds_to_ticks(2)}}};
  std::vector<FileHints> views = hint_views(hints);
  std::swap(views[0], views[1]);
  EXPECT_THROW(node->receive_access_pattern(views, seconds_to_ticks(10)),
               std::invalid_argument);
  views[1].file = 2;  // a file hinted twice
  EXPECT_THROW(node->receive_access_pattern(views, seconds_to_ticks(10)),
               std::invalid_argument);
}

// Only the hint-reading power policies keep the residual timelines past
// planning; the others keep each disk's expected gap and free them.
TEST_F(StorageNodeTest, ResidualTimelinesOutlivePlanningOnlyUnderHints) {
  for (const PowerPolicy policy :
       {PowerPolicy::kPredictive, PowerPolicy::kHints}) {
    NodeParams p = params();
    p.power.policy = policy;
    auto node = make_node(p);
    setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
    node->start_prefetch({}, [] {});
    sim.run();
    const auto& residual = node->prefetch_plan().residual_disk_accesses;
    if (policy == PowerPolicy::kHints) {
      ASSERT_EQ(residual.size(), 2u);
      // Disk 0 holds files 0 and 2: 600 hot accesses and one cold.
      EXPECT_EQ(residual[0].size(), 601u);
      EXPECT_EQ(residual[1].size(), 2u);
    } else {
      EXPECT_TRUE(residual.empty()) << to_string(policy);
    }
    node->begin_replay(sim.now());
    EXPECT_TRUE(node->prefetch_plan().residual_disk_accesses.empty());
    node->shutdown();
    sim.run();  // nothing of this node may outlive it
    pattern.clear();
  }
}

TEST_F(StorageNodeTest, PopularityRamTierWeighsFilesByHintCount) {
  NodeParams p = params();
  p.ram_cache_bytes = 10 * kMB;  // room for one file
  p.ram_cache_policy = RamCachePolicy::kPopularity;
  auto node = make_node(p);
  const trace::FileId once = 0;
  const trace::FileId thrice = 1;
  node->create_file(once, 10 * kMB);
  node->create_file(thrice, 10 * kMB);
  const Tick horizon = seconds_to_ticks(600);
  const HintOffsets hints{
      {once, {seconds_to_ticks(100)}},
      {thrice,
       {seconds_to_ticks(100), seconds_to_ticks(200), seconds_to_ticks(300)}}};
  node->receive_access_pattern(hint_views(hints), horizon);
  node->start_prefetch({}, [] {});
  sim.run();
  node->begin_replay(sim.now());
  const RamCache& ram = *node->ram_cache();

  node->serve_read(once, client_ep, nullptr);
  sim.run();
  EXPECT_TRUE(ram.contains(once));
  // The file hinted three times displaces the one hinted once...
  node->serve_read(thrice, client_ep, nullptr);
  sim.run();
  EXPECT_TRUE(ram.contains(thrice));
  EXPECT_FALSE(ram.contains(once));
  // ...and not the reverse.
  node->serve_read(once, client_ep, nullptr);
  sim.run();
  EXPECT_TRUE(ram.contains(thrice));
  EXPECT_FALSE(ram.contains(once));
}

TEST_F(StorageNodeTest, MetricsAddUp) {
  auto node = make_node(params());
  setup_files(*node, 4, 10 * kMB, seconds_to_ticks(600));
  node->start_prefetch({0}, [] {});
  sim.run();
  node->serve_read(0, client_ep, nullptr);  // hit
  node->serve_read(1, client_ep, nullptr);  // miss
  sim.run();
  NodeMetrics m = node->collect_metrics();
  EXPECT_EQ(count(registry, "prefetch.buffer_hits.count"), 1u);
  EXPECT_EQ(count(registry, "prefetch.data_disk_reads.count"), 1u);
  EXPECT_EQ(count(registry, "node.bytes_served.bytes"), 20 * kMB);
  EXPECT_EQ(count(registry, "prefetch.bytes_prefetched.bytes"), 10 * kMB);
  EXPECT_GT(m.disk_joules, 0.0);
  EXPECT_DOUBLE_EQ(m.base_joules,
                   energy(params().base_watts, sim.now()));
  // Meter covers the whole timeline on every disk.
  EXPECT_EQ(m.data_disk_meter.total_ticks(), 2 * sim.now());
  EXPECT_EQ(m.buffer_disk_meter.total_ticks(), sim.now());
}

}  // namespace
}  // namespace eevfs::core
