// Intra-node striping (paper §VII future-work extension).
#include <gtest/gtest.h>

#include <memory>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "core/storage_node.hpp"
#include "workload/synthetic.hpp"

#include "hint_views.hpp"

namespace eevfs::core {
namespace {

class StripingNodeTest : public ::testing::Test {
 protected:
  StripingNodeTest() : net(sim) {
    node_ep = net.add_endpoint("node", net::mbps_to_bytes_per_sec(1000));
    client_ep = net.add_endpoint("client", net::mbps_to_bytes_per_sec(1000));
  }

  std::unique_ptr<StorageNode> make_node(std::size_t width,
                                         std::size_t disks = 4) {
    NodeParams p;
    p.data_disks = disks;
    p.disk_profile = disk::DiskProfile::ata133_fast();
    p.stripe_width = width;
    p.prebud_gate = false;  // these tests exercise mechanics, not the gate
    auto node = std::make_unique<StorageNode>(sim, net, node_ep, p);
    HintOffsets pattern;
    for (trace::FileId f = 0; f < 4; ++f) {
      node->create_file(f, 40 * kMB);
      pattern[f] = {seconds_to_ticks(100)};
    }
    node->receive_access_pattern(hint_views(pattern), seconds_to_ticks(200));
    node->start_prefetch({}, [] {});
    sim.run();
    return node;
  }

  sim::Simulator sim;
  net::NetworkFabric net;
  net::EndpointId node_ep{}, client_ep{};
};

TEST_F(StripingNodeTest, StripeSetsAreConsecutiveDisks) {
  auto node = make_node(2);
  EXPECT_EQ(node->stripe_disks_of(0), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(node->stripe_disks_of(1), (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(node->stripe_disks_of(3), (std::vector<std::size_t>{3, 0}));
  EXPECT_EQ(node->data_disk_of(3).value(), 3u);  // primary
}

TEST_F(StripingNodeTest, WidthIsClampedToDiskCount) {
  auto node = make_node(99, 2);
  EXPECT_EQ(node->stripe_disks_of(0).size(), 2u);
}

TEST_F(StripingNodeTest, WidthOneMatchesLegacyLayout) {
  auto node = make_node(1);
  for (trace::FileId f = 0; f < 4; ++f) {
    EXPECT_EQ(node->stripe_disks_of(f),
              (std::vector<std::size_t>{f % 4}));
  }
}

TEST_F(StripingNodeTest, StripedReadTouchesAllStripeDisks) {
  auto node = make_node(2);
  node->serve_read(0, client_ep, nullptr);
  sim.run();
  EXPECT_EQ(node->data_disk(0).requests_completed(), 1u);
  EXPECT_EQ(node->data_disk(1).requests_completed(), 1u);
  EXPECT_EQ(node->data_disk(2).requests_completed(), 0u);
  // Each stripe moved half the bytes.
  EXPECT_EQ(node->data_disk(0).bytes_transferred(), 20 * kMB);
}

TEST_F(StripingNodeTest, StripedReadIsFasterThanWholeFile) {
  auto striped = make_node(4);
  auto whole = make_node(1);
  Tick striped_done = 0, whole_done = 0;
  const Tick t0 = sim.now();
  striped->serve_read(
      0, client_ep, [&](Tick t, core::RequestStatus) { striped_done = t - t0; });
  sim.run();
  const Tick t1 = sim.now();
  whole->serve_read(
      0, client_ep, [&](Tick t, core::RequestStatus) { whole_done = t - t1; });
  sim.run();
  EXPECT_LT(striped_done, whole_done);
  // 40 MB over 4 disks: disk phase ~4x faster; the NIC hop is shared.
  EXPECT_LT(striped_done, whole_done * 3 / 4);
}

TEST_F(StripingNodeTest, StripedDirectWriteHitsAllDisks) {
  NodeParams p;
  p.data_disks = 2;
  p.disk_profile = disk::DiskProfile::ata133_fast();
  p.stripe_width = 2;
  p.write_buffering = false;
  StorageNode node(sim, net, node_ep, p);
  node.create_file(0, 10 * kMB);
  node.receive_access_pattern({}, seconds_to_ticks(10));
  node.start_prefetch({}, [] {});
  sim.run();
  node.serve_write(0, 10 * kMB, client_ep, nullptr);
  sim.run();
  EXPECT_EQ(node.data_disk(0).requests_completed(), 1u);
  EXPECT_EQ(node.data_disk(1).requests_completed(), 1u);
}

TEST_F(StripingNodeTest, PrefetchOfStripedFileReadsAllStripes) {
  auto node = make_node(2);
  bool done = false;
  node->start_prefetch({0}, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(node->is_buffered(0));
  // Stripe reads on disks 0 and 1, one buffer write.
  EXPECT_GE(node->data_disk(0).requests_completed(), 1u);
  EXPECT_GE(node->data_disk(1).requests_completed(), 1u);
  EXPECT_EQ(node->buffer_disk(0).bytes_transferred(), 40 * kMB);
}

TEST(StripingCluster, EndToEndTradeoffHolds) {
  workload::SyntheticConfig wcfg;
  wcfg.num_requests = 600;
  wcfg.mean_data_size_mb = 25.0;
  const auto w = workload::generate_synthetic(wcfg);

  ClusterConfig narrow = baseline::eevfs_pf();
  ClusterConfig wide = baseline::eevfs_pf();
  wide.stripe_width = 2;

  RunMetrics m1, m2;
  {
    Cluster c(narrow);
    m1 = c.run(w);
  }
  {
    Cluster c(wide);
    m2 = c.run(w);
  }
  // Striping must still serve everything correctly.
  EXPECT_EQ(m2.requests, w.requests.size());
  EXPECT_EQ(m2.bytes_served, w.requests.total_bytes());
  // The tradeoff: striping cannot *save* energy (every miss touches the
  // whole stripe set), and buffer-miss service gets faster.
  EXPECT_GE(m2.total_joules, m1.total_joules * 0.99);
}

TEST(StripingCluster, InvalidWidthRejected) {
  ClusterConfig cfg = baseline::eevfs_pf();
  cfg.stripe_width = 0;
  EXPECT_THROW(Cluster{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace eevfs::core
