#include "core/storage_server.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "workload/synthetic.hpp"

namespace eevfs::core {
namespace {

class StorageServerTest : public ::testing::Test {
 protected:
  StorageServerTest() : net(sim) {
    server_ep = net.add_endpoint("server", net::mbps_to_bytes_per_sec(1000));
    client_ep = net.add_endpoint("client", net::mbps_to_bytes_per_sec(1000));
    for (NodeId n = 0; n < 4; ++n) {
      const auto ep = net.add_endpoint("node",
                                       net::mbps_to_bytes_per_sec(1000));
      NodeParams p;
      p.id = n;
      p.data_disks = 2;
      p.buffer_disks = 1;
      p.disk_profile = disk::DiskProfile::ata133_fast();
      nodes.push_back(std::make_unique<StorageNode>(sim, net, ep, p));
      raw.push_back(nodes.back().get());
    }
    server = std::make_unique<StorageServer>(
        sim, net, server_ep, PlacementPolicy::kPopularityRoundRobin, 1);

    workload::SyntheticConfig cfg;
    cfg.num_files = 40;
    cfg.num_requests = 200;
    cfg.mu = 10.0;
    w = workload::generate_synthetic(cfg);
  }

  sim::Simulator sim;
  net::NetworkFabric net;
  net::EndpointId server_ep{}, client_ep{};
  std::vector<std::unique_ptr<StorageNode>> nodes;
  std::vector<StorageNode*> raw;
  std::unique_ptr<StorageServer> server;
  workload::Workload w;

  /// Runs steps 1-4 and the (empty) prefetch, then starts replay.
  void start_replay() {
    server->register_nodes(raw);
    server->ingest_history(w);
    server->place_and_create(w);
    server->distribute_patterns(w);
    for (auto& n : nodes) {
      n->start_prefetch({}, [] {});
    }
    sim.run();
    for (auto& n : nodes) n->begin_replay(sim.now());
  }
};

TEST_F(StorageServerTest, LifecycleOrderIsEnforced) {
  EXPECT_THROW(server->place_and_create(w), std::logic_error);
  EXPECT_THROW(server->prefetch_candidates(10), std::logic_error);
  server->register_nodes(raw);
  EXPECT_THROW(server->place_and_create(w), std::logic_error);  // no history
  server->ingest_history(w);
  EXPECT_THROW(server->distribute_patterns(w), std::logic_error);
  server->place_and_create(w);
  server->distribute_patterns(w);  // now fine
}

TEST_F(StorageServerTest, RegisterRejectsEmptyNodeList) {
  EXPECT_THROW(server->register_nodes({}), std::invalid_argument);
}

TEST_F(StorageServerTest, PlacementCreatesEveryFileOnItsNode) {
  server->register_nodes(raw);
  server->ingest_history(w);
  server->place_and_create(w);
  for (trace::FileId f = 0; f < w.num_files(); ++f) {
    const NodeId n = server->placement().node(f);
    EXPECT_TRUE(nodes[n]->data_disk_of(f).has_value());
    for (NodeId other = 0; other < nodes.size(); ++other) {
      if (other != n) {
        EXPECT_FALSE(nodes[other]->data_disk_of(f).has_value());
      }
    }
  }
}

TEST_F(StorageServerTest, PrefetchCandidatesAreNodeSlicesOfGlobalTopK) {
  server->register_nodes(raw);
  server->ingest_history(w);
  server->place_and_create(w);
  const auto per_node = server->prefetch_candidates(8);
  const trace::PopularityAnalyzer analyzer(w.requests);
  const auto top = analyzer.top(8);
  std::size_t total = 0;
  for (NodeId n = 0; n < per_node.size(); ++n) {
    total += per_node[n].size();
    for (const trace::FileId f : per_node[n]) {
      EXPECT_EQ(server->placement().node(f), n);
      EXPECT_NE(std::find(top.begin(), top.end(), f), top.end());
    }
  }
  EXPECT_EQ(total, top.size());
  // Popularity round-robin deals the top-k evenly: with 4 nodes and k=8,
  // every node gets exactly 2 candidates.
  for (const auto& slice : per_node) EXPECT_EQ(slice.size(), 2u);
}

TEST_F(StorageServerTest, OfflineRouteLeavesRequestLogEmpty) {
  start_replay();
  Tick done = -1;
  const trace::TraceRecord r = w.requests[0];
  server->route(r, client_ep,
                [&](Tick t, core::RequestStatus) { done = t; });
  sim.run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(server->requests_routed(), 1u);
  // Only online refresh reads the log, so offline routing counts nothing.
  EXPECT_EQ(server->request_log().size(), 0u);
  EXPECT_EQ(server->request_log().accesses(r.file), 0u);
}

TEST_F(StorageServerTest, RouteForwardsAndLogsRequests) {
  start_replay();
  server->begin_online_refresh(8, seconds_to_ticks(3600));
  Tick done = -1;
  const trace::TraceRecord r = w.requests[0];
  server->route(r, client_ep, [&](Tick t, core::RequestStatus) {
    done = t;
    server->stop_online_refresh();
  });
  sim.run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(server->requests_routed(), 1u);
  EXPECT_EQ(server->refreshes_performed(), 0u);
  EXPECT_EQ(server->request_log().size(), 1u);
  EXPECT_EQ(server->request_log().accesses(r.file), 1u);
}

TEST_F(StorageServerTest, PopularityAccessorReflectsHistory) {
  EXPECT_EQ(server->popularity(), nullptr);
  server->register_nodes(raw);
  server->ingest_history(w);
  ASSERT_NE(server->popularity(), nullptr);
  EXPECT_EQ(server->popularity()->ranked().size(), w.requests.unique_files());
}

}  // namespace
}  // namespace eevfs::core
