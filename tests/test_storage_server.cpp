#include "core/storage_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>

#include "workload/stream.hpp"
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

  /// A fresh pass over the workload's requests.
  std::unique_ptr<workload::RequestStream> pass() const {
    return std::make_unique<workload::SpanStream>(w.requests.records());
  }

  /// Steps 1-4: popularity from the trace, placement, exact hints.
  void setup() {
    server->register_nodes(raw);
    server->ingest_popularity(trace::PopularityAnalyzer(w.requests));
    server->place_and_create(w.file_sizes);
    server->distribute_patterns(w.requests.duration(), pass());
  }

  /// Runs the (empty) prefetch, then starts replay.
  void begin_replay() {
    for (auto& n : nodes) {
      n->start_prefetch({}, [] {});
    }
    sim.run();
    for (auto& n : nodes) n->begin_replay(sim.now());
  }

  void start_replay() {
    setup();
    begin_replay();
  }

  /// A stream's hints are counts: a file accessed c times over horizon H
  /// is expected at (2i+1)·H/2c, on its primary or, under erasure, on
  /// each of its first k holders — the nodes that serve its reads.  File
  /// 7 gets three accesses over 60 s; planning (no prefetch) leaves each
  /// node's per-disk timelines in its prefetch plan.
  void expect_count_hints() {
    server->register_nodes(raw);
    trace::FilePopularity hot;
    for (const double t : {0.0, 5.0, 9.0}) {
      hot.add({seconds_to_ticks(t), 7, kMB, trace::Op::kRead, 0});
    }
    server->ingest_popularity(trace::PopularityAnalyzer({hot}, 3));
    server->place_and_create(w.file_sizes);
    server->distribute_patterns(seconds_to_ticks(60), nullptr);
    for (auto& n : nodes) n->start_prefetch({}, [] {});
    sim.run();

    const std::vector<NodeId>& holders = server->placement().replicas(7);
    const auto serving = static_cast<std::ptrdiff_t>(
        server->erasure_enabled() ? server->ec_k() : 1);
    const std::vector<Tick> midpoints{seconds_to_ticks(10),
                                      seconds_to_ticks(30),
                                      seconds_to_ticks(50)};
    for (NodeId n = 0; n < nodes.size(); ++n) {
      const bool serves =
          std::find(holders.begin(), holders.begin() + serving, n) !=
          holders.begin() + serving;
      for (std::size_t d = 0; d < nodes[n]->num_data_disks(); ++d) {
        const std::vector<Tick>& timeline =
            nodes[n]->prefetch_plan().residual_disk_accesses[d];
        if (serves && nodes[n]->data_disk_of(7) == d) {
          EXPECT_EQ(timeline, midpoints) << "node " << n;
        } else {
          EXPECT_TRUE(timeline.empty()) << "node " << n << " disk " << d;
        }
      }
    }
  }
};

TEST_F(StorageServerTest, LifecycleOrderIsEnforced) {
  EXPECT_THROW(server->place_and_create(w.file_sizes), std::logic_error);
  EXPECT_THROW(server->prefetch_candidates(10), std::logic_error);
  server->register_nodes(raw);
  // No popularity yet.
  EXPECT_THROW(server->place_and_create(w.file_sizes), std::logic_error);
  server->ingest_popularity(trace::PopularityAnalyzer(w.requests));
  EXPECT_THROW(server->distribute_patterns(w.requests.duration(), pass()),
               std::logic_error);
  server->place_and_create(w.file_sizes);
  server->distribute_patterns(w.requests.duration(), pass());  // now fine
}

TEST_F(StorageServerTest, RegisterRejectsEmptyNodeList) {
  EXPECT_THROW(server->register_nodes({}), std::invalid_argument);
}

TEST_F(StorageServerTest, PlacementCreatesEveryFileOnItsNode) {
  setup();
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
  setup();
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
  server->ingest_popularity(trace::PopularityAnalyzer(w.requests));
  ASSERT_NE(server->popularity(), nullptr);
  EXPECT_EQ(server->popularity()->ranked().size(), w.requests.unique_files());
}

TEST_F(StorageServerTest, CountHintsGiveThePrimaryMidpointOffsets) {
  expect_count_hints();
}

TEST_F(StorageServerTest, CountHintsGiveTheFirstKHoldersMidpointOffsets) {
  StorageServer::ErasureParams ec;
  ec.n = 3;
  ec.k = 2;
  server->set_erasure(ec);
  expect_count_hints();
}

// Online refresh deals a hot erasure-coded file to every data-chunk
// holder, as the offline prefetch does; the parity holder stays cold.
TEST_F(StorageServerTest, OnlineRefreshBuffersEveryDataChunkHolder) {
  StorageServer::ErasureParams ec;
  ec.n = 3;
  ec.k = 2;
  server->set_erasure(ec);
  server->register_nodes(raw);
  // Online mode: nothing is known about the access pattern up front.
  server->ingest_popularity(trace::PopularityAnalyzer({}, 0));
  server->place_and_create(w.file_sizes);
  server->distribute_patterns(0, nullptr);
  begin_replay();

  server->begin_online_refresh(1, seconds_to_ticks(10));
  const trace::TraceRecord r = w.requests[0];
  ASSERT_EQ(r.op, trace::Op::kRead);
  Tick done = -1;
  server->route(r, client_ep, [&](Tick t, core::RequestStatus) { done = t; });
  (void)sim.schedule_after(seconds_to_ticks(15),
                           [&] { server->stop_online_refresh(); });
  sim.run();
  EXPECT_GT(done, 0);
  EXPECT_EQ(server->refreshes_performed(), 1u);
  const std::vector<NodeId>& holders = server->placement().replicas(r.file);
  ASSERT_EQ(holders.size(), 3u);
  EXPECT_TRUE(nodes[holders[0]]->is_buffered(r.file));
  EXPECT_TRUE(nodes[holders[1]]->is_buffered(r.file));
  EXPECT_FALSE(nodes[holders[2]]->is_buffered(r.file));
}

}  // namespace
}  // namespace eevfs::core
