#include "core/storage_server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "registry_count.hpp"
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
      node_eps.push_back(
          net.add_endpoint("node", net::mbps_to_bytes_per_sec(1000)));
    }
    make_nodes(PowerPolicy::kPredictive);
    server = std::make_unique<StorageServer>(
        sim, net, server_ep, PlacementPolicy::kPopularityRoundRobin, 1,
        registry);

    workload::SyntheticConfig cfg;
    cfg.num_files = 40;
    cfg.num_requests = 200;
    cfg.mu = 10.0;
    w = workload::generate_synthetic(cfg);
  }

  /// (Re)builds the four nodes under `policy`.  Only kHints and kOracle
  /// keep the residual timelines past planning, so the tests that read
  /// hints back from them build their nodes under kHints.
  void make_nodes(PowerPolicy policy) {
    nodes.clear();
    raw.clear();
    for (NodeId n = 0; n < node_eps.size(); ++n) {
      NodeParams p;
      p.id = n;
      p.data_disks = 2;
      p.disk_profile = disk::DiskProfile::ata133_fast();
      p.power.policy = policy;
      nodes.push_back(std::make_unique<StorageNode>(sim, net, node_eps[n], p,
                                                    registry));
      raw.push_back(nodes.back().get());
    }
  }

  sim::Simulator sim;
  net::NetworkFabric net;
  obs::Registry registry;
  net::EndpointId server_ep{}, client_ep{};
  std::vector<net::EndpointId> node_eps;
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

  /// Whether node `n` serves reads of `f`: its primary or, under
  /// erasure, one of its first k holders.
  bool serves(NodeId n, trace::FileId f) const {
    const ServerMetadata& table = server->metadata();
    const std::span<const NodeId> serving =
        table.holders(f).first(table.erasure() ? table.ec_k() : 1);
    return std::find(serving.begin(), serving.end(), n) != serving.end();
  }

  /// A materialized trace's hints are exact: every serving holder of a
  /// file gets each of its access offsets, and no other node gets any.
  /// Planning (no prefetch) leaves each node's per-disk timelines in its
  /// prefetch plan, so each must be the sorted arrivals of the requests
  /// for the files it serves off that disk.
  void expect_exact_hints() {
    make_nodes(PowerPolicy::kHints);
    setup();
    for (auto& n : nodes) n->start_prefetch({}, [] {});
    sim.run();

    std::size_t holders_with_hints = 0;
    for (NodeId n = 0; n < nodes.size(); ++n) {
      for (std::size_t d = 0; d < nodes[n]->num_data_disks(); ++d) {
        std::vector<Tick> expected;
        for (const trace::TraceRecord& r : w.requests.records()) {
          if (serves(n, r.file) && nodes[n]->data_disk_of(r.file) == d) {
            expected.push_back(r.arrival);
          }
        }
        EXPECT_EQ(nodes[n]->prefetch_plan().residual_disk_accesses.at(d),
                  expected)
            << "node " << n << " disk " << d;
        if (!expected.empty()) ++holders_with_hints;
      }
    }
    EXPECT_GT(holders_with_hints, 0u);
  }

  /// A stream's hints are counts: a file accessed c times over horizon H
  /// is expected at (2i+1)·H/2c, on its primary or, under erasure, on
  /// each of its first k holders — the nodes that serve its reads.  File
  /// 7 gets three accesses over 60 s; planning (no prefetch) leaves each
  /// node's per-disk timelines in its prefetch plan.
  void expect_count_hints() {
    make_nodes(PowerPolicy::kHints);
    server->register_nodes(raw);
    trace::FilePopularity hot;
    for (const double t : {0.0, 5.0, 9.0}) {
      hot.add({seconds_to_ticks(t), kMB, 7, 0, trace::Op::kRead});
    }
    server->ingest_popularity(trace::PopularityAnalyzer({hot}, 3));
    server->place_and_create(w.file_sizes);
    server->distribute_patterns(seconds_to_ticks(60), nullptr);
    for (auto& n : nodes) n->start_prefetch({}, [] {});
    sim.run();

    const std::vector<Tick> midpoints{seconds_to_ticks(10),
                                      seconds_to_ticks(30),
                                      seconds_to_ticks(50)};
    for (NodeId n = 0; n < nodes.size(); ++n) {
      for (std::size_t d = 0; d < nodes[n]->num_data_disks(); ++d) {
        const std::vector<Tick>& timeline =
            nodes[n]->prefetch_plan().residual_disk_accesses.at(d);
        if (serves(n, 7) && nodes[n]->data_disk_of(7) == d) {
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
  EXPECT_THROW(server->begin_online_refresh(8, seconds_to_ticks(1)),
               std::logic_error);
  server->place_and_create(w.file_sizes);
  server->distribute_patterns(w.requests.duration(), pass());  // now fine
}

TEST_F(StorageServerTest, HintPassMustRepeatTheIngestedCounts) {
  // Four files; the ingested pass reads file 0 twice and file 2 once.
  // An exact hint pass must name only placed files (else out of range)
  // and repeat each accessed file's count: one request short or one
  // over, or a request for a file never ingested, is a miscount.
  trace::Trace ingested;
  for (const trace::FileId f : {0u, 2u, 0u}) {
    ingested.append({ingested.duration() + 1000, kMB, f, 0, trace::Op::kRead});
  }
  server->register_nodes(raw);
  server->ingest_popularity(trace::PopularityAnalyzer(ingested));
  server->place_and_create(std::vector<Bytes>(4, kMB));
  const auto hints = [&](const std::vector<trace::FileId>& files) {
    std::vector<trace::TraceRecord> records;
    for (const trace::FileId f : files) {
      records.push_back({Tick{1000}, kMB, f, 0, trace::Op::kRead});
    }
    server->distribute_patterns(
        ingested.duration(), std::make_unique<workload::SpanStream>(records));
  };
  EXPECT_THROW(hints({0, 2}), std::invalid_argument);
  EXPECT_THROW(hints({0, 0, 2, 2}), std::invalid_argument);
  EXPECT_THROW(hints({0, 1, 0, 2}), std::invalid_argument);
  EXPECT_THROW(hints({0, 0, 4, 2}), std::out_of_range);
  EXPECT_NO_THROW(hints({2, 0, 0}));
}

TEST_F(StorageServerTest, RegisterRejectsEmptyNodeList) {
  EXPECT_THROW(server->register_nodes({}), std::invalid_argument);
}

TEST_F(StorageServerTest, PlacementCreatesEveryFileOnItsNode) {
  setup();
  for (trace::FileId f = 0; f < w.num_files(); ++f) {
    const NodeId n = server->metadata().node(f);
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
      EXPECT_EQ(server->metadata().node(f), n);
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
  EXPECT_EQ(count(registry, "server.requests_routed.count"), 1u);
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
  EXPECT_EQ(count(registry, "server.requests_routed.count"), 1u);
  EXPECT_EQ(count(registry, "server.refreshes.count"), 0u);
  EXPECT_EQ(server->request_log().size(), 1u);
  EXPECT_EQ(server->request_log().accesses(r.file), 1u);
}

// The request log costs nothing until online refresh first arms; then
// it covers every file and keeps its counts across the re-arms.
TEST_F(StorageServerTest, RequestLogIsSizedWhenRefreshFirstArms) {
  start_replay();
  EXPECT_EQ(server->request_log().num_files(), 0u);
  server->begin_online_refresh(8, seconds_to_ticks(10));
  EXPECT_EQ(server->request_log().num_files(), w.num_files());
  const trace::TraceRecord r = w.requests[0];
  server->route(r, client_ep, [](Tick, core::RequestStatus) {});
  (void)sim.schedule_after(seconds_to_ticks(35),
                           [&] { server->stop_online_refresh(); });
  sim.run();
  EXPECT_EQ(count(registry, "server.refreshes.count"), 3u);
  EXPECT_EQ(server->request_log().num_files(), w.num_files());
  EXPECT_EQ(server->request_log().accesses(r.file), 1u);
  EXPECT_EQ(server->request_log().size(), 1u);
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

TEST_F(StorageServerTest, ExactHintsReachThePrimaryUnderReplication) {
  server->set_replication_degree(2);
  expect_exact_hints();
}

TEST_F(StorageServerTest, ExactHintsReachTheFirstKHoldersUnderErasure) {
  StorageServer::ErasureParams ec;
  ec.n = 4;
  ec.k = 2;
  server->set_erasure(ec);
  expect_exact_hints();
}

// (2i+1)·H/2c past 2^63: 2^17 accesses over 2^47 µs puts (2c-1)·H near
// 2^65.  Every modeled offset must still equal the exact quotient.
TEST_F(StorageServerTest, CountHintsStayExactPastTwoToThe63) {
  make_nodes(PowerPolicy::kHints);
  server->register_nodes(raw);
  constexpr std::size_t kAccesses = std::size_t{1} << 17;
  constexpr Tick kHorizon = Tick{1} << 47;
  trace::FilePopularity hot;
  hot.file = 7;
  hot.accesses = kAccesses;
  server->ingest_popularity(trace::PopularityAnalyzer({hot}, kAccesses));
  server->place_and_create(w.file_sizes);
  server->distribute_patterns(kHorizon, nullptr);
  for (auto& n : nodes) n->start_prefetch({}, [] {});
  sim.run();

  const NodeId primary = server->metadata().node(7);
  const std::vector<Tick>& timeline =
      nodes[primary]->prefetch_plan().residual_disk_accesses.at(
          nodes[primary]->data_disk_of(7).value());
  ASSERT_EQ(timeline.size(), kAccesses);
  __extension__ using Wide = unsigned __int128;
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < kAccesses; ++i) {
    const Wide exact = (2 * static_cast<Wide>(i) + 1) *
                       static_cast<Wide>(kHorizon) /
                       (2 * static_cast<Wide>(kAccesses));
    if (static_cast<Wide>(timeline[i]) != exact) ++wrong;
  }
  EXPECT_EQ(wrong, 0u);
  EXPECT_LT(timeline.back(), kHorizon);
}

// Midpoint offsets are exact only up to 2^31 accesses per file.  A count
// past that is refused while the slots are laid out, before the arena
// that would hold its offsets (8 bytes each, 16 GiB here) is allocated.
TEST_F(StorageServerTest, CountHintsPastTwoToThe31AreRefusedBeforeTheArena) {
  server->register_nodes(raw);
  constexpr std::size_t kAccesses = (std::size_t{1} << 31) + 1;
  trace::FilePopularity hot;
  hot.file = 7;
  hot.accesses = kAccesses;
  server->ingest_popularity(trace::PopularityAnalyzer({hot}, kAccesses));
  server->place_and_create(w.file_sizes);
  try {
    server->distribute_patterns(seconds_to_ticks(600), nullptr);
    ADD_FAILURE() << "a count past 2^31 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "over 2^31 modeled accesses to file 7"),
              std::string::npos)
        << e.what();
  }
}

// The arena is sized from the ingested counts, so a hint pass that counts
// a file differently is refused, naming the file, before any slot
// overflows.
TEST_F(StorageServerTest, HintPassThatDisagreesWithPopularityThrows) {
  const std::span<const trace::TraceRecord> all = w.requests.records();
  const trace::FileId last = all.back().file;
  std::vector<trace::TraceRecord> extra(all.begin(), all.end());
  extra.push_back(all.back());
  const auto expect_refused = [&](std::span<const trace::TraceRecord> pass) {
    try {
      server->distribute_patterns(
          w.requests.duration(),
          std::make_unique<workload::SpanStream>(pass));
      ADD_FAILURE() << "a miscounted hint pass was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("file " + std::to_string(last)),
                std::string::npos)
          << e.what();
    }
  };
  server->register_nodes(raw);
  server->ingest_popularity(trace::PopularityAnalyzer(w.requests));
  server->place_and_create(w.file_sizes);
  expect_refused(all.first(all.size() - 1));  // one access short
  expect_refused(extra);                      // one access too many
  server->distribute_patterns(w.requests.duration(), pass());  // agrees
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
  EXPECT_EQ(count(registry, "server.refreshes.count"), 1u);
  const std::span<const NodeId> holders = server->metadata().holders(r.file);
  ASSERT_EQ(holders.size(), 3u);
  EXPECT_TRUE(nodes[holders[0]]->is_buffered(r.file));
  EXPECT_TRUE(nodes[holders[1]]->is_buffered(r.file));
  EXPECT_FALSE(nodes[holders[2]]->is_buffered(r.file));
}

/// The placement rule restated with one list per file and per node, the
/// way per-file tables held it: primaries dealt by policy in creation
/// order (ranked files, then the rest by id), copy j on (primary + j) mod
/// the node count.
struct ReferencePlacement {
  std::vector<NodeId> primary;
  std::vector<std::vector<NodeId>> holders;
  /// Per node, the files it holds in creation order.
  std::vector<std::vector<trace::FileId>> created_on_node;
};

ReferencePlacement reference_placement(PlacementPolicy policy,
                                       std::size_t nodes, std::size_t copies,
                                       const trace::PopularityAnalyzer& pop,
                                       const std::vector<Bytes>& sizes,
                                       Rng rng) {
  std::vector<trace::FileId> order;
  for (const trace::FilePopularity& p : pop.ranked()) order.push_back(p.file);
  for (trace::FileId f = 0; f < sizes.size(); ++f) {
    if (pop.rank(f) == trace::PopularityAnalyzer::npos) order.push_back(f);
  }
  ReferencePlacement ref;
  ref.primary.assign(sizes.size(), 0);
  ref.holders.assign(sizes.size(), {});
  ref.created_on_node.assign(nodes, {});
  for (std::size_t i = 0; i < order.size(); ++i) {
    const trace::FileId f = order[i];
    NodeId n = 0;
    switch (policy) {
      case PlacementPolicy::kPopularityRoundRobin:
        n = i % nodes;
        break;
      case PlacementPolicy::kRandom:
        n = rng.next_below(nodes);
        break;
    }
    ref.primary[f] = n;
    for (std::size_t j = 0; j < copies; ++j) {
      const NodeId h = (n + j) % nodes;
      ref.holders[f].push_back(h);
      ref.created_on_node[h].push_back(f);
    }
  }
  return ref;
}

// The dense tables hold what the per-file ones did.  For every placement
// policy, layout (replication 1-3, erasure (4, 2)), stripe width and
// disk placement, built through place_and_create: the server's
// primaries and holders match the reference rule, its lookup reports the
// primary, the logical size and the erasure parameters through a view of
// the holders, each node's table holds exactly the reference files, and
// the file at position i of the node's reference creation order is on
// the stripe set (first + j) mod data_disks, with `first` following the
// node's disk rule for position i.
TEST(StorageServerTable, EveryLayoutMatchesTheNodeTables) {
  constexpr std::size_t kNodes = 5;
  constexpr std::size_t kDataDisks = 3;
  workload::SyntheticConfig cfg;
  cfg.num_files = 60;
  cfg.num_requests = 300;
  const workload::Workload w = workload::generate_synthetic(cfg);
  struct Layout {
    std::size_t replication, ec_n, ec_k;
  };
  for (const auto policy :
       {PlacementPolicy::kPopularityRoundRobin, PlacementPolicy::kRandom}) {
    for (const Layout layout : {Layout{1, 0, 0}, Layout{2, 0, 0},
                                Layout{3, 0, 0}, Layout{1, 4, 2}}) {
      for (const std::size_t width : {std::size_t{1}, std::size_t{2},
                                      kDataDisks}) {
        for (const auto disk_placement :
             {DiskPlacement::kRoundRobin, DiskPlacement::kConcentrate}) {
          SCOPED_TRACE("policy " + std::to_string(static_cast<int>(policy)) +
                       ", replication " + std::to_string(layout.replication) +
                       ", ec_n " + std::to_string(layout.ec_n) + ", width " +
                       std::to_string(width) + ", disk placement " +
                       std::to_string(static_cast<int>(disk_placement)));
          sim::Simulator sim;
          net::NetworkFabric net(sim);
          obs::Registry registry;
          const auto server_ep =
              net.add_endpoint("server", net::mbps_to_bytes_per_sec(1000));
          std::vector<std::unique_ptr<StorageNode>> nodes;
          std::vector<StorageNode*> raw;
          for (NodeId n = 0; n < kNodes; ++n) {
            NodeParams p;
            p.id = n;
            p.data_disks = kDataDisks;
            p.disk_profile = disk::DiskProfile::ata133_fast();
            p.stripe_width = width;
            p.disk_placement = disk_placement;
            nodes.push_back(std::make_unique<StorageNode>(
                sim, net,
                net.add_endpoint("node", net::mbps_to_bytes_per_sec(1000)),
                p, registry));
            raw.push_back(nodes.back().get());
          }
          StorageServer server(sim, net, server_ep, policy, 1, registry);
          server.set_replication_degree(layout.replication);
          if (layout.ec_n > 0) {
            StorageServer::ErasureParams ec;
            ec.n = layout.ec_n;
            ec.k = layout.ec_k;
            server.set_erasure(ec);
          }
          server.register_nodes(raw);
          server.ingest_popularity(trace::PopularityAnalyzer(w.requests));
          server.place_and_create(w.file_sizes);

          const ServerMetadata& table = server.metadata();
          const std::size_t copies =
              layout.ec_n > 0 ? layout.ec_n : layout.replication;
          // The server draws placement from its seed's 0xC0FFEE stream.
          const ReferencePlacement ref = reference_placement(
              policy, kNodes, copies, trace::PopularityAnalyzer(w.requests),
              w.file_sizes, Rng(1).fork(0xC0FFEE));
          EXPECT_EQ(table.node_of, ref.primary);
          EXPECT_EQ(table.copies(), copies);
          for (trace::FileId f = 0; f < cfg.num_files; ++f) {
            const std::span<const NodeId> holders = table.holders(f);
            EXPECT_EQ(std::vector<NodeId>(holders.begin(), holders.end()),
                      ref.holders[f]);
            const auto e = table.lookup(f);
            ASSERT_TRUE(e.has_value());
            EXPECT_EQ(e->node, ref.primary[f]);
            EXPECT_EQ(e->size, w.file_sizes[f]);
            EXPECT_EQ(e->erasure, layout.ec_n > 0);
            EXPECT_EQ(e->ec_k, layout.ec_k);
            EXPECT_EQ(e->holders.data(), holders.data());  // a view, no copy
            for (NodeId n = 0; n < kNodes; ++n) {
              const bool holds = std::find(holders.begin(), holders.end(),
                                           n) != holders.end();
              EXPECT_EQ(nodes[n]->data_disk_of(f).has_value(), holds);
            }
          }
          for (NodeId n = 0; n < kNodes; ++n) {
            const std::vector<trace::FileId>& created =
                ref.created_on_node[n];
            std::vector<trace::FileId> held;
            for (const LocalFileMeta& meta : nodes[n]->metadata()) {
              held.push_back(meta.file);
            }
            std::vector<trace::FileId> expected = created;
            std::sort(expected.begin(), expected.end());
            EXPECT_EQ(held, expected);
            for (std::size_t i = 0; i < created.size(); ++i) {
              const std::size_t first =
                  disk_placement == DiskPlacement::kRoundRobin
                      ? i % kDataDisks
                      : std::min(i * kDataDisks / created.size(),
                                 kDataDisks - 1);
              std::vector<std::size_t> stripe;
              for (std::size_t j = 0; j < width; ++j) {
                stripe.push_back((first + j) % kDataDisks);
              }
              EXPECT_EQ(nodes[n]->stripe_disks_of(created[i]), stripe);
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace eevfs::core
