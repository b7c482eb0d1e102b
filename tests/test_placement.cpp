#include "core/placement.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "core/storage_node.hpp"
#include "core/storage_server.hpp"
#include "disk/disk_profile.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "sim/engine.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::core {
namespace {

/// Storage nodes whose files a StorageServer placed and created
/// (place_and_create), for tests that read the creation order back off
/// the node tables.  Each node has more data disks than any test puts
/// files on it, so round-robin gives its i-th created file data disk i.
class PlacedCell {
 public:
  static constexpr std::size_t kDataDisks = 16;

  PlacedCell(PlacementPolicy policy, std::size_t num_nodes,
             const trace::PopularityAnalyzer& pop,
             const std::vector<Bytes>& sizes)
      : server_(sim_, net_,
                net_.add_endpoint("server", net::mbps_to_bytes_per_sec(1000)),
                policy, 1, registry_) {
    std::vector<StorageNode*> raw;
    for (NodeId n = 0; n < num_nodes; ++n) {
      NodeParams p;
      p.id = n;
      p.data_disks = kDataDisks;
      p.disk_profile = disk::DiskProfile::ata133_fast();
      nodes_.push_back(std::make_unique<StorageNode>(
          sim_, net_,
          net_.add_endpoint("node", net::mbps_to_bytes_per_sec(1000)), p,
          registry_));
      raw.push_back(nodes_.back().get());
    }
    server_.register_nodes(std::move(raw));
    server_.ingest_popularity(pop);
    server_.place_and_create(sizes);
  }

  const ServerMetadata& table() const { return server_.metadata(); }
  const NodeMetadata& node_table(NodeId n) const {
    return nodes_.at(n)->metadata();
  }

  /// Node `n`'s files in creation order: the file on data disk i was
  /// created i-th.  Fails the test unless the first disks are exactly
  /// 0, 1, ..., files - 1.
  std::vector<trace::FileId> created(NodeId n) const {
    const NodeMetadata& files = node_table(n);
    std::vector<trace::FileId> order(files.files(), trace::kInvalidFile);
    for (const LocalFileMeta& meta : files) {
      if (meta.first_disk >= order.size() ||
          order[meta.first_disk] != trace::kInvalidFile) {
        ADD_FAILURE() << "node " << n << ": file " << meta.file
                      << " on data disk " << meta.first_disk;
        continue;
      }
      order[meta.first_disk] = meta.file;
    }
    return order;
  }

 private:
  sim::Simulator sim_;
  net::NetworkFabric net_{sim_};
  obs::Registry registry_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  StorageServer server_;
};

trace::Trace skewed_trace() {
  // File 9 gets 4 accesses, file 4 gets 3, file 1 gets 2, file 6 gets 1.
  trace::Trace t;
  Tick at = 0;
  const auto add = [&](trace::FileId f, int n) {
    for (int i = 0; i < n; ++i) {
      t.append({at, kMB, f, 0, trace::Op::kRead});
      at += 1000;
    }
  };
  add(9, 4);
  add(4, 3);
  add(1, 2);
  add(6, 1);
  return t;
}

TEST(Placement, PopularityRoundRobinFollowsRank) {
  const trace::Trace t = skewed_trace();
  const trace::PopularityAnalyzer pop(t);
  const std::vector<Bytes> sizes(10, kMB);
  Rng rng(1);
  const PlacementMap map = place_files(
      PlacementPolicy::kPopularityRoundRobin, 3, 10, pop, sizes, rng);

  // Rank order: 9, 4, 1, 6, then unaccessed 0,2,3,5,7,8.
  EXPECT_EQ(map.node(9), 0u);
  EXPECT_EQ(map.node(4), 1u);
  EXPECT_EQ(map.node(1), 2u);
  EXPECT_EQ(map.node(6), 0u);
  EXPECT_EQ(map.node(0), 1u);
  EXPECT_EQ(map.node(2), 2u);

  // Creation order on node 0 starts with its most popular file: node 0
  // deals positions 0, 3, 6 and 9 of the creation order.
  const PlacedCell cell(PlacementPolicy::kPopularityRoundRobin, 3, pop, sizes);
  EXPECT_EQ(cell.created(0), (std::vector<trace::FileId>{9, 6, 3, 8}));
  EXPECT_EQ(cell.created(1), (std::vector<trace::FileId>{4, 0, 5}));
  EXPECT_EQ(cell.created(2), (std::vector<trace::FileId>{1, 2, 7}));
}

TEST(Placement, EveryFileIsPlacedExactlyOnce) {
  const trace::Trace t = skewed_trace();
  const trace::PopularityAnalyzer pop(t);
  const std::vector<Bytes> sizes(10, kMB);
  Rng rng(1);
  for (const auto policy :
       {PlacementPolicy::kPopularityRoundRobin, PlacementPolicy::kRandom}) {
    const PlacementMap map = place_files(policy, 4, 10, pop, sizes, rng);
    EXPECT_EQ(map.node_of.size(), 10u);
    for (trace::FileId f = 0; f < 10; ++f) EXPECT_LT(map.node(f), 4u);
    // Created on its primary's node table and no other.
    const PlacedCell cell(policy, 4, pop, sizes);
    std::size_t total = 0;
    for (NodeId n = 0; n < 4; ++n) total += cell.node_table(n).files();
    EXPECT_EQ(total, 10u);
    for (trace::FileId f = 0; f < 10; ++f) {
      const NodeId owner = cell.table().node(f);
      EXPECT_LT(owner, 4u);
      for (NodeId n = 0; n < 4; ++n) {
        EXPECT_EQ(cell.node_table(n).contains(f), n == owner);
      }
    }
  }
}

TEST(Placement, RoundRobinBalancesFileCounts) {
  workload::SyntheticConfig cfg;
  cfg.num_requests = 500;
  const auto w = workload::generate_synthetic(cfg);
  const trace::PopularityAnalyzer pop(w.requests);
  Rng rng(1);
  const PlacementMap map =
      place_files(PlacementPolicy::kPopularityRoundRobin, 8,
                  cfg.num_files, pop, w.file_sizes, rng);
  std::vector<std::size_t> primaries(8, 0);
  for (const NodeId n : map.node_of) ++primaries[n];
  const PlacedCell cell(PlacementPolicy::kPopularityRoundRobin, 8, pop,
                        w.file_sizes);
  for (NodeId n = 0; n < 8; ++n) {
    EXPECT_EQ(primaries[n], cfg.num_files / 8);
    EXPECT_EQ(cell.node_table(n).files(), cfg.num_files / 8);
  }
}

TEST(Placement, RoundRobinBalancesHotLoad) {
  // The point of popularity round-robin (§III-B): every node gets an
  // equal share of the accesses.
  workload::SyntheticConfig cfg;
  cfg.num_requests = 2000;
  cfg.mu = 1000.0;
  const auto w = workload::generate_synthetic(cfg);
  const trace::PopularityAnalyzer pop(w.requests);
  Rng rng(1);
  const PlacementMap map =
      place_files(PlacementPolicy::kPopularityRoundRobin, 8,
                  cfg.num_files, pop, w.file_sizes, rng);
  std::vector<std::size_t> accesses(8, 0);
  for (const auto& r : w.requests.records()) {
    accesses[map.node(r.file)] += 1;
  }
  const auto [lo, hi] = std::minmax_element(accesses.begin(), accesses.end());
  // Within 30% of each other (popularity-ordered dealing is near-optimal).
  EXPECT_LT(static_cast<double>(*hi - *lo),
            0.3 * static_cast<double>(*hi));
}

TEST(Placement, RandomIsDeterministicGivenRngState) {
  const trace::Trace t = skewed_trace();
  const trace::PopularityAnalyzer pop(t);
  const std::vector<Bytes> sizes(10, kMB);
  Rng rng1(7), rng2(7);
  const auto a = place_files(PlacementPolicy::kRandom, 5, 10, pop, sizes, rng1);
  const auto b = place_files(PlacementPolicy::kRandom, 5, 10, pop, sizes, rng2);
  EXPECT_EQ(a.node_of, b.node_of);
}

TEST(Placement, RejectsBadArguments) {
  const trace::Trace t = skewed_trace();
  const trace::PopularityAnalyzer pop(t);
  const std::vector<Bytes> sizes(10, kMB);
  Rng rng(1);
  EXPECT_THROW(place_files(PlacementPolicy::kPopularityRoundRobin, 0, 10, pop,
                           sizes, rng),
               std::invalid_argument);
  EXPECT_THROW(place_files(PlacementPolicy::kPopularityRoundRobin, 2, 11, pop,
                           sizes, rng),
               std::invalid_argument);
}

TEST(Placement, ErasureStripesChunksAcrossDistinctNodes) {
  const trace::Trace t = skewed_trace();
  const trace::PopularityAnalyzer pop(t);
  const std::vector<Bytes> sizes(10, 10 * kMB);
  Rng rng(1);
  const auto map = place_files(PlacementPolicy::kPopularityRoundRobin, 6, 10,
                               pop, sizes, rng, /*replication_degree=*/1,
                               /*ec_n=*/4, /*ec_k=*/2);
  EXPECT_TRUE(map.erasure());
  EXPECT_EQ(map.copies(), 4u);
  EXPECT_EQ(map.ec_k(), 2u);
  for (trace::FileId f = 0; f < 10; ++f) {
    const auto r = map.holders(f);
    ASSERT_EQ(r.size(), 4u);
    // Chunk j on node (primary + j) mod N: all distinct, chunk 0 is the
    // policy-chosen primary.
    EXPECT_EQ(r[0], map.node(f));
    for (std::size_t j = 0; j < r.size(); ++j) {
      EXPECT_EQ(r[j], (r[0] + j) % 6);
    }
  }
  // MDS chunk sizing: k chunks cover the file, ceil-divided.
  EXPECT_EQ(PlacementMap::chunk_bytes(10 * kMB, 2), 5 * kMB);
  EXPECT_EQ(PlacementMap::chunk_bytes(10 * kMB + 1, 2), 5 * kMB + 1);
  EXPECT_EQ(PlacementMap::chunk_bytes(10 * kMB, 0), 10 * kMB);  // ec off
}

TEST(Placement, ErasureRejectsBadParameters) {
  const trace::Trace t = skewed_trace();
  const trace::PopularityAnalyzer pop(t);
  const std::vector<Bytes> sizes(10, kMB);
  Rng rng(1);
  // k >= n, k == 0, and n > node count are all placement errors.
  EXPECT_THROW(place_files(PlacementPolicy::kPopularityRoundRobin, 6, 10, pop,
                           sizes, rng, 1, /*ec_n=*/4, /*ec_k=*/4),
               std::invalid_argument);
  EXPECT_THROW(place_files(PlacementPolicy::kPopularityRoundRobin, 6, 10, pop,
                           sizes, rng, 1, /*ec_n=*/4, /*ec_k=*/0),
               std::invalid_argument);
  EXPECT_THROW(place_files(PlacementPolicy::kPopularityRoundRobin, 3, 10, pop,
                           sizes, rng, 1, /*ec_n=*/4, /*ec_k=*/2),
               std::invalid_argument);
}

TEST(Placement, SingleNodeTakesEverything) {
  const trace::Trace t = skewed_trace();
  const trace::PopularityAnalyzer pop(t);
  const std::vector<Bytes> sizes(10, kMB);
  Rng rng(1);
  const auto map = place_files(PlacementPolicy::kPopularityRoundRobin, 1, 10,
                               pop, sizes, rng);
  EXPECT_EQ(map.node_of, std::vector<NodeId>(10, 0));
  // Ranked files first, then the rest by id.
  const PlacedCell cell(PlacementPolicy::kPopularityRoundRobin, 1, pop, sizes);
  EXPECT_EQ(cell.created(0),
            (std::vector<trace::FileId>{9, 4, 1, 6, 0, 2, 3, 5, 7, 8}));
}

}  // namespace
}  // namespace eevfs::core
