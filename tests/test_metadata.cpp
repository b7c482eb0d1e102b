#include "core/metadata.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::core {
namespace {

/// A table over `sizes.size()` files with primaries `primaries`.
ServerMetadata table(std::vector<NodeId> primaries, std::size_t nodes,
                     std::size_t copies, const std::vector<Bytes>& sizes,
                     std::size_t ec_k = 0) {
  return ServerMetadata(std::move(primaries), nodes, copies, sizes, ec_k);
}

TEST(ServerMetadata, InsertAndLookup) {
  const ServerMetadata m = table({0, 3}, 4, 1, {kMB, 10 * kMB});
  const auto e = m.lookup(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->node, 3u);
  EXPECT_EQ(e->size, 10 * kMB);
  ASSERT_EQ(e->holders.size(), 1u);
  EXPECT_EQ(e->holders[0], 3u);
  EXPECT_FALSE(e->erasure);
  EXPECT_EQ(m.files(), 2u);
}

TEST(ServerMetadata, MissIsCountedNotFatal) {
  const ServerMetadata m;
  EXPECT_FALSE(m.lookup(42).has_value());
  EXPECT_THROW(m.holders(42), std::out_of_range);
}

TEST(ServerMetadata, DuplicateInsertThrows) {
  // The table takes one primary and one size per file: a primary past
  // the node count, more copies than nodes and a size column of another
  // length are rejected.  (A file created twice is the node table's
  // duplicate, see NodeMetadata.DuplicateInsertThrows.)
  const std::vector<Bytes> sizes{1, 2};
  EXPECT_THROW(ServerMetadata({0, 2}, 2, 1, sizes), std::invalid_argument);
  EXPECT_THROW(ServerMetadata({0, 1}, 2, 3, sizes), std::invalid_argument);
  EXPECT_THROW(ServerMetadata({0, 1, 1}, 2, 1, sizes), std::invalid_argument);
}

TEST(ServerMetadata, ErasureEntryKeepsFullSizeAndChunkHolders) {
  const ServerMetadata m = table({2}, 6, 4, {10 * kMB}, /*ec_k=*/2);
  const auto e = m.lookup(0);
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->erasure);
  EXPECT_EQ(e->ec_k, 2u);
  // The entry records the LOGICAL size; nodes store chunk-sized images.
  EXPECT_EQ(e->size, 10 * kMB);
  EXPECT_EQ(std::vector<NodeId>(e->holders.begin(), e->holders.end()),
            (std::vector<NodeId>{2, 3, 4, 5}));
  EXPECT_EQ(e->node, 2u);  // chunk 0's holder is the primary
}

TEST(ServerMetadata, ErasureInsertValidatesK) {
  // k must satisfy k < n (the chunk-holder count); k = 0 is no erasure.
  EXPECT_THROW(table({0}, 4, 4, {kMB}, 4), std::invalid_argument);
  EXPECT_THROW(table({0}, 4, 4, {kMB}, 5), std::invalid_argument);
  EXPECT_FALSE(table({0}, 4, 4, {kMB}, 0).erasure());
}

TEST(ServerMetadata, FootprintGrowsLinearly) {
  const auto footprint = [](std::size_t files) {
    return table(std::vector<NodeId>(files, 0), 4, 1,
                 std::vector<Bytes>(files, 1))
        .memory_footprint();
  };
  const Bytes per_100 = footprint(200) - footprint(100);
  EXPECT_EQ(footprint(300) - footprint(200), per_100);
  // The paper's scalability point: coarse entries only — well under 100
  // bytes per file.
  EXPECT_LT(per_100 / 100, 100u);
}

TEST(NodeMetadata, InsertFindUpdate) {
  NodeMetadata m;
  m.insert(5, LocalFileMeta{.first_disk = 1, .size = 4 * kMB});
  ASSERT_TRUE(m.contains(5));
  EXPECT_EQ(m.at(5).first_disk, 1u);
  EXPECT_EQ(m.at(5).size, 4 * kMB);
  EXPECT_EQ(m.at(5).disk(1, 3), 2u);
  EXPECT_EQ(m.at(5).disk(1, 2), 0u);  // the stripe set wraps around
  EXPECT_EQ(m.find(99), nullptr);
}

TEST(NodeMetadata, DuplicateInsertThrows) {
  NodeMetadata m;
  m.insert(1, {});
  EXPECT_THROW(m.insert(1, {}), std::invalid_argument);
  // Out of order, the duplicate surfaces when the next lookup sorts the
  // table.
  m.insert(0, {});
  m.insert(0, {});
  EXPECT_THROW(m.find(0), std::invalid_argument);
}

TEST(NodeMetadata, AtUnknownThrows) {
  NodeMetadata m;
  EXPECT_THROW(m.at(3), std::out_of_range);
}

TEST(NodeMetadata, IterationCoversAllFiles) {
  NodeMetadata m;
  // Inserted out of order; iteration is in FileId order.
  for (trace::FileId i = 0; i < 10; ++i) {
    const trace::FileId f = (i * 7) % 10;
    m.insert(f, LocalFileMeta{.first_disk = static_cast<std::uint16_t>(f % 2),
                              .size = kMB});
  }
  trace::FileId expected = 0;
  for (const LocalFileMeta& meta : m) {
    EXPECT_EQ(meta.file, expected++);
    EXPECT_EQ(meta.first_disk, meta.file % 2);
  }
  EXPECT_EQ(expected, 10u);
}

TEST(NodeMetadata, InsertStoresTheFileIdInTheEntry) {
  // The entry carries its own id: insert overwrites whatever id the
  // caller's entry held, and lookups and iteration find it there.
  NodeMetadata m;
  m.insert(7, LocalFileMeta{.file = 99, .first_disk = 3, .size = kMB});
  m.insert(4, LocalFileMeta{.file = 99, .size = 2 * kMB});
  EXPECT_EQ(m.at(7).file, 7u);
  EXPECT_EQ(m.at(7).first_disk, 3u);
  EXPECT_EQ(m.at(4).file, 4u);
  EXPECT_EQ(m.find(99), nullptr);
  std::vector<trace::FileId> ids;
  for (const LocalFileMeta& meta : m) ids.push_back(meta.file);
  EXPECT_EQ(ids, (std::vector<trace::FileId>{4, 7}));
}

TEST(MetadataIntegration, ServerKnowsNodesButNotDisks) {
  // §IV-D: the server's view stops at the node granularity; only the
  // node-local metadata knows disks.
  workload::SyntheticConfig wcfg;
  wcfg.num_requests = 300;
  const auto w = workload::generate_synthetic(wcfg);
  Cluster c(baseline::eevfs_pf());
  const RunMetrics m = c.run(w);
  (void)m;
  const ServerMetadata& server_meta = c.server().metadata();
  EXPECT_EQ(server_meta.files(), wcfg.num_files);
  // Node metadata holds each node's share.
  std::size_t local_total = 0;
  for (std::size_t n = 0; n < c.num_nodes(); ++n) {
    local_total += c.node(n).metadata().files();
  }
  EXPECT_EQ(local_total, wcfg.num_files);
  // Distributed: no single node holds everything.
  EXPECT_LT(c.node(0).metadata().files(), wcfg.num_files);
}

TEST(MetadataIntegration, LookupCostIsPaidOnEveryRequest) {
  // Metadata lookups add server CPU time; a run's mean response includes
  // at least that much over the pure network+disk floor.
  EXPECT_GT(ServerMetadata::lookup_cost(), 0);
  EXPECT_LT(ServerMetadata::lookup_cost(), milliseconds_to_ticks(1.0));
}

}  // namespace
}  // namespace eevfs::core
