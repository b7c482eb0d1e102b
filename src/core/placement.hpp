// Server-side data placement (paper §III-B): files are distributed to
// storage nodes in popularity order, round-robin, so every node receives
// an equal share of hot and cold data; each node then round-robins its
// share over its data disks in the same order.
//
// The placement is the server's file table itself: place_files returns a
// ServerMetadata (metadata.hpp) — primary and size columns and the holder
// arena — which the server routes with for the rest of the run.  It keeps
// no per-node creation lists: the server walks the creation order once
// (for_each_in_creation_order) and creates each file on its holders, so
// every node receives its files in that order.
#pragma once

#include <cstddef>
#include <vector>

#include "core/config.hpp"
#include "core/metadata.hpp"
#include "trace/record.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace eevfs::core {

/// What place_files returns: the server's file table.
using PlacementMap = ServerMetadata;

/// Calls `visit(f)` once for every id below `num_files`, in the order
/// files are placed and created: the ranked files that are below
/// `num_files`, in rank order, then the files absent from the ranking
/// (never accessed), in id order.  Keeps one mark bit per file.
template <typename Visit>
void for_each_in_creation_order(std::size_t num_files,
                                const trace::PopularityAnalyzer& popularity,
                                Visit&& visit) {
  std::vector<bool> ranked(num_files, false);
  for (const trace::FilePopularity& p : popularity.ranked()) {
    if (p.file < num_files) {
      ranked[p.file] = true;
      visit(p.file);
    }
  }
  for (trace::FileId f = 0; f < num_files; ++f) {
    if (!ranked[f]) visit(f);
  }
}

/// Places `num_files` files (ids 0..num_files-1), dealing them out in
/// creation order.  `sizes` is indexed by FileId: the table keeps the
/// first `num_files`.  `replication_degree`
/// copies land on distinct consecutive nodes (mod the node count) past
/// the policy-chosen primary; it is clamped to the node count.
///
/// With `ec_n > 0` the placement switches to (ec_n, ec_k) erasure
/// striping: chunk j of a file lands on node (primary + j) mod the node
/// count — ec_n distinct nodes, chunk 0 on the policy-chosen primary —
/// and `replication_degree` is ignored (config validation makes the two
/// mutually exclusive).  Requires 1 <= ec_k < ec_n <= num_nodes.
PlacementMap place_files(PlacementPolicy policy, std::size_t num_nodes,
                         std::size_t num_files,
                         const trace::PopularityAnalyzer& popularity,
                         const std::vector<Bytes>& sizes, Rng& rng,
                         std::size_t replication_degree = 1,
                         std::size_t ec_n = 0, std::size_t ec_k = 0);

}  // namespace eevfs::core
