#include "core/placement.hpp"

#include <algorithm>
#include <stdexcept>

namespace eevfs::core {

PlacementMap place_files(PlacementPolicy policy, std::size_t num_nodes,
                         std::size_t num_files,
                         const trace::PopularityAnalyzer& popularity,
                         const std::vector<Bytes>& sizes, Rng& rng,
                         std::size_t replication_degree, std::size_t ec_n,
                         std::size_t ec_k) {
  if (num_nodes == 0) {
    throw std::invalid_argument("place_files: no nodes");
  }
  if (sizes.size() < num_files) {
    throw std::invalid_argument("place_files: sizes shorter than file count");
  }
  if (ec_n > 0 && (ec_k < 1 || ec_n <= ec_k || ec_n > num_nodes)) {
    throw std::invalid_argument("place_files: need 1 <= ec_k < ec_n <= nodes");
  }
  // Copies per file: the chunk count under erasure, else the replica
  // count.  Either way copy j lands on (primary + j) mod num_nodes:
  // distinct nodes, and under popularity round-robin every node still
  // receives an even hot/cold mix of secondaries.
  const std::size_t degree =
      ec_n > 0 ? ec_n
               : std::min(std::max<std::size_t>(replication_degree, 1),
                          num_nodes);
  std::vector<NodeId> primary(num_files, 0);

  switch (policy) {
    case PlacementPolicy::kPopularityRoundRobin: {
      std::size_t i = 0;
      for_each_in_creation_order(num_files, popularity, [&](trace::FileId f) {
        primary[f] = i++ % num_nodes;
      });
      break;
    }
    case PlacementPolicy::kRandom: {
      for_each_in_creation_order(num_files, popularity, [&](trace::FileId f) {
        primary[f] = static_cast<NodeId>(rng.next_below(num_nodes));
      });
      break;
    }
  }
  return PlacementMap(std::move(primary), num_nodes, degree,
                      std::span<const Bytes>(sizes).first(num_files),
                      ec_n > 0 ? ec_k : 0);
}

}  // namespace eevfs::core
