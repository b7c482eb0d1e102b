// Resident-state budget: what a storage node costs on the heap before it
// stores a file.  A 1024-node cell builds 1,024 nodes, so a few hundred
// bytes per node is a visible share of its peak memory (docs/perf.md,
// "Peak memory").
//
// This binary replaces the global operator new/delete with versions that
// keep a live-byte count: each block carries its requested size in a
// header, so a delete subtracts exactly what its new added.  Nothing the
// test builds is over-aligned, so the aligned forms stay the library's.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/config.hpp"
#include "core/storage_node.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "sim/engine.hpp"
#include "util/string_util.hpp"
#include "util/units.hpp"

namespace {

/// Requested bytes of every block allocated and not yet freed.
eevfs::Bytes g_live_bytes = 0;

/// Room for the size, keeping the block's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_new(std::size_t n) {
  void* base = std::malloc(kHeader + n);
  if (base == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(base) = n;
  g_live_bytes += n;
  return static_cast<char*>(base) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  g_live_bytes -= *static_cast<std::size_t*>(base);
  std::free(base);
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace eevfs::core {
namespace {

// One node's share of the live heap, over 64 nodes built as Cluster
// builds them from the paper's configuration (the registry's names and
// the node vector included, the network endpoints not).  Measured at
// 5,164 B; the budget leaves 5% for library differences.  Each node
// keeps one DiskProfile, which its three disks and its power manager's
// two energy models refer to; with a copy in each of them a node cost
// 6,266 B.
TEST(Footprint, StorageNodeBeforeItsFirstFile) {
  constexpr std::size_t kNodes = 64;
  constexpr Bytes kBudgetBytes = 5'420;

  const ClusterConfig cfg;
  sim::Simulator sim;
  net::NetworkFabric net(sim);
  std::vector<net::EndpointId> endpoints;
  endpoints.reserve(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    endpoints.push_back(net.add_endpoint(
        format("node%zu", n),
        net::mbps_to_bytes_per_sec(cfg.node_nic_mbps(n))));
  }
  obs::Registry registry;

  const Bytes before = g_live_bytes;
  std::vector<std::unique_ptr<StorageNode>> nodes;
  nodes.reserve(kNodes);
  for (std::size_t n = 0; n < kNodes; ++n) {
    NodeParams params;
    params.id = n;
    params.data_disks = cfg.data_disks_per_node;
    params.buffer_disks = cfg.buffer_disks_per_node;
    params.disk_profile = cfg.node_disk_profile(n);
    params.base_watts = cfg.node_base_watts;
    params.power.policy = cfg.power_policy;
    params.journal.mode = cfg.journal_mode;
    params.ram_cache_bytes = cfg.ram_cache_bytes;
    nodes.push_back(std::make_unique<StorageNode>(sim, net, endpoints[n],
                                                  params, registry));
  }
  const Bytes per_node = (g_live_bytes - before) / kNodes;

  RecordProperty("bytes_per_node", static_cast<int>(per_node));
  EXPECT_LE(per_node, kBudgetBytes);
}

}  // namespace
}  // namespace eevfs::core
