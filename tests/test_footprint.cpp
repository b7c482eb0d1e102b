// Resident-state budgets: what a storage node costs on the heap before it
// stores a file, what each placed file costs, and the peak of a streaming
// cell.  A 1024-node cell builds 1,024 nodes and places 128,000 files, so
// a few hundred bytes per node or a few per file are a visible share of
// its peak memory (docs/perf.md, "Peak memory").
//
// This binary replaces the global operator new/delete with versions that
// keep a live-byte count and its peak: each block carries its requested
// size in a header, so a delete subtracts exactly what its new added.
// Nothing the tests build is over-aligned, so the aligned forms stay the
// library's.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/cluster.hpp"
#include "core/config.hpp"
#include "core/storage_node.hpp"
#include "core/storage_server.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "sim/engine.hpp"
#include "trace/trace.hpp"
#include "util/string_util.hpp"
#include "util/units.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"

namespace {

/// Requested bytes of every block allocated and not yet freed.
eevfs::Bytes g_live_bytes = 0;
/// The most g_live_bytes has been; a test resets it to g_live_bytes.
eevfs::Bytes g_peak_bytes = 0;

/// Room for the size, keeping the block's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

/// Null when malloc fails.
void* counted_alloc(std::size_t n) noexcept {
  void* base = std::malloc(kHeader + n);
  if (base == nullptr) return nullptr;
  *static_cast<std::size_t*>(base) = n;
  g_live_bytes += n;
  if (g_live_bytes > g_peak_bytes) g_peak_bytes = g_live_bytes;
  return static_cast<char*>(base) + kHeader;
}

void* counted_new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
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
// std::stable_sort's buffer comes from the nothrow form, which a
// sanitizer runtime would otherwise serve itself.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_delete(p);
}

namespace eevfs::core {
namespace {

/// `count` nodes built as Cluster builds them from `cfg`, on endpoints
/// made before the first one.
std::vector<std::unique_ptr<StorageNode>> make_nodes(
    const ClusterConfig& cfg, std::size_t count, sim::Simulator& sim,
    net::NetworkFabric& net, const std::vector<net::EndpointId>& endpoints,
    obs::Registry& registry) {
  std::vector<std::unique_ptr<StorageNode>> nodes;
  nodes.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    NodeParams params;
    params.id = n;
    params.data_disks = cfg.data_disks_per_node;
    params.disk_profile = cfg.node_disk_profile(n);
    params.base_watts = cfg.node_base_watts;
    params.power.policy = cfg.power_policy;
    params.journal.mode = cfg.journal_mode;
    params.ram_cache_bytes = cfg.ram_cache_bytes;
    nodes.push_back(std::make_unique<StorageNode>(sim, net, endpoints[n],
                                                  params, registry));
  }
  return nodes;
}

/// One endpoint per node, named and sized as Cluster makes them.
std::vector<net::EndpointId> node_endpoints(const ClusterConfig& cfg,
                                            std::size_t count,
                                            net::NetworkFabric& net) {
  std::vector<net::EndpointId> endpoints;
  endpoints.reserve(count);
  for (std::size_t n = 0; n < count; ++n) {
    endpoints.push_back(net.add_endpoint(
        format("node%zu", n),
        net::mbps_to_bytes_per_sec(cfg.node_nic_mbps(n))));
  }
  return endpoints;
}

// One node's share of the live heap, over 64 nodes built as Cluster
// builds them from the paper's configuration (the registry's names and
// the node vector included, the network endpoints not).  Measured at
// 3,092 B; the budget leaves 5% for library differences.  Its three
// disk queues allocate nothing until a request arrives, and its buffer
// disk, buffer index and write journal live inside the node rather than
// in heap blocks of their own.  Each node keeps
// one DiskProfile, which its three disks and its power manager's two
// energy models refer to; with a copy in each of them a node cost
// 6,266 B.
TEST(Footprint, StorageNodeBeforeItsFirstFile) {
  constexpr std::size_t kNodes = 64;
  constexpr Bytes kBudgetBytes = 3'247;

  const ClusterConfig cfg;
  sim::Simulator sim;
  net::NetworkFabric net(sim);
  const std::vector<net::EndpointId> endpoints =
      node_endpoints(cfg, kNodes, net);
  obs::Registry registry;

  const Bytes before = g_live_bytes;
  const auto nodes = make_nodes(cfg, kNodes, sim, net, endpoints, registry);
  const Bytes per_node = (g_live_bytes - before) / kNodes;

  RecordProperty("bytes_per_node", static_cast<int>(per_node));
  EXPECT_LE(per_node, kBudgetBytes);
}

// What place_and_create keeps per placed file: the server's primary and
// size columns and one node-table entry, over 16,000 files on 16 nodes.
// Measured at 32 B; the budget leaves 5%.
TEST(Footprint, PlacedFile) {
  constexpr std::size_t kNodes = 16;
  constexpr std::size_t kFiles = 16'000;
  constexpr Bytes kBudgetBytes = 33;

  const ClusterConfig cfg;
  sim::Simulator sim;
  net::NetworkFabric net(sim);
  const std::vector<net::EndpointId> endpoints =
      node_endpoints(cfg, kNodes, net);
  obs::Registry registry;
  const auto nodes = make_nodes(cfg, kNodes, sim, net, endpoints, registry);
  std::vector<StorageNode*> raw;
  for (const auto& n : nodes) raw.push_back(n.get());
  StorageServer server(sim, net,
                       net.add_endpoint("server", net::mbps_to_bytes_per_sec(
                                                      kServerNicMbps)),
                       cfg.placement, cfg.seed, registry);
  server.register_nodes(std::move(raw));
  server.ingest_popularity(trace::PopularityAnalyzer({}, 0));
  const std::vector<Bytes> sizes(kFiles, kMB);

  const Bytes before = g_live_bytes;
  server.place_and_create(sizes);
  const Bytes per_file = (g_live_bytes - before) / kFiles;

  RecordProperty("bytes_per_file", static_cast<int>(per_file));
  EXPECT_LE(per_file, kBudgetBytes);
}

// The peak live heap of a whole streaming run, set-up included, on a
// cell shaped like perfbench's dc_stream_1024 at a quarter of its size:
// 256 nodes, 128 clients, 125 files and 200 requests per node, 10 MB
// files, the prefetch count scaled with the nodes.  The stream itself
// (its file sizes) is built before the mark.  Measured at 2,835,922 B;
// the budget leaves 5%.
TEST(Footprint, StreamingCellPeak) {
  constexpr std::size_t kNodes = 256;
  constexpr double kScale = static_cast<double>(kNodes) / 8.0;
  constexpr Bytes kBudgetBytes = 2'978'000;

  ClusterConfig cfg;
  cfg.prefetch_file_count = static_cast<std::size_t>(70 * kScale) + 1;
  cfg.num_storage_nodes = kNodes;
  cfg.num_clients = kNodes / 2;
  workload::SyntheticConfig wcfg;
  wcfg.num_files = kNodes * 125;
  wcfg.num_requests = kNodes * 200;
  wcfg.mean_data_size_mb = 10.0;
  wcfg.size_sigma = 0.02;
  wcfg.mu = 1000.0 * kScale + 1.0;
  wcfg.inter_arrival_ms = 700.0 / kScale;
  wcfg.num_clients = kNodes / 2;
  wcfg.seed = 1;
  const workload::StreamingWorkload stream =
      workload::make_synthetic_stream(wcfg);

  const Bytes before = g_live_bytes;
  g_peak_bytes = g_live_bytes;
  {
    Cluster cluster(cfg);
    const RunMetrics m = cluster.run_stream(stream);
    EXPECT_EQ(m.response_time_sec.count(), wcfg.num_requests);
  }
  const Bytes peak = g_peak_bytes - before;

  RecordProperty("peak_bytes", static_cast<int>(peak));
  EXPECT_LE(peak, kBudgetBytes);
}

}  // namespace
}  // namespace eevfs::core
