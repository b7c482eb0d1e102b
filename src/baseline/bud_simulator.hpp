// The BUD architecture and PRE-BUD prefetching algorithm — the authors'
// prior system ([12], Manzanares et al., NCA'09) that EEVFS builds on
// ("we have investigated an energy-aware prefetching strategy called
// PRE-BUD to dynamically fetch the most popular data into buffer disks").
//
// BUD is a *single storage node*: m buffer disks + n data disks serving a
// block-level request stream.  PRE-BUD runs **dynamically**: on every
// buffer miss it scans a look-ahead window of upcoming requests
// (application-provided hints) and copies the block into a buffer disk if
// the energy model predicts the redirected future accesses will pay for
// the copy.  EEVFS later lifted the idea to files and to a whole cluster;
// this policy reproduces the original so the paper's "previous studies
// on PRE-BUD ... extensive simulations" have a measurable counterpart
// (bench/prebud_parallel_disks).
//
// The node is a core::StorageNode like every cluster node: each block is
// a file, placed round-robin over the data disks, read by one client
// across the node's NIC.  The node's power manager is the DPM (kNone for
// always-on, kIdleTimer otherwise), and an accepted copy is handed over
// with update_prefetch, as the cluster's online refresh does.  The policy
// is PRE-BUD's one decision: on a miss, the look-ahead scan and the
// prefetch_benefit gate of the power manager's energy model.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/storage_node.hpp"
#include "disk/disk_profile.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "sim/engine.hpp"
#include "trace/record.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace eevfs::baseline {

using BlockId = std::uint32_t;

struct BlockRequest {
  Tick arrival = 0;
  BlockId block = 0;
};

/// Block-level workload: Zipf-skewed accesses over `num_blocks` with
/// exponential inter-arrivals (the workload class [12] evaluates).
struct BlockWorkloadConfig {
  std::size_t num_blocks = 2000;
  std::size_t num_requests = 4000;
  double zipf_alpha = 0.9;
  /// [12] evaluates light-to-moderate loads where idle windows exist;
  /// at much denser arrivals no DPM scheme can win (the break-even gap
  /// never opens) — bench/prebud_parallel_disks shows the sweep.
  double mean_inter_arrival_ms = 2000.0;
  std::uint64_t seed = 11;
};
std::vector<BlockRequest> generate_block_workload(
    const BlockWorkloadConfig& config);

enum class BudPolicy {
  kAlwaysOn,    // no DPM at all
  kDpmOnly,     // idle-timer DPM, no prefetching
  kPreBud,      // DPM + dynamic look-ahead prefetching into buffer disks
};
std::string to_string(BudPolicy p);

struct BudConfig {
  std::size_t data_disks = 4;
  std::size_t buffer_disks = 1;
  Bytes block_bytes = 4 * kMB;
  /// Look-ahead window PRE-BUD scans on each miss.
  Tick lookahead = seconds_to_ticks(300.0);
  Tick idle_threshold = seconds_to_ticks(5.0);
  /// Profit gate multiple of break-even (same semantics as the cluster).
  double sleep_margin = 1.0;
  /// Cap on buffered blocks (0 = unlimited).
  std::size_t buffer_capacity_blocks = 0;
  disk::DiskProfile profile = disk::DiskProfile::ata133_fast();
};

struct BudStats {
  Joules total_joules = 0.0;
  Joules data_disk_joules = 0.0;
  Joules buffer_disk_joules = 0.0;
  std::uint64_t power_transitions = 0;
  std::uint64_t buffer_hits = 0;
  std::uint64_t data_disk_reads = 0;
  std::uint64_t blocks_prefetched = 0;
  std::uint64_t prefetches_rejected = 0;  // gate said no
  OnlineStats response_time_sec;
  /// Simulated time from 0 to the end of the simulation, after the last
  /// idle timer has put its disk to sleep: the interval every disk is
  /// metered over, so the joules above cover exactly this span.
  Tick makespan = 0;

  double hit_rate() const {
    const auto total = buffer_hits + data_disk_reads;
    return total ? static_cast<double>(buffer_hits) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

/// Runs one policy over one request stream.  Deterministic.
class BudSimulator {
 public:
  BudSimulator(BudConfig config, BudPolicy policy);

  // The node's callbacks refer to this object.
  BudSimulator(const BudSimulator&) = delete;
  BudSimulator& operator=(const BudSimulator&) = delete;

  /// Requests must be sorted by arrival.  Single use.
  BudStats run(const std::vector<BlockRequest>& requests);

 private:
  void handle_request(std::size_t index);
  /// PRE-BUD on a miss of `block` (request `index`): copy the block into
  /// the buffer disk when the window ahead reuses it and the energy gate
  /// says the copy pays.
  void consider_prefetch(BlockId block, std::size_t index);

  BudConfig config_;
  BudPolicy policy_;

  sim::Simulator sim_;
  net::NetworkFabric net_;
  obs::Registry registry_;
  net::EndpointId client_ = 0;
  std::unique_ptr<core::StorageNode> node_;

  const std::vector<BlockRequest>* requests_ = nullptr;
  /// Blocks PRE-BUD handed to the node, in the order it accepted them:
  /// the buffered set the node is told to keep.
  std::vector<trace::FileId> accepted_;
  std::size_t outstanding_ = 0;
  bool ran_ = false;

  BudStats stats_;
};

}  // namespace eevfs::baseline
