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
// this module reproduces the original substrate so the paper's "previous
// studies on PRE-BUD ... extensive simulations" have a measurable
// counterpart (bench/prebud_parallel_disks).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/energy_model.hpp"
#include "disk/disk_model.hpp"
#include "disk/disk_profile.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace eevfs::prebud {

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

  // The disks and the energy model refer to config_.profile, and the
  // disks' callbacks to this object.
  BudSimulator(const BudSimulator&) = delete;
  BudSimulator& operator=(const BudSimulator&) = delete;

  /// Requests must be sorted by arrival.  Single use.
  BudStats run(const std::vector<BlockRequest>& requests);

 private:
  struct Pending;

  std::size_t disk_of(BlockId b) const { return b % config_.data_disks; }
  void handle_request(std::size_t index);
  void consider_prefetch(BlockId block, std::size_t index);
  void arm_idle_timer(std::size_t disk);

  BudConfig config_;
  BudPolicy policy_;
  core::EnergyPredictionModel model_;

  sim::Simulator sim_;
  std::vector<std::unique_ptr<disk::DiskModel>> data_disks_;
  std::vector<std::unique_ptr<disk::DiskModel>> buffer_disks_;
  std::vector<sim::EventHandle> idle_timers_;

  const std::vector<BlockRequest>* requests_ = nullptr;
  std::unordered_set<BlockId> buffered_;
  std::unordered_set<BlockId> copy_in_flight_;
  std::size_t next_buffer_disk_ = 0;
  std::size_t outstanding_ = 0;
  bool ran_ = false;

  BudStats stats_;
};

}  // namespace eevfs::prebud
