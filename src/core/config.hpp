// Cluster configuration.
//
// The defaults replicate the paper's testbed (§V-A, Table I): one storage
// server, eight storage nodes of two hardware types, one buffer disk and
// two data disks per node, a 5 s disk idle threshold, and prefetching of
// the 70 most popular files out of 1000.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/ram_cache.hpp"
#include "disk/disk_profile.hpp"
#include "disk/write_journal.hpp"
#include "fault/fault_injector.hpp"
#include "obs/tracer.hpp"
#include "util/units.hpp"

namespace eevfs::core {

using NodeId = std::size_t;

/// How a storage node decides to spin data disks down.
enum class PowerPolicy {
  kNone,        // never spin down (AlwaysOn baseline)
  kIdleTimer,   // classic DPM: sleep after `idle_threshold` of idleness
  kPredictive,  // paper default (§III-C): sleep after the idle threshold
                // only when the node's energy model predicts the next
                // idle window is long enough to profit; on-demand wake
  kHints,       // §IV-C: exact forwarded access pattern; immediate sleep
                // into known-long windows and proactive wake
  kOracle,      // perfect foresight, profit-only gate (lower bound)
};

/// What the buffer disk caches.
enum class CachePolicy {
  kPrefetch,   // EEVFS: popularity-ranked prefetch before replay
  kLruOnMiss,  // MAID baseline: copy-on-access with LRU eviction
  kNone,       // no buffer-disk caching (buffer still absorbs writes)
};

/// How the server spreads files over nodes/disks.
enum class PlacementPolicy {
  kPopularityRoundRobin,  // paper §III-B
  kRandom,                // ablation: popularity-blind
};

/// How a storage node spreads its files over its data disks.
enum class DiskPlacement {
  kRoundRobin,   // paper §III-B: k-th created file -> disk k mod n
  kConcentrate,  // PDC baseline: hottest files packed onto the first
                 // disks so the last disks can sleep
};

std::string to_string(PowerPolicy p);
std::string to_string(CachePolicy p);
std::string to_string(PlacementPolicy p);
std::string to_string(DiskPlacement p);

// --- Table I hardware ------------------------------------------------------
// Fixed like the disk profiles ClusterConfig::node_disk_profile picks.

/// Every kType2Stride-th node (odd ids) is a slow type-2 node: 100 Mb/s
/// NIC and the 34 MB/s ATA disk.
inline constexpr std::size_t kType2Stride = 2;
/// NIC line rates in Mb/s, before ClusterConfig::nic_efficiency.
inline constexpr double kType1NicMbps = 1000.0;
inline constexpr double kType2NicMbps = 100.0;
inline constexpr double kServerNicMbps = 1000.0;
inline constexpr double kClientNicMbps = 1000.0;

struct ClusterConfig {
  // --- topology (Table I) ------------------------------------------------
  std::size_t num_storage_nodes = 8;
  /// Each node also has one buffer disk (the paper's m = 1).
  std::size_t data_disks_per_node = 2;
  /// Fraction of the NIC line rate TCP actually delivers (protocol
  /// overhead + the P4-era CPU bound); applied to every endpoint.
  double nic_efficiency = 0.7;
  /// At most trace::kMaxClients (65,535): client ids are 16-bit.
  std::size_t num_clients = 4;

  // --- power model ---------------------------------------------------
  /// Chassis power of one storage node excluding disks (CPU, memory,
  /// NIC, PSU loss).  Calibrated so that the modelled cluster lands in
  /// the paper's 4-8e5 J band with a ~17 % ceiling on disk savings.
  Watts node_base_watts = 50.0;

  // --- EEVFS policies ------------------------------------------------
  std::size_t prefetch_file_count = 70;  // Table II: 10, 40, 70, 100
  double idle_threshold_sec = 5.0;       // Table II
  PowerPolicy power_policy = PowerPolicy::kPredictive;
  /// kPredictive sleeps only when the predicted idle gap exceeds
  /// `sleep_margin` x break-even time (profit gate).
  double sleep_margin = 1.0;
  /// kPrefetch is the paper's PF, kNone its NPF.
  CachePolicy cache_policy = CachePolicy::kPrefetch;
  PlacementPolicy placement = PlacementPolicy::kPopularityRoundRobin;
  DiskPlacement disk_placement = DiskPlacement::kRoundRobin;
  /// PRE-BUD gate: drop prefetch candidates whose predicted energy
  /// benefit is negative.
  bool prebud_gate = true;
  /// Buffer-disk free space doubles as a write buffer (§III-C).
  bool write_buffering = true;
  /// Online mode (extension): the server gets NO workload foreknowledge.
  /// Placement is popularity-blind, nothing is prefetched up front, and
  /// every `refresh_interval_sec` the server re-ranks the per-file
  /// request counts it logged (§IV) and tells each node to update its
  /// buffered set — the adaptive system the paper's log-based design
  /// implies.  The refresh runs only under CachePolicy::kPrefetch.
  bool online_popularity = false;
  double refresh_interval_sec = 60.0;
  /// Intra-node striping width (paper §VII future work): each file is
  /// split over `stripe_width` consecutive data disks and read/written in
  /// parallel.  1 = whole-file placement (the paper's evaluated system).
  /// Striping trades energy (every miss spins up the whole stripe set)
  /// for service time — bench/ablation_striping quantifies it.
  std::size_t stripe_width = 1;

  // --- fault tolerance (robustness extension) --------------------------
  /// Copies of every file, on `replication_degree` distinct nodes
  /// (popularity round-robin continues past the primary).  1 = the
  /// paper's unreplicated system.  The server re-routes a request to the
  /// next healthy replica when the primary fails it.
  std::size_t replication_degree = 1;
  /// Client-side deadline per request attempt; 0 disables timeouts.
  /// Required (> 0) when fault_plan drops network messages — a dropped
  /// request would otherwise strand the run.
  double request_timeout_sec = 0.0;
  /// Re-issues the client attempts after a typed failure or timeout
  /// before counting the request as failed.
  std::size_t max_request_retries = 2;
  /// The fault schedule for this run (empty = fault-free, zero cost).
  /// A non-empty plan also arms the server's heartbeat monitor
  /// (StorageServer::begin_health_monitor).
  fault::FaultPlan fault_plan;

  // --- erasure coding (robustness extension) ---------------------------
  /// (n, k) MDS erasure placement: each file is striped into k data
  /// chunks plus n-k parity chunks on n distinct storage nodes; a read
  /// fork-joins k-of-n chunk requests and any k surviving chunks
  /// reconstruct the file (degraded read when a parity chunk is used).
  /// 0/0 = off (whole-file placement).  Mutually exclusive with
  /// replication_degree > 1 — the fault_tolerance bench compares the two.
  std::size_t ec_n = 0;
  std::size_t ec_k = 0;
  /// Delay before each straggler-hedge chunk request past the first k is
  /// dispatched; the j-th spare fires after j * ec_hedge_ms unless the
  /// read joined first (EventHandle cancellation).  The default sits
  /// comfortably above a typical chunk service time so hedges fire only
  /// for genuinely slow chunks — chunk FAILURES promote the next spare
  /// immediately and never wait on this timer.
  double ec_hedge_ms = 250.0;

  // --- RAM cache tier (multi-tier extension) ---------------------------
  /// Per-node in-memory cache above the buffer disk.  0 = disabled: the
  /// two-tier paper system, bit-identical to runs before this knob
  /// existed (goldens enforce that).
  Bytes ram_cache_bytes = 0;
  /// Admission/eviction policy for the RAM tier.
  RamCachePolicy ram_cache_policy = RamCachePolicy::kLru;

  // --- durability / crash recovery (robustness extension) --------------
  /// Write-ahead journal for the buffer-disk write buffer: a commit
  /// header is appended to the log after the payload lands and before the
  /// write is acked, so a crash-stopped node can rebuild its destage
  /// queue on restart.  kOff reproduces the lossy pre-journal behaviour
  /// (acked buffered writes die with the node's RAM index); kCommit
  /// truncates the log only when it drains; kCheckpoint adds a durable
  /// checkpoint record every few destages (disk::JournalParams), paying
  /// steady-state I/O for a shorter replay.
  disk::JournalMode journal_mode = disk::JournalMode::kCommit;

  /// Structured event tracing (src/obs).  Disabled by default; enabling
  /// it never changes RunMetrics — tests/test_obs.cpp enforces that.
  obs::TracerConfig trace;

  std::uint64_t seed = 1;

  /// When set, every storage-node disk uses this profile instead of the
  /// Table I ATA profiles (e.g. disk::DiskProfile::drpm() for the
  /// multi-speed baseline, or a custom drive).
  std::optional<disk::DiskProfile> disk_profile_override;

  /// Disk profile for a node; type-2 nodes get the slower ATA disk
  /// unless `disk_profile_override` is set.
  disk::DiskProfile node_disk_profile(NodeId node) const;
  bool is_type2(NodeId node) const;
  double node_nic_mbps(NodeId node) const;

  /// Throws std::invalid_argument on nonsensical combinations.
  void validate() const;
};

}  // namespace eevfs::core
