// Run metrics — exactly the three the paper evaluates (§V-C): energy
// consumption, number of power state transitions, and response time —
// plus their breakdown and the run's registry snapshot, which carries
// every other count (hit rates, queueing, faults, recovery, erasure).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "disk/energy_meter.hpp"
#include "obs/counters.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace eevfs::core {

/// Typed outcome of one client request, end to end.  Anything except kOk
/// means the request did NOT deliver data; the request layer (Cluster)
/// retries or records a failure — nothing in the stack hangs or throws on
/// a fault.
enum class RequestStatus {
  kOk = 0,
  kDiskUnavailable,   // the file's disks (and any buffered copy) are gone
  kNodeUnavailable,   // the owning node is crashed / marked dead
  kNoReplica,         // every replica was tried and none could serve
  kTimedOut,          // the per-request deadline expired (client-side)
};

constexpr std::string_view to_string(RequestStatus s) {
  switch (s) {
    case RequestStatus::kOk: return "ok";
    case RequestStatus::kDiskUnavailable: return "disk_unavailable";
    case RequestStatus::kNodeUnavailable: return "node_unavailable";
    case RequestStatus::kNoReplica: return "no_replica";
    case RequestStatus::kTimedOut: return "timed_out";
  }
  return "?";
}

constexpr bool request_ok(RequestStatus s) { return s == RequestStatus::kOk; }

/// One node's meters: the per-node data the benches and examples read.
/// Counts are not kept here — every node counts into the run's registry
/// (RunMetrics::counters), which sums the nodes.
struct NodeMetrics {
  std::string label;
  Joules disk_joules = 0.0;
  Joules base_joules = 0.0;
  std::uint64_t spin_ups = 0;
  std::uint64_t spin_downs = 0;
  Tick data_disk_standby_ticks = 0;
  disk::EnergyMeter data_disk_meter;    // aggregated over the node's data disks
  disk::EnergyMeter buffer_disk_meter;  // aggregated over buffer disks

  Joules total_joules() const { return disk_joules + base_joules; }
  std::uint64_t power_transitions() const { return spin_ups + spin_downs; }
};

/// The RAM tier's run totals, filled once from the run's `ramcache.*`
/// counters (all zero when the tier is off).  hit_rate() is the one place
/// the run's hit rate is worked out; `ramcache.hit_rate.ratio` is set
/// from it.
struct RamCacheMetrics {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writes_absorbed = 0;

  double hit_rate() const {
    const std::uint64_t lookups = hits + misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

struct RunMetrics {
  // --- paper metrics ---------------------------------------------------
  Joules total_joules = 0.0;            // all storage nodes, disks + base
  std::uint64_t power_transitions = 0;  // spin-ups + spin-downs, data disks
  /// One sample per successful request: the successful attempt's own
  /// issue-to-response time (retries are not summed in).
  OnlineStats response_time_sec;
  /// Percentiles of the same samples pooled over every client, read from
  /// the `client.request_latency.us` histogram: never below the exact
  /// nearest-rank value and less than 2^-7 above it.
  double response_p95_sec = 0.0;
  double response_p99_sec = 0.0;

  // --- decomposition ---------------------------------------------------
  Joules disk_joules = 0.0;
  Joules base_joules = 0.0;
  std::uint64_t spin_ups = 0;
  std::uint64_t spin_downs = 0;
  Tick makespan = 0;           // first issue to last response
  Tick prefetch_duration = 0;  // setup phase before replay starts
  std::uint64_t requests = 0;  // issued, each once whatever its retries
  std::uint64_t buffer_hits = 0;    // read served by a buffer disk
  std::uint64_t data_disk_reads = 0;
  std::uint64_t wakeups_on_demand = 0;  // request found its disk asleep
  Bytes bytes_served = 0;
  Bytes bytes_prefetched = 0;
  std::vector<NodeMetrics> per_node;

  /// Filled once from the registry at run end; see RamCacheMetrics.
  RamCacheMetrics ram;

  // --- observability ---------------------------------------------------
  /// Deterministic snapshot of the run's metric registry, sorted by name
  /// (`component.metric.unit`, see docs/observability.md).  Every name is
  /// present on every run — zero-valued counters included — and the
  /// values are identical whether event tracing was enabled or not.  It
  /// is the one store of every count the headline fields above do not
  /// carry: availability, recovery, erasure coding, the RAM tier.
  std::vector<obs::Sample> counters;

  /// The snapshot entry named `name`; throws std::out_of_range when the
  /// run registered no such metric.
  const obs::Sample& metric(std::string_view name) const;
  /// A counter's value: metric(name).value as an integer.
  std::uint64_t count(std::string_view name) const {
    return static_cast<std::uint64_t>(metric(name).value);
  }

  /// Fraction of the issued requests that did not fail
  /// (1 - client.failed_requests.count / requests).
  double availability() const;
  /// Requests that recovered from a fault: re-issued by their client
  /// (client.retried_requests.count) or rerouted by the server within one
  /// attempt (server.requests_rerouted.count).
  std::uint64_t retried_requests() const;
  /// Mean crash-to-recovered time over the completed recovery episodes
  /// (recovery.mttr.us), 0 without one.
  double recovery_mttr_sec() const;
  /// Mean heartbeat-observed dead time over the nodes marked alive again
  /// (server.recovered_dead_time.us per server.heartbeat_recoveries.count).
  double heartbeat_mttr_sec() const;

  double buffer_hit_rate() const {
    const auto reads = buffer_hits + data_disk_reads;
    return reads ? static_cast<double>(buffer_hits) /
                       static_cast<double>(reads)
                 : 0.0;
  }

  /// Reliability wear: start-stop (or speed-ramp) cycles per data disk
  /// per hour of run time.  The paper (§VI-B) flags that small energy
  /// wins at high transition counts "may not be worth the stress put on
  /// the hard drives"; compare against DiskProfile::duty_cycle_rating.
  double duty_cycles_per_disk_hour(std::size_t num_data_disks) const;

  /// Energy-efficiency gain of this run relative to `baseline` (e.g. the
  /// NPF run), as a fraction: 0.15 = 15 % less energy.
  double energy_gain_vs(const RunMetrics& baseline) const;

  /// Response-time degradation relative to `baseline` as a fraction:
  /// 0.37 = 37 % slower.
  double response_penalty_vs(const RunMetrics& baseline) const;

  /// One-line human-readable summary.
  std::string summary() const;
};

}  // namespace eevfs::core
