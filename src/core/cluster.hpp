// The EEVFS facade: builds the simulated cluster from a ClusterConfig,
// executes the paper's six-step process flow (Fig. 2) against a
// workload, and returns the run metrics.
//
//   Step 1  initialisation: server connects to the nodes
//   Step 2  server derives file popularity (history trace / request log)
//   Step 3  placement + create files + prefetch popular files
//   Step 4  access-pattern hints forwarded to the nodes
//   Step 5  clients submit requests through the server
//   Step 6  nodes return data directly to the clients
//
// Robustness extension: the cluster also arms the fault injector from
// config.fault_plan, runs the server's health monitor while faults are
// live, and drives the client-side retry/timeout loop — a request gets a
// per-attempt deadline and up to max_request_retries re-issues before it
// is recorded as failed (typed, never a hang or a crash).
//
// A Cluster object is single-use: construct, run(), inspect.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/client.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/recovery_manager.hpp"
#include "core/storage_node.hpp"
#include "core/storage_server.hpp"
#include "fault/fault_injector.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "trace/record.hpp"
#include "util/units.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"

namespace eevfs::core {

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Runs the full process flow over `workload` and returns the metrics
  /// (metered from t=0, i.e. including the prefetch phase, until the last
  /// response — plus the final write-buffer destage if any).
  RunMetrics run(const workload::Workload& workload);

  /// Streaming variant for datacenter-scale runs: requests come from a
  /// lazily-evaluated stream and are never fully materialized.  Setup
  /// folds one pass into exact popularity aggregates; replay pulls a
  /// bounded look-ahead window from a second pass.  Differences from
  /// run(): nodes get per-file access COUNT summaries instead of exact
  /// arrival timelines (power hints are modeled as evenly spaced), the
  /// server's request log is disabled, and online popularity mode is
  /// not supported.
  RunMetrics run_stream(const workload::StreamingWorkload& workload);

  /// High-water mark of replay records resident at once during
  /// run_stream (look-ahead window + client backlogs) — the per-cell
  /// memory-budget figure the scalability bench reports.
  std::size_t stream_peak_resident_records() const {
    return stream_peak_resident_;
  }

  // Post-run introspection (valid after run()).
  const StorageServer& server() const { return *server_; }
  const StorageNode& node(std::size_t i) const { return *nodes_.at(i); }
  std::size_t num_nodes() const { return nodes_.size(); }
  const net::NetworkFabric& network() const { return *net_; }
  const ClusterConfig& config() const { return config_; }
  /// Null on fault-free runs.
  const fault::FaultInjector* injector() const { return injector_.get(); }
  /// Null on fault-free runs (armed alongside the injector).
  const RecoveryManager* recovery() const { return recovery_.get(); }

  /// The run's event tracer (configured from config.trace; empty when
  /// tracing was disabled).  Valid after run(); use its write_jsonl /
  /// write_chrome_trace / write_binary sinks to export the timeline.
  const obs::Tracer& tracer() const { return *tracer_; }
  /// The run's metric registry.  RunMetrics::counters is its snapshot.
  const obs::Registry& registry() const { return *registry_; }
  /// Wall-clock seconds the event loop spent executing this run —
  /// diagnostic only (report meta), never part of RunMetrics.
  double wall_seconds() const { return sim_ ? sim_->wall_seconds() : 0.0; }
  /// Simulation events the event loop executed for this run — the
  /// throughput denominator for the perf smoke (events / wall second).
  std::uint64_t executed_events() const {
    return sim_ ? sim_->executed_events() : 0;
  }

 private:
  /// Everything workload-independent: sim, fabric, server, nodes,
  /// clients, observability plumbing.
  void build_infra();
  /// Fault-plan arming (no-op for an empty plan); after ingest so the
  /// recovery manager sees the final node set.
  void arm_faults();
  void build(const workload::Workload& workload);
  void build_stream(const workload::StreamingWorkload& workload);
  /// Shared run skeleton: prefetch barrier, then `start(replay_start)`,
  /// then drain + finish checks.
  RunMetrics run_phase(const std::function<void(Tick)>& start);
  void start_replay(const workload::Workload& workload, Tick replay_start);
  void start_stream_replay(Tick replay_start);
  /// Pulls stream records due within the look-ahead window into the
  /// per-client queues, waking idle clients; re-arms itself at the next
  /// record's window entry.
  void pump_stream(Tick replay_start);
  void issue_next(std::size_t client_idx, Tick replay_start);
  /// One attempt of one request: deadline-guarded, typed completion.
  void start_attempt(std::size_t client_idx, const trace::TraceRecord& r,
                     Tick replay_start, std::size_t attempt);
  /// Advances the client's replay chain and the run-completion count.
  void complete_request(std::size_t client_idx, Tick replay_start);
  void finish_run();
  /// Registers every counter name (zero-valued ones included) and fills
  /// metrics_.counters with the registry snapshot.
  void snapshot_counters();

  ClusterConfig config_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::Histogram* hist_queue_wait_ = nullptr;
  obs::Histogram* hist_req_latency_ = nullptr;
  obs::Histogram* hist_ram_hit_bytes_ = nullptr;
  obs::Histogram* hist_ram_miss_bytes_ = nullptr;
  obs::StringId ev_client_request_ = 0;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::NetworkFabric> net_;
  std::unique_ptr<StorageServer> server_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::vector<Client> clients_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<RecoveryManager> recovery_;
  RecoveryManager::Histograms recovery_hists_;

  std::size_t responses_outstanding_ = 0;
  bool all_issued_ = false;
  std::vector<std::deque<trace::TraceRecord>> replay_queues_;
  bool finished_ = false;
  RunMetrics metrics_;

  // streaming replay state (run_stream only)
  std::unique_ptr<workload::RequestStream> stream_;
  trace::TraceRecord stream_pending_{};
  bool stream_has_pending_ = false;
  bool stream_mode_ = false;
  /// Clients that drained their queue and await the pump.
  std::vector<bool> client_waiting_;
  sim::EventHandle pump_timer_;
  std::size_t stream_resident_ = 0;
  std::size_t stream_peak_resident_ = 0;

  // client-level availability accounting
  std::uint64_t failed_requests_ = 0;
  std::uint64_t timed_out_requests_ = 0;
  std::uint64_t client_retries_ = 0;
  std::uint64_t recovered_by_retry_ = 0;
};

/// Convenience for the benches: run the same workload with and without
/// prefetching (PF vs NPF) and return both metric sets.
struct PfNpfComparison {
  RunMetrics pf;
  RunMetrics npf;
  double energy_gain() const { return pf.energy_gain_vs(npf); }
  double response_penalty() const { return pf.response_penalty_vs(npf); }
};
PfNpfComparison run_pf_npf(const ClusterConfig& config,
                           const workload::Workload& workload);

}  // namespace eevfs::core
