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

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
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
#include "util/fifo_ring.hpp"
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
  /// response — plus the final write-buffer destage if any).  Nodes get
  /// each file's exact access offsets as power hints.
  RunMetrics run(const workload::Workload& workload);

  /// Streaming variant for datacenter-scale runs: requests come from a
  /// lazily-evaluated stream and are never fully materialized.  Same
  /// build and replay as run(); the differences are that nodes get
  /// per-file access COUNTS instead of exact arrival timelines (power
  /// hints are modeled as evenly spaced) and that online popularity mode
  /// is not supported.  Throws std::invalid_argument, before simulating,
  /// when a pass yields a different record count than num_requests.
  RunMetrics run_stream(const workload::StreamingWorkload& workload);

  /// High-water mark of replay records read ahead of their issue (the
  /// per-client queues), for run() and run_stream() alike — the per-cell
  /// memory figure the scalability bench reports.  Replay reads the
  /// requests only when a client needs its next record, and only until
  /// that record appears: about clients x ln(requests) with clients
  /// assigned uniformly; a client that goes idle makes the pull read
  /// ahead to its next record.
  std::size_t stream_peak_resident_records() const { return peak_resident_; }

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

  /// The run's event tracer (configured from config.trace; empty, its
  /// string table included, when tracing was disabled).  Valid after
  /// run(); use its write_jsonl / write_chrome_trace / write_binary
  /// sinks to export the timeline.
  const obs::Tracer& tracer() const { return *tracer_; }
  /// The run's metric registry: every component counts into it, and
  /// RunMetrics::counters is its snapshot at the end of the run.
  const obs::Registry& registry() const { return *registry_; }
  /// Wall-clock seconds the event loop spent executing this run —
  /// diagnostic only (report meta), never part of RunMetrics.
  double wall_seconds() const { return sim_ ? sim_->wall_seconds() : 0.0; }
  /// Simulation events the event loop executed for this run: the items
  /// of bench/micro_benchmarks' event-throughput scenarios.
  std::uint64_t executed_events() const {
    return sim_ ? sim_->executed_events() : 0;
  }

 private:
  /// Everything workload-independent: sim, fabric, server, nodes,
  /// clients, observability plumbing.
  void build_infra();
  /// The tracer components are handed: null unless config.trace.enabled,
  /// so an untraced run interns no string.
  obs::Tracer* observer() const {
    return config_.trace.enabled ? tracer_.get() : nullptr;
  }
  /// Fault-plan arming (no-op for an empty plan); after ingest so the
  /// recovery manager sees the final node set.
  void arm_faults();
  /// Steps 1-4 over the requests `open` makes passes of: one pass ranks
  /// the files (skipped in online mode, which learns them from the
  /// request log), then placement, then hints — exact offsets read in a
  /// second pass when `exact_hints`, else modeled from per-file counts.
  /// Opens the replay pass last.
  void build(const std::vector<Bytes>& file_sizes, std::size_t num_requests,
             const workload::PassFactory& open, bool exact_hints);
  /// Run skeleton: prefetch barrier, replay, then drain + finish checks.
  RunMetrics run_phase();
  void start_replay(Tick replay_start);
  /// The client's next unissued record: reads the replay pass until one
  /// for this client appears, queueing the other clients' records on the
  /// way.  Null when the pass holds no more for this client.
  const trace::TraceRecord* next_record(std::size_t client_idx);
  void issue_next(std::size_t client_idx, Tick replay_start);
  /// One attempt of one request: deadline-guarded, typed completion.
  void start_attempt(std::size_t client_idx, const trace::TraceRecord& r,
                     Tick replay_start, std::size_t attempt);
  /// Advances the client's replay chain and the run-completion count.
  void complete_request(std::size_t client_idx, Tick replay_start);
  /// Trace-string ids of a client's track and of a status, interned on
  /// first use so the tracer's string table keeps its first-seen order.
  obs::StringId client_track(std::size_t client_idx);
  obs::StringId status_name(RequestStatus st);
  void finish_run();
  /// Folds the device, engine and energy totals into the registry and
  /// fills metrics_.counters with its snapshot.
  void snapshot_counters();

  /// The client bookkeeping's registry handles.
  struct ClientMetrics {
    obs::Registry& r;
    obs::Counter& requests = r.counter("client.requests.count");
    obs::Counter& retries = r.counter("client.retries.count");
    obs::Counter& timeouts = r.counter("client.timeouts.count");
    obs::Counter& failed = r.counter("client.failed_requests.count");
    /// Needed more than one attempt but recovered (see
    /// RunMetrics::retried_requests).
    obs::Counter& retried = r.counter("client.retried_requests.count");
    obs::Histogram& latency = r.histogram("client.request_latency.us");
  };

  ClusterConfig config_;
  std::unique_ptr<obs::Registry> registry_;
  std::unique_ptr<obs::Tracer> tracer_;
  std::optional<ClientMetrics> client_metrics_;
  obs::StringId ev_client_request_ = 0;
  std::vector<obs::StringId> client_tracks_;
  /// Indexed by RequestStatus; kTimedOut is the last status.
  std::array<obs::StringId,
             static_cast<std::size_t>(RequestStatus::kTimedOut) + 1>
      status_names_{};
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<net::NetworkFabric> net_;
  std::unique_ptr<StorageServer> server_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  std::vector<Client> clients_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<RecoveryManager> recovery_;

  std::size_t responses_outstanding_ = 0;
  bool finished_ = false;
  RunMetrics metrics_;

  // Replay state: the pass being replayed (null once exhausted) and each
  // client's records read from it but not yet issued.
  std::unique_ptr<workload::RequestStream> replay_;
  std::vector<FifoRing<trace::TraceRecord>> queues_;
  std::size_t resident_ = 0;
  std::size_t peak_resident_ = 0;
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
