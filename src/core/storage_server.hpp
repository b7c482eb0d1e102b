// The storage server (paper §III-A): the metadata/routing front end.  It
// knows only which *node* holds each file — never which disk (§IV-D) —
// derives popularity from a history trace (or, online, from per-file
// request counts), performs the popularity round-robin placement, splits
// the access pattern per node, and forwards client requests to the owning
// node.
//
// Robustness extension: the server is also the failover point.  Files can
// be placed on `replication_degree` nodes; when a node fails a request
// (typed reply) the server remembers what went wrong — a dead node, or a
// (file, node) pair whose disks are gone — and re-routes to the next
// healthy replica.  A periodic heartbeat over the fabric marks nodes dead
// after kHeartbeatMissThreshold silent rounds and revives them when they
// answer again, feeding the availability metrics (degraded time, MTTR).
//
// Replica ordering: candidates the server believes healthy are tried
// first (placement order), then heartbeat-dead-marked nodes as a last
// resort — never skipped outright.  Heartbeats ride the lossy fabric, so
// a dead mark can be a false positive (or a node that restarted before
// the next beat); trying the marked node inside the SAME client attempt
// means a dead-marked primary never consumes a client retry budget slot.
// Only (file, node) pairs that failed with kDiskUnavailable are dropped
// entirely — the platters are gone, a retry cannot help.
//
// Erasure mode (set_erasure): files are (n, k) chunk-striped instead of
// replicated.  A read fork-joins chunk requests — the first k eligible
// chunks dispatch immediately, the n-k spares arm staggered hedge timers
// (EventHandles) that are cancelled when the k-th chunk arrives; a chunk
// failure promotes the earliest hedge to fire now.  A join that used a
// parity chunk is a degraded read: it pays the modeled decode time and
// books the extra spindle energy the parity transfer cost.  Writes fan
// out to every reachable chunk holder and ack once all dispatched chunk
// writes settle with at least k successes; missed holders are recorded
// stale for the recovery manager's repair phase, which hands back
// (mark_stale) every copy it does not rebuild.
//
// Counts go straight into the obs::Registry the server is built with: the
// server.* and ec.* names (docs/observability.md).
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/metadata.hpp"
#include "core/metrics.hpp"
#include "core/storage_node.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "trace/access_log.hpp"
#include "trace/record.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"
#include "workload/stream.hpp"

namespace eevfs::core {

class StorageServer {
 public:
  /// Final outcome of one routed request.
  using RouteCallback = std::function<void(Tick completed, RequestStatus)>;

  /// Registers the server.* and ec.* metric names in `registry` and
  /// counts into it from then on.
  StorageServer(sim::Simulator& sim, net::NetworkFabric& net,
                net::EndpointId self, PlacementPolicy placement,
                std::uint64_t seed, obs::Registry& registry);

  net::EndpointId endpoint() const { return self_; }

  /// Step 1: the server connects to its storage nodes.
  void register_nodes(std::vector<StorageNode*> nodes);

  /// Step 2: derive popularity.  The prototype learns the pattern from a
  /// history trace (paper §IV-A: "uses a trace to replay file access
  /// patterns and bases the file popularity on information gathered from
  /// traces"); the cluster folds one pass over the requests into it.  In
  /// online mode it is empty: popularity is learned from the request log
  /// instead.
  void ingest_popularity(trace::PopularityAnalyzer popularity);

  /// How many copies of every file place_and_create lays out (clamped to
  /// the node count; 1 = the paper's unreplicated system).
  void set_replication_degree(std::size_t degree) {
    replication_degree_ = degree;
  }

  /// Erasure-coding parameters; n == 0 keeps whole-file placement.
  struct ErasureParams {
    std::size_t n = 0;
    std::size_t k = 0;
    /// Stagger between hedge dispatches past the first k chunks.
    Tick hedge_delay = 0;
    /// Modeled spindle energy per byte transferred off a platter — the
    /// degraded-read energy estimate charges this for every parity byte
    /// a join pulled in.
    double joules_per_byte = 0.0;
  };

  /// Switches place_and_create + route into (n, k) erasure mode.  Call
  /// before place_and_create; mutually exclusive with a replication
  /// degree > 1 (ClusterConfig::validate enforces that).  The file table
  /// then says which files are coded and their k (metadata()).
  void set_erasure(ErasureParams params);
  /// Modeled decode time for reconstructing `bytes` of payload.
  Tick ec_decode_ticks(Bytes bytes) const;

  /// Recovery's repair phase reports each rebuilt chunk (and the decode
  /// time it paid) here so the erasure accounting stays in one place.
  void note_chunk_repaired(Tick decode_ticks);

  /// Step 3: place every file and issue create-file calls to the nodes
  /// in popularity order (drives their local disk round-robin).
  void place_and_create(const std::vector<Bytes>& file_sizes);

  /// Step 4: split the access pattern per node and forward it
  /// (application hints, §IV-C) to each file's serving holders (see
  /// serving_holders).  The offsets live once, in one hint arena this
  /// server owns: file-major by FileId, each file's slot sized from its
  /// ingested access count, 8 bytes per request.  Every serving holder
  /// receives views into it (StorageNode::receive_access_pattern), so the
  /// arena must outlive every node's plan_prefetch; release_hints()
  /// frees it after that.  `exact` is a fresh pass over the requests:
  /// the arena holds each file's exact access offsets, and a pass whose
  /// count for any file differs from the ingested one throws
  /// std::invalid_argument naming the file.  Without one — a stream,
  /// whose offsets would materialize the whole run — each file's
  /// ingested access count is modeled as evenly spaced over `horizon`:
  /// midpoint spacing, so a count-c file is expected at (2i+1)·H/2c, the
  /// constant-rate view the predictive power policy takes.
  void distribute_patterns(Tick horizon,
                           std::unique_ptr<workload::RequestStream> exact);

  /// Frees the hint arena.  Call once every node has planned
  /// (StorageNode::plan_prefetch), the last reader of its views.
  void release_hints() { hint_arena_ = std::vector<Tick>(); }

  /// This node-indexed slice of the globally top-`k` files, each slice in
  /// global rank order — the prefetch instruction of step 3.  Serving
  /// holders only.
  std::vector<std::vector<trace::FileId>> prefetch_candidates(
      std::size_t k) const;

  /// Online mode (extension): while the refresh runs, the request log
  /// counts every routed request per file; every `interval` the server
  /// re-ranks those counts, takes the global top-`k`, and tells each
  /// serving holder to update its buffered set.  Runs until
  /// stop_online_refresh().
  void begin_online_refresh(std::size_t k, Tick interval);
  void stop_online_refresh();

  /// Heartbeat period, and the consecutive silent rounds after which the
  /// monitor marks a node dead.
  static constexpr Tick kHeartbeatInterval = seconds_to_ticks(1.0);
  static constexpr std::size_t kHeartbeatMissThreshold = 3;
  /// Health monitor: every kHeartbeatInterval the server pings each node
  /// over the fabric; a node that stays silent for kHeartbeatMissThreshold
  /// consecutive rounds is marked dead (and routed around) until it
  /// answers again.
  void begin_health_monitor();
  /// Stops the heartbeat and adds the dead time of nodes still marked
  /// dead to server.degraded_time.us.  Call once, at run end.
  void stop_health_monitor();

  /// Steps 5-6: route one request.  Called when the client's control
  /// message reaches the server; forwards a control message to a replica
  /// node, which then serves the client directly.  On a typed failure the
  /// server tries the next healthy replica; `on_done` fires exactly once
  /// with the final outcome (kNoReplica when every copy is gone).
  void route(const trace::TraceRecord& r, net::EndpointId client,
             RouteCallback on_done);

  /// Attaches the tracer (may be null): emits server.failover,
  /// server.node_dead / server.node_alive, and server.refresh instants on
  /// the "server" track.
  void set_observer(obs::Tracer* tracer);

  /// The file table place_and_create built: routing, the recovery
  /// manager's repair donors and the tests all read this one copy.
  const ServerMetadata& metadata() const { return metadata_; }
  /// Per-file counts of the requests routed while online refresh ran
  /// (over no files on offline runs).
  const trace::AccessLog& request_log() const { return log_; }
  const trace::PopularityAnalyzer* popularity() const {
    return analyzer_ ? &*analyzer_ : nullptr;
  }

  bool node_dead(NodeId n) const { return health_.at(n).dead; }
  /// Files whose latest write landed elsewhere while node `n` was out
  /// (on a failover replica, or on the other chunk holders) — the repair
  /// work list for `n`'s recovery.  Returns the files in ascending id
  /// order and clears the list (the caller owns the repair from here).
  std::vector<trace::FileId> take_stale_files(NodeId n);
  /// Hands node `n`'s stale copy of `f` back after take_stale_files: a
  /// repair that was skipped, failed or abandoned.  The next
  /// take_stale_files(n) returns it again.
  void mark_stale(NodeId n, trace::FileId f) { stale_files_.at(n).insert(f); }

 private:
  struct NodeHealth {
    bool dead = false;
    std::size_t missed = 0;
    Tick dead_since = 0;
    bool ping_in_flight = false;
  };

  /// One in-flight erasure read: fork-join state shared by every chunk
  /// completion and hedge timer it spawned.  Heap-held (shared_ptr) so a
  /// straggler completing after the join still finds live state.
  struct EcReadOp {
    trace::TraceRecord r;
    net::EndpointId client = 0;
    std::span<const NodeId> chunk_node;  // indexed by chunk id
    std::vector<std::size_t> candidates; // chunk ids, dispatch order
    Bytes chunk_bytes = 0;
    std::size_t need = 0;        // k
    std::size_t arrived = 0;     // chunks delivered ok (pre-join)
    std::size_t outstanding = 0; // dispatched, not yet settled
    std::size_t next = 0;        // next candidate index to dispatch
    std::size_t parity_used = 0; // arrived chunks with id >= k
    /// A fault shaped this read: a data-chunk holder was excluded or
    /// dead-marked at dispatch time, or a dispatched chunk failed.
    /// Distinguishes a DEGRADED join (served around a fault) from a
    /// hedge join (a parity chunk merely won the race).
    bool faulty = false;
    bool settled = false;
    std::vector<sim::EventHandle> hedges;  // armed spare dispatch timers
    RouteCallback on_done;
  };

  /// The nodes that serve reads of `f`, and so get its hints and its
  /// prefetch copies: the primary (secondary replicas serve cold, woken
  /// only by failover traffic), or under erasure the first k chunk
  /// holders (the data chunks; parity holders stay cold until a degraded
  /// read or repair pulls them in).
  std::span<const NodeId> serving_holders(trace::FileId f) const;
  /// The order to try `f`'s holders in, as positions in `holders`, for
  /// replicas and erasure chunks alike: believed-healthy nodes first
  /// (placement order), heartbeat-dead-marked nodes last, known
  /// (file, node) kDiskUnavailable pairs dropped.
  std::vector<std::size_t> holder_order(
      trace::FileId f, std::span<const NodeId> holders) const;
  void try_replica(const trace::TraceRecord& r, net::EndpointId client,
                   std::vector<NodeId> candidates, std::size_t idx,
                   NodeId primary, RouteCallback on_done);
  void ec_route(const trace::TraceRecord& r, net::EndpointId client,
                const ServerFileEntry& entry, RouteCallback on_done);
  void ec_dispatch_next(const std::shared_ptr<EcReadOp>& op);
  void ec_chunk_done(const std::shared_ptr<EcReadOp>& op, std::size_t chunk,
                     Tick t, RequestStatus st);
  void ec_join(const std::shared_ptr<EcReadOp>& op, Tick t);
  void ec_fail(const std::shared_ptr<EcReadOp>& op);
  void ec_write(const trace::TraceRecord& r, net::EndpointId client,
                const ServerFileEntry& entry, RouteCallback on_done);
  /// Marks an erasure read settled and cancels its pending hedge timers.
  void settle(EcReadOp& op);
  /// Node `n` failed a request for `f` with `st` at `t`: a
  /// kDiskUnavailable pair is skipped from then on and a kNodeUnavailable
  /// node is marked dead; counts and traces the failover.
  void note_holder_failure(trace::FileId f, NodeId n, RequestStatus st,
                           Tick t);
  /// Counts a request no holder can serve and settles it kNoReplica on
  /// the next tick.
  void fail_next_tick(RouteCallback on_done);
  void mark_dead(NodeId n);
  void mark_alive(NodeId n);
  void heartbeat_round();

  sim::Simulator& sim_;
  net::NetworkFabric& net_;
  net::EndpointId self_;
  PlacementPolicy placement_policy_;
  Rng rng_;

  std::vector<StorageNode*> nodes_;
  std::optional<trace::PopularityAnalyzer> analyzer_;
  /// Immutable once place_and_create built it, so in-flight requests
  /// (route, the erasure fork-joins) and the recovery manager may hold
  /// ServerFileEntry views and holder spans into it: this server owns
  /// the table for as long as any of them can run.
  ServerMetadata metadata_;
  /// The hint arena distribute_patterns fills; empty after
  /// release_hints().
  std::vector<Tick> hint_arena_;
  trace::AccessLog log_;
  std::size_t replication_degree_ = 1;
  sim::EventHandle refresh_timer_;

  // failover + health state
  std::vector<NodeHealth> health_;
  /// (file, node) pairs a node failed with kDiskUnavailable: no live copy
  /// of the file remains there, so routing skips it from then on.
  std::set<std::pair<trace::FileId, NodeId>> unavailable_;
  /// Per node: files written on a failover replica while this node was
  /// skipped (dead or unavailable) — its copy is now behind.
  std::vector<std::set<trace::FileId>> stale_files_;
  sim::EventHandle heartbeat_timer_;

  // erasure coding
  ErasureParams ec_;

  // --- metrics: registry handles, taken once at construction ------------
  struct Metrics {
    obs::Registry& r;
    obs::Counter& routed = r.counter("server.requests_routed.count");
    obs::Counter& rerouted = r.counter("server.requests_rerouted.count");
    obs::Counter& failed = r.counter("server.requests_failed.count");
    obs::Counter& failovers = r.counter("server.failovers.count");
    obs::Counter& refreshes = r.counter("server.refreshes.count");
    obs::Counter& heartbeat_recoveries =
        r.counter("server.heartbeat_recoveries.count");
    /// Dead time of the completed episodes (the heartbeat MTTR's input).
    obs::Counter& recovered_dead_time =
        r.counter("server.recovered_dead_time.us");
    /// Completed episodes and, when the monitor stops, the open ones.
    obs::Counter& degraded_time = r.counter("server.degraded_time.us");
    obs::Counter& ec_reads = r.counter("ec.reads.count");
    obs::Counter& ec_degraded_reads = r.counter("ec.degraded_reads.count");
    obs::Counter& ec_reconstructions = r.counter("ec.reconstructions.count");
    obs::Counter& ec_chunk_requests = r.counter("ec.chunk_requests.count");
    obs::Counter& ec_straggler_chunks = r.counter("ec.straggler_chunks.count");
    obs::Counter& ec_hedges_launched = r.counter("ec.hedges_launched.count");
    obs::Counter& ec_hedges_cancelled = r.counter("ec.hedges_cancelled.count");
    obs::Counter& ec_repaired_chunks = r.counter("ec.repaired_chunks.count");
    /// Decode time charged, reads and repairs.
    obs::Counter& ec_decode_time = r.counter("ec.decode_time.us");
    obs::Gauge& ec_degraded_energy = r.gauge("ec.degraded_energy.joules");
    obs::Histogram& ec_reconstruct_time =
        r.histogram("ec.reconstruct_time.us");
  };
  Metrics metrics_;

  obs::Tracer* tracer_ = nullptr;
  obs::StringId track_ = 0;
  obs::StringId ev_failover_ = 0;
  obs::StringId ev_node_dead_ = 0;
  obs::StringId ev_node_alive_ = 0;
  obs::StringId ev_refresh_ = 0;
  obs::StringId ev_ec_join_ = 0;
  obs::StringId ev_ec_hedge_ = 0;
};

}  // namespace eevfs::core
