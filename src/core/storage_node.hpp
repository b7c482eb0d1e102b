// A storage node (paper §III-A): owns n data disks and one buffer disk
// (the paper's m = 1, Table I), keeps the node-local metadata (file ->
// disk) and the buffer index (which copies the buffer disk holds),
// executes the prefetch plan, serves reads/writes, and runs the power
// manager over its data disks.  The storage server never
// learns which disk inside a node holds a file (§IV-D, distributed
// metadata management).
//
// Fault behaviour (robustness extension): every serve carries a typed
// RequestStatus.  Disk I/O goes through a bounded-retry policy (media
// errors back off exponentially under a per-request deadline); a failed
// buffer disk degrades reads back to the data disks (availability kept,
// energy savings sacrificed and metered); a failed data disk is rescued
// from the buffered copy when one exists, else the request fails upward
// so the server can re-route to a replica.
//
// Crash-stop semantics (crash()/restart()): a crash models the service
// process dying, not the shelf losing power.  Every open serve settles
// with a typed kNodeUnavailable (connection reset); in-flight disk and
// network completions are dropped by an epoch guard; RAM-held state —
// the buffer-manager index, the destage queue, journal destage marks —
// is lost; platter contents (and the disks' power machinery) survive.
// Acked buffered writes whose destage had not landed are counted as lost
// (fault.lost_acked_writes.count) unless the write journal
// (disk/write_journal) can rebuild the destage queue on restart:
// replay_journal() re-queues every un-truncated journal record, skipping
// LSNs already queued so that a second replay (crash during recovery) is
// bit-identical — idempotent.
//
// Counts go straight into the obs::Registry the node is built with, where
// the event happens; every node registers the same names, so the registry
// sums the cluster (docs/observability.md lists them).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/buffer_manager.hpp"
#include "core/config.hpp"
#include "core/metadata.hpp"
#include "core/metrics.hpp"
#include "core/power_manager.hpp"
#include "core/prefetcher.hpp"
#include "core/ram_cache.hpp"
#include "disk/disk_model.hpp"
#include "disk/disk_profile.hpp"
#include "disk/write_journal.hpp"
#include "net/network.hpp"
#include "obs/counters.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::core {

struct NodeParams {
  NodeId id = 0;
  std::size_t data_disks = 2;
  disk::DiskProfile disk_profile;
  Watts base_watts = 50.0;
  PowerManager::Params power;
  CachePolicy cache_policy = CachePolicy::kPrefetch;
  bool write_buffering = true;
  bool prebud_gate = true;
  DiskPlacement disk_placement = DiskPlacement::kRoundRobin;
  /// Intra-node striping width (clamped to the data-disk count).
  std::size_t stripe_width = 1;
  /// Write-ahead journal for the buffer-disk write buffer (kOff
  /// reproduces the lossy pre-journal behaviour for ablation).
  disk::JournalParams journal;
  /// RAM cache tier above the buffer disk; 0 = disabled (two-tier
  /// behaviour bit-identical to the pre-RAM node).
  Bytes ram_cache_bytes = 0;
  RamCachePolicy ram_cache_policy = RamCachePolicy::kLru;
};

class StorageNode {
 public:
  /// Completion of one serve: `t` is the delivery/ack time on success;
  /// on failure it is when the node gave up.
  using ServeCallback = std::function<void(Tick t, RequestStatus status)>;

  /// Disk I/O retry policy (media errors): at most kMaxIoRetries retries,
  /// the n-th after a backoff of kIoRetryBackoff * 2^n, and none once
  /// the I/O would pass kIoDeadline since it was first issued.
  static constexpr std::size_t kMaxIoRetries = 4;
  static constexpr Tick kIoRetryBackoff = milliseconds_to_ticks(5.0);
  static constexpr Tick kIoDeadline = seconds_to_ticks(30.0);

  /// Registers the node's metric names in `registry` (the ramcache.*
  /// family only with a RAM tier) and counts into it from then on.
  /// Its disks and power manager refer to params.disk_profile, the one
  /// copy of the profile the node keeps.  Throws std::invalid_argument
  /// without data disks or with more than NodeMetadata::kMaxDisks.
  StorageNode(sim::Simulator& sim, net::NetworkFabric& net,
              net::EndpointId self, NodeParams params,
              obs::Registry& registry);

  StorageNode(const StorageNode&) = delete;
  StorageNode& operator=(const StorageNode&) = delete;

  NodeId id() const { return params_.id; }
  net::EndpointId endpoint() const { return self_; }

  // --- setup phase (process-flow steps 1-4) ------------------------------

  /// Announces how many create_file calls will follow, sizing the file
  /// table once; required before creating files under
  /// DiskPlacement::kConcentrate (PDC) so the node can split the
  /// popularity-ordered stream into per-disk bands.
  void expect_files(std::size_t count) {
    expected_files_ = count;
    meta_.reserve(count);
  }

  /// Creates a file; placement over the local data disks is round-robin
  /// in creation order (§III-B), or popularity-banded for PDC.
  void create_file(trace::FileId f, Bytes size);

  /// Receives this node's slice of the access pattern: one entry per
  /// served file, ascending by file, holding its sorted access offsets
  /// (relative to replay start), and the trace horizon.  The offsets are
  /// exact for a materialized trace and modeled from per-file counts for
  /// a stream (StorageServer::distribute_patterns).  They are views the
  /// node does not own: whoever owns them (the server's hint arena) keeps
  /// them alive until plan_prefetch has returned.  Throws
  /// std::invalid_argument unless the entries ascend strictly by file.
  void receive_access_pattern(std::vector<FileHints> hints, Tick horizon);

  /// Plans (PRE-BUD gate) the prefetch of `candidates` (this node's
  /// slice of the global top-K, rank order) and derives the residual
  /// per-disk pattern the power manager should expect.  Call with an
  /// empty list for NPF runs — the pattern derivation still happens.
  /// Planning builds each data disk's timeline once from the received
  /// views and then drops them: only each file's access count is kept,
  /// as its RAM admission weight.  The residual timelines outlive
  /// planning only under kHints/kOracle, whose power manager takes them
  /// in begin_replay; other policies keep just the expected gap.  The
  /// node keeps the plan, each candidate with its rank in `candidates`:
  /// rewarm_prefetch restores the plan after a crash.  Schedules no event.
  void plan_prefetch(const std::vector<trace::FileId>& candidates);

  /// Starts the copies plan_prefetch chose: pins the RAM share and
  /// copies the buffer share.  `done` fires when all of them settled.
  void warm_prefetch(std::function<void()> done);

  /// plan_prefetch, then warm_prefetch.
  void start_prefetch(const std::vector<trace::FileId>& candidates,
                      std::function<void()> done);

  /// Marks the start of trace replay (absolute sim time): hands the
  /// residual timelines to the power manager (hint/oracle policies),
  /// releases them, and arms the power manager.
  void begin_replay(Tick replay_start);

  /// Online mode: reconciles the buffered set against `wanted` (this
  /// node's slice of the current top-K, rank order).  Dropped files are
  /// evicted (metadata-only); new ones are copied in the background.
  void update_prefetch(const std::vector<trace::FileId>& wanted);

  // --- request path (steps 5-6) ---------------------------------------

  /// Serves a read and ships the data to `client`; `on_result` fires when
  /// the last byte reaches the client, or with a typed failure when the
  /// node cannot serve (crashed, disks gone, retries exhausted).
  void serve_read(trace::FileId f, net::EndpointId client,
                  ServeCallback on_result);

  /// Serves a write (buffer-disk log when possible, §III-C) and sends a
  /// small ack to `client`; typed failure when it cannot.
  void serve_write(trace::FileId f, Bytes bytes, net::EndpointId client,
                   ServeCallback on_result);

  // --- faults / crash recovery -----------------------------------------

  /// Whole-node crash-stop: every open serve settles kNodeUnavailable,
  /// in-flight IO effects are dropped, RAM state (buffer index, destage
  /// queue, journal marks) is lost, and every subsequent serve fails fast
  /// until restart().  Disk power state is left as-is — the model treats
  /// a crash as the service process dying, not the shelf losing power.
  void crash();
  void restart();
  bool alive() const { return alive_; }

  /// Recovery phase 1 — journal replay: scans the buffer-disk log and
  /// re-queues every un-truncated record for destage.  Idempotent: LSNs
  /// already queued are skipped, so replaying twice (a crash during
  /// recovery) leaves bit-identical state.  `done` fires with the number
  /// of records re-queued (0 with the journal off or on scan failure).
  void replay_journal(std::function<void(std::size_t replayed)> done);

  /// Recovery phase 2 helper — repair: writes the node's copy of `f` (the
  /// file image, or under erasure its chunk) to the local stripe set; the
  /// bytes just arrived over the fabric from the donors.  `done` reports
  /// whether the stripe write landed.
  void resync_write(trace::FileId f, std::function<void(Tick, bool)> done);

  /// Recovery phase 3 — prefetch re-warm: restores what warm_prefetch
  /// placed — re-pins the plan's RAM share and re-copies the files the
  /// PRE-BUD gate accepted onto the buffer disk, in rank order; the
  /// crash wiped both tiers, so the hot set serves from data disks until
  /// this completes.  `done` fires with the number of files re-pinned or
  /// re-buffered.
  void rewarm_prefetch(std::function<void(std::size_t rewarmed)> done);

  // --- teardown ----------------------------------------------------------

  bool has_pending_writes() const;
  /// Destages everything still in the write buffer to the data disks;
  /// `done` fires when the last destage completes.  Writes booked while
  /// the drain waits are forced through as well.  Destages whose data
  /// disk has failed are dropped (counted as stranded writes) so a dead
  /// disk cannot wedge the drain.
  void flush_pending_writes(std::function<void()> done);

  /// Ends the measured phase: stops the power manager (cancelling its
  /// pending sleep/wake marks so the simulation can drain) and the RAM
  /// flush timer, and adds the node's end-of-run figures to the registry
  /// (its modeled fault energy and its pinned RAM bytes).  Call once.
  void shutdown();

  /// Attaches the event tracer (may be null) to the node and everything
  /// it owns (disks, power manager).
  void set_observer(obs::Tracer* tracer);

  /// The node's meters as of sim.now().
  NodeMetrics collect_metrics();

  // --- introspection (tests, benches) ----------------------------------
  /// The buffer disk holds a landed copy of `f`.
  bool is_buffered(trace::FileId f) const;
  /// Primary data disk of a file (first stripe member).
  std::optional<std::size_t> data_disk_of(trace::FileId f) const;
  /// All data disks holding the file's stripes.
  std::vector<std::size_t> stripe_disks_of(trace::FileId f) const;
  const disk::DiskModel& data_disk(std::size_t i) const {
    return *data_disks_.at(i);
  }
  disk::DiskModel& mutable_data_disk(std::size_t i) {
    return *data_disks_.at(i);
  }
  const disk::DiskModel& buffer_disk() const { return buffer_disk_; }
  disk::DiskModel& mutable_buffer_disk() { return buffer_disk_; }
  std::size_t num_data_disks() const { return data_disks_.size(); }
  const PowerManager& power_manager() const { return *power_; }
  const NodeMetadata& metadata() const { return meta_; }
  const PrefetchPlan& prefetch_plan() const { return plan_; }
  /// Acked buffered writes currently awaiting destage (at risk in a
  /// crash when the journal is off).
  std::uint64_t undestaged_acked() const { return undestaged_acked_; }
  const disk::WriteJournal& journal() const { return journal_; }
  /// Null when the RAM tier is disabled.
  const RamCache* ram_cache() const { return ram_.get(); }

 private:
  struct PendingWrite {
    trace::FileId file = 0;
    Bytes bytes = 0;
    /// Journal LSN covering this write; 0 = unjournaled (journal off).
    std::uint64_t lsn = 0;
  };

  /// Submits a request to a data disk, with power-manager notification
  /// and on-demand-wake accounting.
  void submit_to_data_disk(std::size_t disk, disk::DiskRequest request);

  /// Submits one I/O to `target` and retries media errors with
  /// exponential backoff until the attempt budget or the per-I/O deadline
  /// runs out.  `done` receives the final status.
  void submit_with_retry(disk::DiskModel* target, Bytes bytes,
                         bool sequential, bool is_write, Tick issued,
                         std::size_t attempt,
                         std::function<void(Tick, disk::IoStatus)> done,
                         std::size_t power_managed_disk);
  static constexpr std::size_t kNotPowerManaged =
      static_cast<std::size_t>(-1);

  /// Issues one I/O of `bytes` split over the file's stripe set (random
  /// access); `done` fires when the last stripe completes, with the worst
  /// stripe status.
  void stripe_io(const LocalFileMeta& file, Bytes bytes, bool is_write,
                 bool notify_power_manager,
                 std::function<void(Tick, disk::IoStatus)> done);

  /// Reads one file off its stripe set and copies it into the buffer disk
  /// area (prefetch, online re-ranking, re-warm).  Faults abort the copy
  /// (the file just stays unbuffered); `done` always fires.
  void copy_into_buffer(trace::FileId f, std::function<void()> done);
  /// Writes `f`'s copy onto the buffer disk and marks its buffer-index
  /// entry landed (a no-op when the entry was evicted meanwhile).  The
  /// caller has already inserted `f` into the buffer index; the entry is
  /// dropped again when the disk is dead or the write fails.
  /// `done(landed)` always fires, with false under a stale epoch.
  template <typename Done>
  void write_buffer_copy(trace::FileId f, Done done);
  /// Pins `hot` into RAM and copies `warm` onto the buffer disk (prefetch
  /// and re-warm).  `done` fires once every pin and copy settled, with the
  /// number that landed before any crash.
  void warm_tiers(const std::vector<trace::FileId>& hot,
                  const std::vector<trace::FileId>& warm,
                  std::function<void(std::size_t landed)> done);

  /// True under kHints/kOracle, whose power manager is handed the
  /// residual timelines at replay start.
  bool power_reads_residuals() const {
    return params_.power.policy == PowerPolicy::kHints ||
           params_.power.policy == PowerPolicy::kOracle;
  }

  /// True when every stripe disk of `file` is alive.
  bool stripe_set_alive(const LocalFileMeta& file) const;
  /// The data disks of `file`'s stripe set, in stripe order.
  std::vector<std::size_t> stripe_set(const LocalFileMeta& file) const;
  /// Reacts to a data disk entering kFailed: strands its queued destages.
  void on_data_disk_failed(std::size_t d);

  // --- read path: RAM, then buffer disk, then the stripe set ------------
  /// One read in flight below serve_read: its open serve, the epoch it
  /// was issued under, and what ship sends where.
  struct Read {
    std::uint64_t serve = 0;
    std::uint64_t epoch = 0;
    trace::FileId file = 0;
    Bytes bytes = 0;
    net::EndpointId client = 0;
  };
  /// Reads `read.file` off its stripe set and ships it.  A fallback read
  /// (the buffered copy failed mid-serve) fails in the same tick when the
  /// stripe set is dead, and neither destages nor MAID-copies on the way
  /// out; a first read refuses on the next tick and does both.
  void read_stripe(const Read& read, bool fallback);
  /// Sends the read's bytes to its client and settles the serve on
  /// delivery.  `admit` offers the file to the RAM tier first (the bytes
  /// came off a disk).  Does nothing under a stale epoch.
  void ship(const Read& read, bool admit);

  /// Modeled energy cost difference of serving `bytes` from the data-disk
  /// stripe set instead of the buffer log (positive = data path costs
  /// more) — the meterable price of one degraded read.
  Joules degraded_read_energy_estimate(Bytes bytes) const;

  // --- write path (§III-C: the buffer disk absorbs writes) -------------
  /// Stages a write bound for data disk `d` on the buffer-disk log: the
  /// payload (with retry), then the journal commit header, then the
  /// destage is booked and `done(t, true)` fires.  If either log I/O
  /// fails, the reservation is released and the write goes through to
  /// the stripe set instead.  Returns false, having started nothing,
  /// when write buffering is off, the buffer disk is dead or it cannot
  /// reserve the bytes.
  template <typename Done>
  bool stage_write(trace::FileId f, Bytes bytes, std::size_t d,
                   const Done& done);
  /// Writes `bytes` of `f` straight to its stripe set; `done(t, ok)`, at
  /// once with ok = false when a stripe disk is dead.
  template <typename Done>
  void write_through(trace::FileId f, Bytes bytes, Done done);
  /// Queues a log-resident write for destage to data disk `d`; it counts
  /// as acked-but-undestaged until retire_destage.
  void book_destage(const PendingWrite& w, std::size_t d);
  /// Starts destaging `d`'s queue if the disk is spinning; during the
  /// end-of-run drain, forces it instead of waiting for the next wake.
  void start_destage(std::size_t d);
  /// Destages every write queued for `d` now, whatever the disk's state.
  void force_destage(std::size_t d);
  /// Destages queued writes for data disk `d` while it is spinning.
  void maybe_flush(std::size_t d);
  /// Destages one write: sequential read off the buffer-disk log, random
  /// write to the file's stripe set.
  void flush_one(const PendingWrite& w, std::function<void()> done);
  /// Retires a destage that landed or was stranded: counters, journal
  /// truncation mark, backlog and the buffer reservation.  Stranded
  /// writes retire too — replaying a write whose home disks are dead
  /// would strand it again forever.
  void retire_destage(const PendingWrite& w, bool landed);
  /// Fires flush waiters once nothing is queued or in flight.
  void notify_flush_waiters();

  // --- open serves --------------------------------------------------------
  /// A serve from its start until it settles: what the caller is told
  /// and what its node.read/node.write span records.
  struct OpenServe {
    ServeCallback on_result;
    Tick start = 0;
    obs::StringId op = 0;
    trace::FileId file = 0;
    Bytes bytes = 0;
  };
  /// Opens a serve so crash() can settle it; returns its id.
  std::uint64_t open_serve(obs::StringId op, trace::FileId f, Bytes bytes,
                           ServeCallback on_result);
  /// Closes serve `id`: emits its span (when tracing) and tells the
  /// caller.  A no-op when the serve is no longer open under that id.
  void settle(std::uint64_t id, Tick t, RequestStatus status);
  /// Counts a failed serve and settles it with `status` on the next tick.
  void refuse(std::uint64_t id, RequestStatus status);

  // --- RAM cache tier ---------------------------------------------------
  struct RamStagedWrite {
    trace::FileId file = 0;
    Bytes bytes = 0;
    std::size_t data_disk = 0;
  };
  /// Popularity weight for RAM admission: the file's access count in the
  /// node's pattern slice (0 before plan_prefetch).
  std::uint64_t ram_weight(trace::FileId f) const;
  /// Offers a freshly read file to the RAM tier (no-op when disabled).
  void ram_admit(trace::FileId f, Bytes bytes);
  /// Reads `f`'s stripe set into RAM and pins it (prefetch hot set).
  void pin_into_ram(trace::FileId f, std::function<void()> done);
  /// Arms the interval flush timer if not already armed.
  void schedule_ram_flush();
  /// Dispatches every staged write-back toward the buffer-disk path.
  void flush_ram_writes();

  sim::Simulator& sim_;
  net::NetworkFabric& net_;
  net::EndpointId self_;
  NodeParams params_;

  std::vector<std::unique_ptr<disk::DiskModel>> data_disks_;
  disk::DiskModel buffer_disk_;
  /// The buffer disk's contents: cached files and the write-buffer region.
  BufferManager buffer_;
  std::unique_ptr<PowerManager> power_;
  disk::WriteJournal journal_;

  NodeMetadata meta_;
  /// Data disks per file stripe: params_.stripe_width clamped to
  /// [1, data disks], the same for every file on the node.
  std::size_t stripe_width_ = 1;
  std::size_t files_created_ = 0;
  std::size_t expected_files_ = 0;

  /// The received hint views, until plan_prefetch plans from them.
  std::vector<FileHints> hints_;
  /// (file, hinted access count) sorted by file, kept from planning on.
  std::vector<std::pair<trace::FileId, std::size_t>> hint_counts_;
  Tick horizon_ = 0;
  PrefetchPlan plan_;
  bool plan_ready_ = false;
  Tick replay_start_ = 0;
  bool alive_ = true;
  /// Bumped at every crash; disk/net completions capture the epoch they
  /// were issued under and drop their state effects when it is stale.
  std::uint64_t epoch_ = 0;
  /// Serves awaiting completion by id, which ascends in opening order, so
  /// crash() can settle them typed in that order.
  std::map<std::uint64_t, OpenServe> open_serves_;
  std::uint64_t next_serve_id_ = 1;
  /// Journal LSNs currently queued or in flight toward data disks —
  /// the idempotence filter for replay_journal.
  std::set<std::uint64_t> live_lsns_;

  std::vector<std::vector<PendingWrite>> pending_writes_;  // per data disk
  std::vector<bool> flush_in_progress_;
  std::size_t destages_in_flight_ = 0;
  std::vector<std::function<void()>> flush_waiters_;

  // RAM cache tier (null/empty when params_.ram_cache_bytes == 0)
  std::unique_ptr<RamCache> ram_;
  std::vector<RamStagedWrite> ram_staged_;
  std::size_t ram_flushes_in_flight_ = 0;
  sim::EventHandle ram_flush_timer_;

  std::uint64_t undestaged_acked_ = 0;
  Bytes destage_backlog_ = 0;
  /// Modeled, and summed per node so that the registry total adds the
  /// nodes in node order at shutdown (floating-point sums depend on it).
  Joules fault_energy_delta_ = 0.0;

  // --- metrics: registry handles, taken once at construction ------------
  struct Metrics {
    obs::Registry& r;
    obs::Counter& buffer_hits = r.counter("prefetch.buffer_hits.count");
    obs::Counter& data_disk_reads = r.counter("prefetch.data_disk_reads.count");
    obs::Counter& bytes_prefetched =
        r.counter("prefetch.bytes_prefetched.bytes");
    obs::Counter& rejected_by_gate =
        r.counter("prefetch.rejected_by_gate.count");
    obs::Counter& evictions = r.counter("prefetch.evictions.count");
    obs::Counter& wakeups_on_demand =
        r.counter("power.wakeups_on_demand.count");
    obs::Counter& writes_buffered = r.counter("buffer.writes_buffered.count");
    obs::Counter& writes_direct = r.counter("buffer.writes_direct.count");
    obs::Counter& writes_stranded = r.counter("buffer.writes_stranded.count");
    obs::Counter& destages = r.counter("buffer.destages.count");
    /// The worst node's peak: every node set_max'es it.
    obs::Gauge& destage_backlog_peak =
        r.gauge("buffer.destage_backlog_peak.bytes");
    obs::Counter& lost_acked_writes =
        r.counter("fault.lost_acked_writes.count");
    obs::Counter& bytes_served = r.counter("node.bytes_served.bytes");
    obs::Counter& disk_io_retries = r.counter("node.disk_io_retries.count");
    obs::Counter& buffer_fallback_reads =
        r.counter("node.buffer_fallback_reads.count");
    obs::Counter& buffered_rescues = r.counter("node.buffered_rescues.count");
    obs::Counter& failed_serves = r.counter("node.failed_serves.count");
    obs::Gauge& fault_energy_delta = r.gauge("node.fault_energy_delta.joules");
    /// Shared by every disk of the node.
    obs::Histogram& disk_queue_wait = r.histogram("disk.queue_wait.us");
  };
  /// The ramcache.* family: registered only by a node with a RAM tier.
  struct RamMetrics {
    obs::Registry& r;
    obs::Counter& hits = r.counter("ramcache.hits.count");
    obs::Counter& misses = r.counter("ramcache.misses.count");
    obs::Counter& evictions = r.counter("ramcache.evictions.count");
    obs::Counter& writebacks = r.counter("ramcache.writebacks.count");
    obs::Counter& writes_absorbed = r.counter("ramcache.writes_absorbed.count");
    obs::Counter& lost_writes = r.counter("ramcache.lost_writes.count");
    /// Set once, at run end, from RunMetrics::ram (Cluster::finish_run).
    obs::Gauge& hit_rate = r.gauge("ramcache.hit_rate.ratio");
    obs::Gauge& pinned = r.gauge("ramcache.pinned.bytes");
    obs::Histogram& hit_size = r.histogram("ramcache.hit_size.bytes");
    obs::Histogram& miss_size = r.histogram("ramcache.miss_size.bytes");
  };
  Metrics metrics_;
  std::optional<RamMetrics> ram_metrics_;

  // observability
  void backlog_add(Bytes b) {
    destage_backlog_ += b;
    metrics_.destage_backlog_peak.set_max(
        static_cast<double>(destage_backlog_));
  }
  void backlog_sub(Bytes b) {
    destage_backlog_ -= b < destage_backlog_ ? b : destage_backlog_;
  }
  obs::Tracer* tracer_ = nullptr;
  obs::StringId track_ = 0;
  obs::StringId ev_read_ = 0;
  obs::StringId ev_write_ = 0;
  obs::StringId ev_prefetch_copy_ = 0;
  obs::StringId ev_destage_ = 0;
};

}  // namespace eevfs::core
