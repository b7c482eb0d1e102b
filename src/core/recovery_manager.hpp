// Recovery pipeline for crash-stopped storage nodes (robustness
// extension).  A crash kills a node's service process: the RAM-held
// buffer index, destage queue, and journal marks die with it, while the
// platters survive.  When the fault schedule restarts the node, this
// manager drives the rejoin lifecycle:
//
//   phase 1  journal replay  — scan the buffer-disk log, re-queue every
//                              acked-but-undestaged write (idempotent)
//   phase 2  replica resync  — pull files whose latest write landed on a
//                              failover replica while the node was out
//   phase 3  prefetch re-warm — re-copy the node's prefetch slice onto
//                              the buffer disk (optional, config-gated)
//
// Each phase is timed on the simulation clock; per-episode durations land
// in the recovery.*.us histograms, whose sums are the run's totals.
// MTTR here is crash-to-pipeline-complete — the node serves requests
// again right after restart() (degraded: cold cache, stale files), so
// this is "time to fully healed", a stricter bar than the server's
// heartbeat-observed dead time.
//
// A node that crashes again mid-recovery abandons the episode: every
// continuation carries the generation it started under and no-ops when a
// newer crash bumped it.  The next restart begins a fresh pipeline (the
// journal still holds anything the dead one did not finish).
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"
#include "core/storage_node.hpp"
#include "core/storage_server.hpp"
#include "obs/counters.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "trace/record.hpp"
#include "util/units.hpp"

namespace eevfs::core {

class RecoveryManager {
 public:
  /// Registers the recovery.* names and ec.repair_time.us in `registry`
  /// and counts into it from then on.
  RecoveryManager(sim::Simulator& sim, StorageServer& server,
                  std::vector<StorageNode*> nodes, obs::Registry& registry);

  /// Registers the same names without a manager: a run without a fault
  /// plan builds none, and its registry still carries them (zero).
  static void register_metrics(obs::Registry& registry) {
    (void)Metrics{registry};
  }

  /// The per-node prefetch slices (rank order) phase 3 restores; empty
  /// when prefetching is off.
  void set_rewarm_candidates(std::vector<std::vector<trace::FileId>> per_node);

  void set_observer(obs::Tracer* tracer);

  /// Fault-injector hooks.  on_crash stamps the episode clock and
  /// invalidates any recovery already running for `n`; on_restart brings
  /// the node back and runs the three-phase pipeline.
  void on_crash(NodeId n);
  void on_restart(NodeId n);

 private:
  struct Metrics {
    obs::Registry& r;
    obs::Counter& episodes = r.counter("recovery.episodes.count");
    obs::Counter& replayed_writes = r.counter("recovery.replayed_writes.count");
    obs::Counter& resynced_files = r.counter("recovery.resynced_files.count");
    obs::Counter& rewarmed_files = r.counter("recovery.rewarmed_files.count");
    /// The node crashed again mid-recovery.
    obs::Counter& abandoned = r.counter("recovery.episodes_abandoned.count");
    // Per-episode phase times (the run totals are their sums).
    obs::Histogram& mttr = r.histogram("recovery.mttr.us");
    obs::Histogram& replay_time = r.histogram("recovery.replay_time.us");
    obs::Histogram& resync_time = r.histogram("recovery.resync_time.us");
    obs::Histogram& rewarm_time = r.histogram("recovery.rewarm_time.us");
    /// Per rebuilt chunk: k-source read + decode + local write time
    /// (erasure mode only).
    obs::Histogram& ec_repair_time = r.histogram("ec.repair_time.us");
  };

  void begin_resync(NodeId n, std::uint64_t gen, std::size_t replayed,
                    Tick replay_done);
  void resync_next(NodeId n, std::uint64_t gen,
                   std::vector<trace::FileId> files, std::size_t idx,
                   std::size_t ok, Tick resync_start);
  /// Erasure-mode phase 2: rebuild this node's lost/stale chunks from any
  /// k surviving chunk holders (serial trickle, like replica resync).
  void ec_repair_next(NodeId n, std::uint64_t gen,
                      std::vector<trace::FileId> files, std::size_t idx,
                      std::size_t ok, Tick resync_start);
  void ec_repair_read(NodeId n, std::uint64_t gen,
                      std::vector<trace::FileId> files, std::size_t idx,
                      std::size_t ok, Tick resync_start,
                      std::vector<StorageNode*> sources, std::size_t si,
                      Tick file_start);
  void begin_rewarm(NodeId n, std::uint64_t gen, Tick rewarm_start);
  void finish_episode(NodeId n, std::uint64_t gen, std::size_t rewarmed,
                      Tick rewarm_start);
  /// First alive replica of `f` other than `n`, or null.
  StorageNode* source_for(NodeId n, trace::FileId f) const;
  void trace_instant(obs::StringId ev, NodeId n, std::int64_t value);

  sim::Simulator& sim_;
  StorageServer& server_;
  std::vector<StorageNode*> nodes_;
  std::vector<std::vector<trace::FileId>> rewarm_candidates_;
  // Per-node episode state, struct-of-arrays (indexed by NodeId).  Every
  // pipeline continuation re-checks its node's generation stamp; keeping
  // the stamps in one dense column means those checks share cache lines
  // across nodes instead of striding over per-node structs.
  std::vector<Tick> crash_time_;
  /// Bumped at every crash; stale pipeline continuations compare.
  std::vector<std::uint64_t> generation_;
  std::vector<std::uint8_t> recovering_;

  Metrics metrics_;
  // Scratch carried across one node's phases (indexed like state_).
  std::vector<std::size_t> ep_replayed_;
  std::vector<std::size_t> ep_resynced_;
  std::vector<Tick> ep_replay_ticks_;
  std::vector<Tick> ep_resync_ticks_;

  obs::Tracer* tracer_ = nullptr;
  obs::StringId track_ = 0;
  obs::StringId ev_begin_ = 0;
  obs::StringId ev_replay_ = 0;
  obs::StringId ev_resync_ = 0;
  obs::StringId ev_rewarm_ = 0;
  obs::StringId ev_complete_ = 0;
  obs::StringId ev_ec_repair_ = 0;
};

}  // namespace eevfs::core
