// Recovery pipeline for crash-stopped storage nodes (robustness
// extension).  A crash kills a node's service process: the RAM-held
// buffer index, destage queue, and journal marks die with it, while the
// platters survive.  When the fault schedule restarts the node, this
// manager drives the rejoin lifecycle:
//
//   phase 1  journal replay   — scan the buffer-disk log, re-queue every
//                               acked-but-undestaged write (idempotent)
//   phase 2  repair           — rebuild each copy whose latest write
//                               landed elsewhere while the node was out
//   phase 3  prefetch re-warm — re-pin the planned RAM share and
//                               re-copy the gate-accepted files onto
//                               the buffer disk
//
// Phase 2 has one rule for replicas and erasure chunks: an r-way replica
// set is the k = 1 case of an (n, k) code.  A stale copy is rebuilt from
// the first `need` healthy holders other than the node (alive, and not
// dead-marked by the server's heartbeat), where need is 1 for a replica
// and k for a chunk.  The donors are read one at a time, so repair
// trickles instead of storming a cluster that is already degraded; a
// chunk then pays the decode, and the node writes the copy down.  A copy
// with fewer healthy holders, or whose donor read or local write fails,
// stays stale: it is handed back to the server (mark_stale), and the
// node's next episode retries it.
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
// journal still holds anything the dead one did not finish, and the
// copies phase 2 had not rebuilt are handed back to the server).
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
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

  void set_observer(obs::Tracer* tracer);

  /// Fault-injector hooks.  on_crash stamps the episode clock and
  /// invalidates any recovery already running for `n`, handing its
  /// unrepaired copies back; on_restart brings the node back and runs the
  /// three-phase pipeline.
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
    /// Per rebuilt chunk: k donor reads + decode + local write time
    /// (erasure mode only).
    obs::Histogram& ec_repair_time = r.histogram("ec.repair_time.us");
  };

  /// One node's recovery episode.  Continuations reach it through the
  /// node index instead of carrying its state; the generation they began
  /// under tells them whether it is still theirs.
  struct Episode {
    /// Bumped at every crash; a continuation that began under an older
    /// one belongs to an abandoned episode and does nothing.
    std::uint64_t generation = 0;
    bool recovering = false;
    Tick crash_time = 0;
    /// When the running phase began.
    Tick phase_start = 0;
    std::size_t replayed = 0;
    Tick replay_ticks = 0;
    std::size_t resynced = 0;
    Tick resync_ticks = 0;
    /// Phase 2: the stale files in ascending id order, the one being
    /// repaired, when its repair began, and its donors.
    std::vector<trace::FileId> stale;
    std::size_t next = 0;
    Tick file_start = 0;
    std::vector<NodeId> donors;
  };

  /// Phase 2: finds the next stale file with enough healthy holders and
  /// starts its repair; past the last file, starts phase 3.
  void repair_next(NodeId n);
  /// Reads the current file from donor `i` on, then rebuilds it.
  void read_donor(NodeId n, std::uint64_t gen, std::size_t i);
  /// Writes the rebuilt copy down and moves on to the next file.
  void write_back(NodeId n, std::uint64_t gen, Tick decode);
  void finish_episode(NodeId n, std::size_t rewarmed);
  void trace_instant(obs::StringId ev, NodeId n, std::int64_t value);

  sim::Simulator& sim_;
  StorageServer& server_;
  std::vector<StorageNode*> nodes_;
  /// Indexed by NodeId.
  std::vector<Episode> episodes_;
  Metrics metrics_;

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
