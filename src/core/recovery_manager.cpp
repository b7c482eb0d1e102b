#include "core/recovery_manager.hpp"

#include "util/logging.hpp"

namespace eevfs::core {

RecoveryManager::RecoveryManager(sim::Simulator& sim, StorageServer& server,
                                 std::vector<StorageNode*> nodes,
                                 obs::Registry& registry)
    : sim_(sim),
      server_(server),
      nodes_(std::move(nodes)),
      metrics_{registry} {
  crash_time_.assign(nodes_.size(), 0);
  generation_.assign(nodes_.size(), 0);
  recovering_.assign(nodes_.size(), 0);
  rewarm_candidates_.assign(nodes_.size(), {});
  ep_replayed_.assign(nodes_.size(), 0);
  ep_resynced_.assign(nodes_.size(), 0);
  ep_replay_ticks_.assign(nodes_.size(), 0);
  ep_resync_ticks_.assign(nodes_.size(), 0);
}

void RecoveryManager::set_rewarm_candidates(
    std::vector<std::vector<trace::FileId>> per_node) {
  rewarm_candidates_ = std::move(per_node);
  rewarm_candidates_.resize(nodes_.size());
}

void RecoveryManager::set_observer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_) {
    track_ = tracer_->intern("recovery");
    ev_begin_ = tracer_->intern("recovery.begin");
    ev_replay_ = tracer_->intern("recovery.replay");
    ev_resync_ = tracer_->intern("recovery.resync");
    ev_rewarm_ = tracer_->intern("recovery.rewarm");
    ev_complete_ = tracer_->intern("recovery.complete");
    ev_ec_repair_ = tracer_->intern("recovery.ec_repair");
  }
}

void RecoveryManager::trace_instant(obs::StringId ev, NodeId n,
                                    std::int64_t value) {
  if (tracer_ && tracer_->wants(obs::kCatRecovery)) {
    tracer_->instant(sim_.now(), obs::kCatRecovery, obs::TraceLevel::kInfo, ev,
                     track_, 0, static_cast<std::int64_t>(n), value);
  }
}

void RecoveryManager::on_crash(NodeId n) {
  if (n >= generation_.size()) return;
  ++generation_[n];  // invalidates any pipeline still in flight
  crash_time_[n] = sim_.now();
  if (recovering_[n]) {
    metrics_.abandoned.add();
    recovering_[n] = 0;
  }
}

void RecoveryManager::on_restart(NodeId n) {
  if (n >= generation_.size()) return;
  StorageNode* node = nodes_[n];
  if (node->alive()) return;
  const std::uint64_t gen = generation_[n];
  recovering_[n] = 1;
  node->restart();
  trace_instant(ev_begin_, n, 0);
  const Tick t0 = sim_.now();
  node->replay_journal([this, n, gen, t0](std::size_t replayed) {
    if (gen != generation_[n]) return;
    ep_replayed_[n] = replayed;
    ep_replay_ticks_[n] = sim_.now() - t0;
    trace_instant(ev_replay_, n, static_cast<std::int64_t>(replayed));
    begin_resync(n, gen, replayed, sim_.now());
  });
}

void RecoveryManager::begin_resync(NodeId n, std::uint64_t gen,
                                   std::size_t /*replayed*/,
                                   Tick replay_done) {
  // The server hands over (and forgets) the files whose latest write
  // landed elsewhere while this node was out.  Under erasure coding the
  // work list is the same but the mechanics differ: this node's CHUNK is
  // lost, so it must be rebuilt from any k surviving chunks.
  std::vector<trace::FileId> files = server_.take_stale_files(n);
  if (server_.erasure_enabled()) {
    ec_repair_next(n, gen, std::move(files), 0, 0, replay_done);
  } else {
    resync_next(n, gen, std::move(files), 0, 0, replay_done);
  }
}

void RecoveryManager::resync_next(NodeId n, std::uint64_t gen,
                                  std::vector<trace::FileId> files,
                                  std::size_t idx, std::size_t ok,
                                  Tick resync_start) {
  if (gen != generation_[n]) return;
  if (idx >= files.size()) {
    ep_resynced_[n] = ok;
    ep_resync_ticks_[n] = sim_.now() - resync_start;
    trace_instant(ev_resync_, n, static_cast<std::int64_t>(ok));
    begin_rewarm(n, gen, sim_.now());
    return;
  }
  StorageNode* node = nodes_[n];
  const trace::FileId f = files[idx];
  StorageNode* source = source_for(n, f);
  if (source == nullptr) {
    // Every other replica is down too; the copy stays stale.  The server
    // routes reads to the freshest replica it can reach, so this is a
    // durability gap only while the outage lasts.
    resync_next(n, gen, std::move(files), idx + 1, ok, resync_start);
    return;
  }
  // Pull the file image over the fabric from the healthy replica, then
  // write it down onto the local stripe set.  Serial on purpose: recovery
  // traffic should trickle, not storm a cluster that is already degraded.
  source->serve_read(
      f, node->endpoint(),
      [this, n, gen, f, files = std::move(files), idx, ok,
       resync_start](Tick, RequestStatus st) mutable {
        if (gen != generation_[n]) return;
        if (!request_ok(st)) {
          resync_next(n, gen, std::move(files), idx + 1, ok, resync_start);
          return;
        }
        nodes_[n]->resync_write(
            f, [this, n, gen, files = std::move(files), idx, ok,
                resync_start](Tick, bool wrote) mutable {
              if (gen != generation_[n]) return;
              resync_next(n, gen, std::move(files), idx + 1,
                          ok + (wrote ? 1 : 0), resync_start);
            });
      });
}

void RecoveryManager::ec_repair_next(NodeId n, std::uint64_t gen,
                                     std::vector<trace::FileId> files,
                                     std::size_t idx, std::size_t ok,
                                     Tick resync_start) {
  if (gen != generation_[n]) return;
  if (idx >= files.size()) {
    ep_resynced_[n] = ok;
    ep_resync_ticks_[n] = sim_.now() - resync_start;
    trace_instant(ev_resync_, n, static_cast<std::int64_t>(ok));
    begin_rewarm(n, gen, sim_.now());
    return;
  }
  const trace::FileId f = files[idx];
  const auto entry = server_.metadata().lookup(f);
  if (!entry || !entry->erasure) {
    ec_repair_next(n, gen, std::move(files), idx + 1, ok, resync_start);
    return;
  }
  // Any k surviving chunk holders (other than the node being repaired)
  // can donate; parity chunks decode just as well as data chunks.
  std::vector<StorageNode*> sources;
  for (const NodeId r : entry->holders) {
    if (r == n || r >= nodes_.size()) continue;
    if (nodes_[r]->alive() && !server_.node_dead(r)) {
      sources.push_back(nodes_[r]);
      if (sources.size() == server_.ec_k()) break;
    }
  }
  if (sources.size() < server_.ec_k()) {
    // Not enough survivors to decode; the chunk stays lost until more
    // nodes come back (a later episode re-discovers it via stale marks).
    ec_repair_next(n, gen, std::move(files), idx + 1, ok, resync_start);
    return;
  }
  ec_repair_read(n, gen, std::move(files), idx, ok, resync_start,
                 std::move(sources), 0, sim_.now());
}

void RecoveryManager::ec_repair_read(NodeId n, std::uint64_t gen,
                                     std::vector<trace::FileId> files,
                                     std::size_t idx, std::size_t ok,
                                     Tick resync_start,
                                     std::vector<StorageNode*> sources,
                                     std::size_t si, Tick file_start) {
  if (gen != generation_[n]) return;
  const trace::FileId f = files[idx];
  if (si >= sources.size()) {
    // All k source chunks are in: pay the decode, then write the rebuilt
    // chunk down onto the local stripe set.
    const auto entry = server_.metadata().lookup(f);
    const Bytes chunk_bytes =
        entry ? server_.ec_chunk_bytes(entry->size) : 0;
    const Tick decode = server_.ec_decode_ticks(
        chunk_bytes * static_cast<Bytes>(server_.ec_k()));
    (void)sim_.schedule_after(decode, [this, n, gen, f, decode,
                                 files = std::move(files), idx, ok,
                                 resync_start, file_start]() mutable {
      if (gen != generation_[n]) return;
      nodes_[n]->resync_write(
          f, [this, n, gen, f, decode, files = std::move(files), idx, ok,
              resync_start, file_start](Tick, bool wrote) mutable {
            if (gen != generation_[n]) return;
            if (wrote) {
              server_.note_chunk_repaired(decode);
              const Tick took = sim_.now() - file_start;
              metrics_.ec_repair_time.record(
                  static_cast<std::uint64_t>(took));
              trace_instant(ev_ec_repair_, n, static_cast<std::int64_t>(f));
            }
            ec_repair_next(n, gen, std::move(files), idx + 1,
                           ok + (wrote ? 1 : 0), resync_start);
          });
    });
    return;
  }
  // Serial trickle, like replica resync: one source chunk in flight at a
  // time, so repair never storms a cluster that is already degraded.
  StorageNode* source = sources[si];
  source->serve_read(
      f, nodes_[n]->endpoint(),
      [this, n, gen, files = std::move(files), idx, ok, resync_start,
       sources = std::move(sources), si,
       file_start](Tick, RequestStatus st) mutable {
        if (gen != generation_[n]) return;
        if (!request_ok(st)) {
          // A donor failed mid-repair; this chunk stays lost for now.
          ec_repair_next(n, gen, std::move(files), idx + 1, ok,
                         resync_start);
          return;
        }
        ec_repair_read(n, gen, std::move(files), idx, ok, resync_start,
                       std::move(sources), si + 1, file_start);
      });
}

void RecoveryManager::begin_rewarm(NodeId n, std::uint64_t gen,
                                   Tick rewarm_start) {
  nodes_[n]->rewarm_prefetch(
      rewarm_candidates_[n],
      [this, n, gen, rewarm_start](std::size_t rewarmed) {
        if (gen != generation_[n]) return;
        trace_instant(ev_rewarm_, n, static_cast<std::int64_t>(rewarmed));
        finish_episode(n, gen, rewarmed, rewarm_start);
      });
}

void RecoveryManager::finish_episode(NodeId n, std::uint64_t gen,
                                     std::size_t rewarmed, Tick rewarm_start) {
  if (gen != generation_[n]) return;
  recovering_[n] = 0;
  const Tick mttr = sim_.now() - crash_time_[n];
  const Tick rewarm_ticks = sim_.now() - rewarm_start;
  metrics_.episodes.add();
  metrics_.replayed_writes.add(ep_replayed_[n]);
  metrics_.resynced_files.add(ep_resynced_[n]);
  metrics_.rewarmed_files.add(rewarmed);
  metrics_.mttr.record(static_cast<std::uint64_t>(mttr));
  metrics_.replay_time.record(static_cast<std::uint64_t>(ep_replay_ticks_[n]));
  metrics_.resync_time.record(static_cast<std::uint64_t>(ep_resync_ticks_[n]));
  metrics_.rewarm_time.record(static_cast<std::uint64_t>(rewarm_ticks));
  trace_instant(ev_complete_, n, static_cast<std::int64_t>(mttr));
  EEVFS_DEBUG() << "node " << n << ": recovery complete at t="
                << ticks_to_seconds(sim_.now()) << " (mttr="
                << ticks_to_seconds(mttr) << "s, replayed="
                << ep_replayed_[n] << ", resynced=" << ep_resynced_[n]
                << ", rewarmed=" << rewarmed << ")";
}

StorageNode* RecoveryManager::source_for(NodeId n, trace::FileId f) const {
  const auto entry = server_.metadata().lookup(f);
  if (!entry) return nullptr;
  for (const NodeId r : entry->holders) {
    if (r == n || r >= nodes_.size()) continue;
    if (nodes_[r]->alive() && !server_.node_dead(r)) return nodes_[r];
  }
  return nullptr;
}

}  // namespace eevfs::core
