#include "core/recovery_manager.hpp"

#include "core/metadata.hpp"
#include "core/metrics.hpp"

namespace eevfs::core {

RecoveryManager::RecoveryManager(sim::Simulator& sim, StorageServer& server,
                                 std::vector<StorageNode*> nodes,
                                 obs::Registry& registry)
    : sim_(sim),
      server_(server),
      nodes_(std::move(nodes)),
      episodes_(nodes_.size()),
      metrics_{registry} {}

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
  if (n >= episodes_.size()) return;
  Episode& ep = episodes_[n];
  ++ep.generation;  // invalidates any pipeline still in flight
  ep.crash_time = sim_.now();
  if (ep.recovering) {
    metrics_.abandoned.add();
    ep.recovering = false;
    // Phase 2's unrepaired copies go back to the server for the next
    // episode (a crash before or after phase 2 finds none left).
    for (; ep.next < ep.stale.size(); ++ep.next) {
      server_.mark_stale(n, ep.stale[ep.next]);
    }
  }
}

void RecoveryManager::on_restart(NodeId n) {
  if (n >= episodes_.size() || nodes_[n]->alive()) return;
  episodes_[n].recovering = true;
  nodes_[n]->restart();
  trace_instant(ev_begin_, n, 0);
  episodes_[n].phase_start = sim_.now();
  nodes_[n]->replay_journal([this, n, gen = episodes_[n].generation](
                                std::size_t replayed) {
    Episode& ep = episodes_[n];
    if (gen != ep.generation) return;
    ep.replayed = replayed;
    ep.replay_ticks = sim_.now() - ep.phase_start;
    trace_instant(ev_replay_, n, static_cast<std::int64_t>(replayed));
    // The server hands over (and forgets) the files whose latest write
    // landed elsewhere while this node was out.
    ep.stale = server_.take_stale_files(n);
    ep.next = 0;
    ep.resynced = 0;
    ep.phase_start = sim_.now();
    repair_next(n);
  });
}

void RecoveryManager::repair_next(NodeId n) {
  Episode& ep = episodes_[n];
  const ServerMetadata& table = server_.metadata();
  const std::size_t need = table.erasure() ? table.ec_k() : 1;
  for (; ep.next < ep.stale.size(); ++ep.next) {
    ep.donors.clear();
    for (const NodeId h : table.holders(ep.stale[ep.next])) {
      if (h != n && nodes_[h]->alive() && !server_.node_dead(h)) {
        ep.donors.push_back(h);
        if (ep.donors.size() == need) break;
      }
    }
    if (ep.donors.size() == need) {
      ep.file_start = sim_.now();
      read_donor(n, ep.generation, 0);
      return;
    }
    // Too few healthy holders: the copy stays stale.
    server_.mark_stale(n, ep.stale[ep.next]);
  }
  ep.resync_ticks = sim_.now() - ep.phase_start;
  trace_instant(ev_resync_, n, static_cast<std::int64_t>(ep.resynced));
  ep.phase_start = sim_.now();
  nodes_[n]->rewarm_prefetch(
      [this, n, gen = ep.generation](std::size_t rewarmed) {
        if (gen != episodes_[n].generation) return;
        trace_instant(ev_rewarm_, n, static_cast<std::int64_t>(rewarmed));
        finish_episode(n, rewarmed);
      });
}

void RecoveryManager::read_donor(NodeId n, std::uint64_t gen, std::size_t i) {
  const Episode& ep = episodes_[n];
  const trace::FileId f = ep.stale[ep.next];
  if (i < ep.donors.size()) {
    nodes_[ep.donors[i]]->serve_read(
        f, nodes_[n]->endpoint(), [this, n, gen, i](Tick, RequestStatus st) {
          if (gen != episodes_[n].generation) return;
          if (request_ok(st)) {
            read_donor(n, gen, i + 1);
            return;
          }
          // The donor failed mid-repair: this copy stays stale.
          server_.mark_stale(n, episodes_[n].stale[episodes_[n].next]);
          ++episodes_[n].next;
          repair_next(n);
        });
    return;
  }
  const ServerMetadata& table = server_.metadata();
  if (!table.erasure()) {
    write_back(n, gen, 0);
    return;
  }
  // All k chunks are in: pay the decode, then write the rebuilt chunk.
  const Bytes chunk =
      ServerMetadata::chunk_bytes(table.lookup(f).value().size, table.ec_k());
  const Tick decode =
      server_.ec_decode_ticks(chunk * static_cast<Bytes>(table.ec_k()));
  (void)sim_.schedule_after(decode, [this, n, gen, decode] {
    if (gen == episodes_[n].generation) write_back(n, gen, decode);
  });
}

void RecoveryManager::write_back(NodeId n, std::uint64_t gen, Tick decode) {
  const trace::FileId f = episodes_[n].stale[episodes_[n].next];
  nodes_[n]->resync_write(f, [this, n, gen, decode](Tick, bool wrote) {
    Episode& ep = episodes_[n];
    if (gen != ep.generation) return;
    if (wrote) {
      ++ep.resynced;
      if (server_.metadata().erasure()) {
        server_.note_chunk_repaired(decode);
        metrics_.ec_repair_time.record(
            static_cast<std::uint64_t>(sim_.now() - ep.file_start));
        trace_instant(ev_ec_repair_, n,
                      static_cast<std::int64_t>(ep.stale[ep.next]));
      }
    } else {
      // The local write failed: the copy stays stale.
      server_.mark_stale(n, ep.stale[ep.next]);
    }
    ++ep.next;
    repair_next(n);
  });
}

void RecoveryManager::finish_episode(NodeId n, std::size_t rewarmed) {
  Episode& ep = episodes_[n];
  ep.recovering = false;
  const Tick mttr = sim_.now() - ep.crash_time;
  metrics_.episodes.add();
  metrics_.replayed_writes.add(ep.replayed);
  metrics_.resynced_files.add(ep.resynced);
  metrics_.rewarmed_files.add(rewarmed);
  metrics_.mttr.record(static_cast<std::uint64_t>(mttr));
  metrics_.replay_time.record(static_cast<std::uint64_t>(ep.replay_ticks));
  metrics_.resync_time.record(static_cast<std::uint64_t>(ep.resync_ticks));
  metrics_.rewarm_time.record(
      static_cast<std::uint64_t>(sim_.now() - ep.phase_start));
  trace_instant(ev_complete_, n, static_cast<std::int64_t>(mttr));
}

}  // namespace eevfs::core
