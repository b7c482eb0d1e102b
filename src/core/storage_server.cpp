#include "core/storage_server.hpp"

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/placement.hpp"
#include "util/logging.hpp"

namespace eevfs::core {

StorageServer::StorageServer(sim::Simulator& sim, net::NetworkFabric& net,
                             net::EndpointId self, PlacementPolicy placement,
                             std::uint64_t seed)
    : sim_(sim),
      net_(net),
      self_(self),
      placement_policy_(placement),
      rng_(Rng(seed).fork(0xC0FFEE)) {}

void StorageServer::register_nodes(std::vector<StorageNode*> nodes) {
  if (nodes.empty()) {
    throw std::invalid_argument("StorageServer: no storage nodes");
  }
  nodes_ = std::move(nodes);
  health_.assign(nodes_.size(), NodeHealth{});
  stale_files_.assign(nodes_.size(), {});
}

void StorageServer::ingest_popularity(trace::PopularityAnalyzer popularity) {
  analyzer_.emplace(std::move(popularity));
}

void StorageServer::place_and_create(const std::vector<Bytes>& file_sizes) {
  if (nodes_.empty()) {
    throw std::logic_error("StorageServer: register_nodes first");
  }
  if (!analyzer_) {
    throw std::logic_error("StorageServer: ingest_popularity first");
  }
  // The placement is the routing table: every holder (chunk holder),
  // primary first, with the full logical size.
  metadata_ = place_files(placement_policy_, nodes_.size(),
                          file_sizes.size(), *analyzer_, file_sizes, rng_,
                          replication_degree_, ec_.n, ec_.k);
  // Create-file calls happen in popularity order per node, which is what
  // makes the node-local disk round-robin load balance (§III-B); the
  // per-node lists include replica copies.  Under erasure coding each
  // node stores a chunk-sized image, not the whole file.
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const std::span<const trace::FileId> files = metadata_.files_on_node(n);
    nodes_[n]->expect_files(files.size());
    for (const trace::FileId f : files) {
      const Bytes size = file_sizes[f];
      nodes_[n]->create_file(
          f, ServerMetadata::chunk_bytes(size, metadata_.ec_k()));
    }
  }
}

std::span<const NodeId> StorageServer::serving_holders(trace::FileId f) const {
  return metadata_.holders(f).first(
      metadata_.erasure() ? metadata_.ec_k() : 1);
}

void StorageServer::distribute_patterns(
    Tick horizon, std::unique_ptr<workload::RequestStream> exact) {
  if (metadata_.files() == 0) {
    throw std::logic_error("StorageServer: place_and_create first");
  }
  // File f's slot in the arena is [slot[f], slot[f + 1]), sized from its
  // ingested access count.
  const std::size_t files = metadata_.files();
  const auto unknown = [](trace::FileId f) {
    return std::out_of_range("StorageServer: unknown file " +
                             std::to_string(f));
  };
  std::vector<std::size_t> slot(files + 1, 0);
  for (const trace::FilePopularity& p : analyzer_->ranked()) {
    if (p.file >= files) throw unknown(p.file);
    slot[p.file + 1] = p.accesses;
  }
  std::partial_sum(slot.begin(), slot.end(), slot.begin());

  hint_arena_ = std::vector<Tick>(exact || horizon > 0 ? slot.back() : 0);
  if (exact) {
    const auto miscount = [](trace::FileId f) {
      return std::invalid_argument(
          "StorageServer: the hint pass disagrees with the ingested "
          "access count of file " + std::to_string(f));
    };
    std::vector<std::size_t> next(slot.begin(), slot.end() - 1);
    trace::TraceRecord r;
    while (exact->next(&r)) {
      if (r.file >= files) throw unknown(r.file);
      if (next[r.file] == slot[r.file + 1]) throw miscount(r.file);
      hint_arena_[next[r.file]++] = r.arrival;
    }
    for (trace::FileId f = 0; f < files; ++f) {
      if (next[f] != slot[f + 1]) throw miscount(f);
    }
  } else if (horizon > 0) {
    for (trace::FileId f = 0; f < files; ++f) {
      // Midpoint spacing keeps the first expected access off t=0 and the
      // last off the horizon edge, so modeled idle windows stay
      // symmetric.  (2i+1)·H/2c is computed as (2i+1)·q + (2i+1)·r/2c
      // with H = q·2c + r: the same value, but no product reaches H·2c,
      // and (2i+1)·r < 4c² fits 64 unsigned bits for c ≤ 2^31.
      const auto c = static_cast<Tick>(slot[f + 1] - slot[f]);
      if (c > (Tick{1} << 31)) {
        throw std::invalid_argument(
            "StorageServer: over 2^31 modeled accesses to file " +
            std::to_string(f));
      }
      if (c == 0) continue;
      const Tick q = horizon / (2 * c);
      const auto r = static_cast<std::uint64_t>(horizon % (2 * c));
      for (Tick i = 0; i < c; ++i) {
        const Tick odd = 2 * i + 1;
        hint_arena_[slot[f] + static_cast<std::size_t>(i)] =
            odd * q + static_cast<Tick>(static_cast<std::uint64_t>(odd) * r /
                                        static_cast<std::uint64_t>(2 * c));
      }
    }
  }

  // Every serving holder gets a view of the file's slot, not a copy.
  std::vector<std::vector<FileHints>> per_node(nodes_.size());
  if (!hint_arena_.empty()) {
    for (trace::FileId f = 0; f < files; ++f) {
      if (slot[f] == slot[f + 1]) continue;
      const std::span<const Tick> offsets(hint_arena_.data() + slot[f],
                                          slot[f + 1] - slot[f]);
      for (const NodeId n : serving_holders(f)) {
        per_node[n].push_back({f, offsets});
      }
    }
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    nodes_[n]->receive_access_pattern(std::move(per_node[n]), horizon);
  }
}

std::vector<std::vector<trace::FileId>> StorageServer::prefetch_candidates(
    std::size_t k) const {
  if (!analyzer_) {
    throw std::logic_error("StorageServer: ingest_popularity first");
  }
  std::vector<std::vector<trace::FileId>> per_node(nodes_.size());
  for (const trace::FileId f : analyzer_->top(k)) {
    for (const NodeId n : serving_holders(f)) per_node[n].push_back(f);
  }
  return per_node;
}

void StorageServer::set_erasure(ErasureParams params) {
  if (params.n > 0 && (params.k < 1 || params.n <= params.k)) {
    throw std::invalid_argument("StorageServer: erasure needs n > k >= 1");
  }
  ec_ = params;
}

Tick StorageServer::ec_decode_ticks(Bytes bytes) const {
  if (ec_.decode_bytes_per_sec <= 0.0) return 0;
  return seconds_to_ticks(static_cast<double>(bytes) /
                          ec_.decode_bytes_per_sec);
}

void StorageServer::note_chunk_repaired(Tick decode_ticks) {
  ++ec_metrics_.repaired_chunks;
  ++ec_metrics_.reconstructions;
  ec_metrics_.reconstruct_ticks += decode_ticks;
}

void StorageServer::set_observer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_) {
    track_ = tracer_->intern("server");
    ev_failover_ = tracer_->intern("server.failover");
    ev_node_dead_ = tracer_->intern("server.node_dead");
    ev_node_alive_ = tracer_->intern("server.node_alive");
    ev_refresh_ = tracer_->intern("server.refresh");
    ev_ec_join_ = tracer_->intern("server.ec_join");
    ev_ec_hedge_ = tracer_->intern("server.ec_hedge");
  }
}

void StorageServer::begin_online_refresh(std::size_t k, Tick interval) {
  if (interval <= 0) {
    throw std::invalid_argument("StorageServer: refresh interval <= 0");
  }
  if (metadata_.files() == 0) {
    throw std::logic_error("StorageServer: place_and_create first");
  }
  // Only the refresh reads the log: sized when it first arms, re-arms
  // keep the counts.
  if (log_.num_files() == 0) log_ = trace::AccessLog(metadata_.files());
  refresh_timer_.cancel();
  refresh_timer_ = sim_.schedule_after(interval, [this, k, interval] {
    ++refreshes_;
    // Rank everything seen so far and deal the top-k to the owning nodes
    // in rank order (same slicing as the offline prefetch instruction).
    std::vector<std::vector<trace::FileId>> per_node(nodes_.size());
    std::size_t taken = 0;
    for (const trace::FileId f : log_.ranked()) {
      if (taken++ >= k) break;
      for (const NodeId n : serving_holders(f)) per_node[n].push_back(f);
    }
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      nodes_[n]->update_prefetch(per_node[n]);
    }
    if (tracer_ && tracer_->wants(obs::kCatServer)) {
      tracer_->instant(sim_.now(), obs::kCatServer, obs::TraceLevel::kInfo,
                       ev_refresh_, track_, 0,
                       static_cast<std::int64_t>(taken < k ? taken : k));
    }
    begin_online_refresh(k, interval);
  });
}

void StorageServer::stop_online_refresh() { refresh_timer_.cancel(); }

void StorageServer::begin_health_monitor(Tick interval,
                                         std::size_t miss_threshold) {
  if (interval <= 0) return;
  heartbeat_interval_ = interval;
  miss_threshold_ = std::max<std::size_t>(miss_threshold, 1);
  heartbeat_timer_.cancel();
  heartbeat_timer_ =
      sim_.schedule_after(heartbeat_interval_, [this] { heartbeat_round(); });
}

void StorageServer::stop_health_monitor() { heartbeat_timer_.cancel(); }

void StorageServer::heartbeat_round() {
  // Settle last round first: a ping still in flight means no reply came
  // back within a full interval.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    NodeHealth& h = health_[n];
    if (h.ping_in_flight && !h.dead && ++h.missed >= miss_threshold_) {
      mark_dead(n);
    }
  }
  // Ping everyone again (dead nodes too — a reply revives them).  The
  // node answers only while alive; ping and reply ride the real fabric,
  // so congestion or injected drops can cost a beat, which is exactly the
  // false-positive behaviour a real monitor has.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    health_[n].ping_in_flight = true;
    net_.send(self_, nodes_[n]->endpoint(), net::kControlMessageBytes,
              [this, n](Tick) {
                if (!nodes_[n]->alive()) return;  // crashed: no reply
                net_.send(nodes_[n]->endpoint(), self_,
                          net::kControlMessageBytes, [this, n](Tick) {
                            NodeHealth& h = health_[n];
                            h.ping_in_flight = false;
                            h.missed = 0;
                            if (h.dead) mark_alive(n);
                          });
              });
  }
  heartbeat_timer_ =
      sim_.schedule_after(heartbeat_interval_, [this] { heartbeat_round(); });
}

void StorageServer::mark_dead(NodeId n) {
  NodeHealth& h = health_[n];
  if (h.dead) return;
  h.dead = true;
  h.dead_since = sim_.now();
  if (tracer_ && tracer_->wants(obs::kCatServer)) {
    tracer_->instant(sim_.now(), obs::kCatServer, obs::TraceLevel::kInfo,
                     ev_node_dead_, track_, 0, static_cast<std::int64_t>(n));
  }
  EEVFS_DEBUG() << "server: node " << n << " marked dead at t="
                << ticks_to_seconds(sim_.now());
}

void StorageServer::mark_alive(NodeId n) {
  NodeHealth& h = health_[n];
  if (!h.dead) return;
  h.dead = false;
  h.missed = 0;
  recovered_dead_ticks_ += sim_.now() - h.dead_since;
  ++recovery_episodes_;
  if (tracer_ && tracer_->wants(obs::kCatServer)) {
    tracer_->instant(sim_.now(), obs::kCatServer, obs::TraceLevel::kInfo,
                     ev_node_alive_, track_, 0, static_cast<std::int64_t>(n));
  }
  EEVFS_DEBUG() << "server: node " << n << " recovered at t="
                << ticks_to_seconds(sim_.now());
}

Tick StorageServer::degraded_ticks() const {
  Tick total = recovered_dead_ticks_;
  for (const NodeHealth& h : health_) {
    if (h.dead) total += sim_.now() - h.dead_since;
  }
  return total;
}

std::vector<trace::FileId> StorageServer::take_stale_files(NodeId n) {
  std::vector<trace::FileId> out(stale_files_.at(n).begin(),
                                 stale_files_.at(n).end());
  stale_files_.at(n).clear();
  return out;
}

double StorageServer::mttr_sec() const {
  return recovery_episodes_ == 0
             ? 0.0
             : ticks_to_seconds(recovered_dead_ticks_) /
                   static_cast<double>(recovery_episodes_);
}

void StorageServer::route(const trace::TraceRecord& r,
                          net::EndpointId client, RouteCallback on_done) {
  const auto entry = metadata_.lookup(r.file);
  if (!entry) {
    throw std::logic_error("StorageServer: request for unknown file " +
                           std::to_string(r.file));
  }
  // Only online refresh reads the log back.
  if (refresh_timer_.pending()) log_.append(r.file, sim_.now());
  ++requests_routed_;
  // Pay the metadata probe, then walk the candidate list (or fork the
  // erasure fan-out).  Candidate order is decided after the probe, from
  // the health picture current at dispatch time.  The entry is a view
  // into metadata_, which outlives every event this server schedules.
  (void)sim_.schedule_after(
      ServerMetadata::lookup_cost(),
      [this, r, client, entry = *entry,
       on_done = std::move(on_done)]() mutable {
        if (entry.erasure) {
          if (r.op == trace::Op::kRead) {
            ec_route(r, client, entry, std::move(on_done));
          } else {
            ec_write(r, client, entry, std::move(on_done));
          }
          return;
        }
        try_replica(r, client, ordered_replicas(r.file, entry.holders), 0,
                    entry.node, std::move(on_done));
      });
}

std::vector<NodeId> StorageServer::ordered_replicas(
    trace::FileId f, std::span<const NodeId> holders) const {
  // Believed-healthy nodes first in placement order; dead-marked nodes
  // are tried LAST instead of skipped, because a dead mark can be a
  // heartbeat false positive — this way a misjudged primary costs a
  // failover hop, never a client retry budget slot.  (file, node) pairs
  // that failed kDiskUnavailable are dropped: the platters are gone.
  std::vector<NodeId> out;
  out.reserve(holders.size());
  for (const NodeId n : holders) {
    if (unavailable_.contains({f, n}) || health_[n].dead) continue;
    out.push_back(n);
  }
  for (const NodeId n : holders) {
    if (unavailable_.contains({f, n}) || !health_[n].dead) continue;
    out.push_back(n);
  }
  return out;
}

void StorageServer::try_replica(const trace::TraceRecord& r,
                                net::EndpointId client,
                                std::vector<NodeId> candidates,
                                std::size_t idx, NodeId primary,
                                RouteCallback on_done) {
  if (idx >= candidates.size()) {
    ++requests_failed_;
    (void)sim_.schedule_after(1, [this, on_done = std::move(on_done)] {
      on_done(sim_.now(), RequestStatus::kNoReplica);
    });
    return;
  }

  StorageNode* node = nodes_.at(candidates[idx]);
  // Reordering means position 0 is not necessarily the primary: a
  // request counts as rerouted whenever a non-primary copy serves it.
  const bool rerouted = candidates[idx] != primary;
  // Forward a control message to the replica; the node then talks to the
  // client directly (step 6) — data never flows through the server.
  net_.send(
      self_, node->endpoint(), net::kControlMessageBytes,
      [this, node, r, client, candidates = std::move(candidates), idx,
       primary, rerouted, on_done = std::move(on_done)](Tick) mutable {
        StorageNode::ServeCallback handle =
            [this, r, client, candidates = std::move(candidates), idx,
             primary, rerouted, on_done = std::move(on_done)](
                Tick t, RequestStatus st) mutable {
              if (request_ok(st)) {
                if (rerouted) ++requests_rerouted_;
                if (r.op == trace::Op::kWrite) {
                  // The write landed on candidates[idx] only.  Every
                  // other copy the server believes exists is now behind:
                  // the candidates tried and failed before this one, and
                  // the dead-marked nodes ordered after it that were
                  // never reached.
                  for (std::size_t j = 0; j < candidates.size(); ++j) {
                    if (j == idx) continue;
                    if (j < idx || health_[candidates[j]].dead) {
                      stale_files_[candidates[j]].insert(r.file);
                    }
                  }
                }
                on_done(t, st);
                return;
              }
              // The node could not serve: remember why, then fail over.
              if (st == RequestStatus::kDiskUnavailable) {
                unavailable_.insert({r.file, candidates[idx]});
              } else if (st == RequestStatus::kNodeUnavailable) {
                mark_dead(candidates[idx]);
              }
              ++failovers_;
              if (tracer_ && tracer_->wants(obs::kCatServer)) {
                tracer_->instant(
                    t, obs::kCatServer, obs::TraceLevel::kInfo, ev_failover_,
                    track_, tracer_->intern(to_string(st)),
                    static_cast<std::int64_t>(r.file),
                    static_cast<std::int64_t>(candidates[idx]));
              }
              try_replica(r, client, std::move(candidates), idx + 1, primary,
                          std::move(on_done));
            };
        if (r.op == trace::Op::kRead) {
          node->serve_read(r.file, client, std::move(handle));
        } else {
          node->serve_write(r.file, r.bytes, client, std::move(handle));
        }
      });
}

// --- erasure fork-join read path ----------------------------------------

void StorageServer::ec_route(const trace::TraceRecord& r,
                             net::EndpointId client,
                             const ServerFileEntry& entry,
                             RouteCallback on_done) {
  auto op = std::make_shared<EcReadOp>();
  op->r = r;
  op->client = client;
  op->chunk_node = entry.holders;
  op->chunk_bytes = ServerMetadata::chunk_bytes(entry.size, entry.ec_k);
  op->need = entry.ec_k;
  op->on_done = std::move(on_done);
  // Candidate chunks in dispatch order: fetchable-believed chunks first
  // (data before parity within each class — chunk order), dead-marked
  // holders last, known-unavailable (file, node) pairs dropped.
  for (std::size_t c = 0; c < op->chunk_node.size(); ++c) {
    const NodeId n = op->chunk_node[c];
    if (unavailable_.contains({r.file, n}) || health_[n].dead) continue;
    op->candidates.push_back(c);
  }
  for (std::size_t c = 0; c < op->chunk_node.size(); ++c) {
    const NodeId n = op->chunk_node[c];
    if (unavailable_.contains({r.file, n}) || !health_[n].dead) continue;
    op->candidates.push_back(c);
  }
  if (op->candidates.size() < op->need) {
    ec_fail(op);
    return;
  }
  // All data chunks healthy <=> the first k candidates are exactly the
  // data chunks (the healthy pass preserves chunk order).  Anything else
  // means a fault already shaped this read.
  for (std::size_t i = 0; i < op->need; ++i) {
    if (op->candidates[i] != i) op->faulty = true;
  }
  // Fork: the first k candidates dispatch now; each spare past that arms
  // a staggered hedge timer.  A timer firing after a promotion already
  // consumed the last candidate is a harmless no-op; timers still
  // pending at the join are cancelled through their EventHandles.
  for (std::size_t i = 0; i < op->need; ++i) ec_dispatch_next(op);
  const std::size_t spares = op->candidates.size() - op->need;
  for (std::size_t j = 0; j < spares; ++j) {
    op->hedges.push_back(sim_.schedule_after(
        ec_.hedge_delay * static_cast<Tick>(j + 1) + 1, [this, op] {
          if (op->settled || op->next >= op->candidates.size()) return;
          ++ec_metrics_.hedges_launched;
          if (tracer_ && tracer_->wants(obs::kCatServer)) {
            tracer_->instant(
                sim_.now(), obs::kCatServer, obs::TraceLevel::kDebug,
                ev_ec_hedge_, track_, 0,
                static_cast<std::int64_t>(op->r.file),
                static_cast<std::int64_t>(op->candidates[op->next]));
          }
          ec_dispatch_next(op);
        }));
  }
}

void StorageServer::ec_dispatch_next(const std::shared_ptr<EcReadOp>& op) {
  if (op->settled || op->next >= op->candidates.size()) return;
  const std::size_t chunk = op->candidates[op->next++];
  StorageNode* node = nodes_.at(op->chunk_node[chunk]);
  ++op->outstanding;
  ++ec_metrics_.chunk_requests;
  net_.send(self_, node->endpoint(), net::kControlMessageBytes,
            [this, op, node, chunk](Tick) {
              node->serve_read(op->r.file, op->client,
                               [this, op, chunk](Tick t, RequestStatus st) {
                                 ec_chunk_done(op, chunk, t, st);
                               });
            });
}

void StorageServer::ec_chunk_done(const std::shared_ptr<EcReadOp>& op,
                                  std::size_t chunk, Tick t,
                                  RequestStatus st) {
  --op->outstanding;
  if (op->settled) {
    // The read already joined (or failed) without this chunk: a
    // straggler.  The spindle and fabric work still happened and is in
    // the meters; only the count is recorded here.
    ++ec_metrics_.straggler_chunks;
    return;
  }
  if (request_ok(st)) {
    ++op->arrived;
    if (chunk >= op->need) ++op->parity_used;
    if (op->arrived >= op->need) ec_join(op, t);
    return;
  }
  // Typed chunk failure: remember why, then pull in the next spare NOW
  // instead of waiting for its hedge timer.
  op->faulty = true;
  const NodeId n = op->chunk_node[chunk];
  if (st == RequestStatus::kDiskUnavailable) {
    unavailable_.insert({op->r.file, n});
  } else if (st == RequestStatus::kNodeUnavailable) {
    mark_dead(n);
  }
  ++failovers_;
  if (tracer_ && tracer_->wants(obs::kCatServer)) {
    tracer_->instant(t, obs::kCatServer, obs::TraceLevel::kInfo, ev_failover_,
                     track_, tracer_->intern(to_string(st)),
                     static_cast<std::int64_t>(op->r.file),
                     static_cast<std::int64_t>(n));
  }
  ec_dispatch_next(op);
  if (op->arrived + op->outstanding +
          (op->candidates.size() - op->next) < op->need) {
    ec_fail(op);
  }
}

void StorageServer::ec_join(const std::shared_ptr<EcReadOp>& op, Tick t) {
  op->settled = true;
  for (sim::EventHandle& h : op->hedges) {
    if (h.pending()) {
      ++ec_metrics_.hedges_cancelled;
      h.cancel();
    }
  }
  ++ec_metrics_.reads;
  // Any join that used a parity chunk needs a decode (MDS reconstruction
  // is required whenever the k arrivals are not exactly the k data
  // chunks) — that covers hedge wins too.  But only a FAULT-shaped join
  // counts as a degraded read: a hedge win on a healthy cluster is a
  // latency tactic, not an availability event.
  const bool reconstructed = op->parity_used > 0;
  const bool degraded = reconstructed && op->faulty;
  Tick decode = 0;
  if (reconstructed) {
    ++ec_metrics_.reconstructions;
    decode = ec_decode_ticks(op->chunk_bytes *
                             static_cast<Bytes>(op->need));
    ec_metrics_.reconstruct_ticks += decode;
    if (hist_ec_reconstruct_) {
      hist_ec_reconstruct_->record(static_cast<std::uint64_t>(decode));
    }
  }
  if (degraded) {
    // Book the extra spindle bytes the parity transfers cost — bytes a
    // healthy read never touches.
    ++ec_metrics_.degraded_reads;
    ec_metrics_.degraded_energy_estimate +=
        static_cast<double>(op->parity_used) *
        static_cast<double>(op->chunk_bytes) * ec_.joules_per_byte;
    ++requests_rerouted_;  // served around a missing data chunk
  }
  if (tracer_ && tracer_->wants(obs::kCatServer)) {
    tracer_->instant(t, obs::kCatServer, obs::TraceLevel::kInfo, ev_ec_join_,
                     track_, tracer_->intern(degraded ? "degraded" : "ok"),
                     static_cast<std::int64_t>(op->r.file),
                     static_cast<std::int64_t>(op->parity_used));
  }
  if (decode > 0) {
    (void)sim_.schedule_after(decode, [this, op] {
      op->on_done(sim_.now(), RequestStatus::kOk);
    });
  } else {
    op->on_done(t, RequestStatus::kOk);
  }
}

void StorageServer::ec_fail(const std::shared_ptr<EcReadOp>& op) {
  if (op->settled) return;
  op->settled = true;
  for (sim::EventHandle& h : op->hedges) {
    if (h.pending()) {
      ++ec_metrics_.hedges_cancelled;
      h.cancel();
    }
  }
  ++requests_failed_;
  (void)sim_.schedule_after(1, [this, op] {
    op->on_done(sim_.now(), RequestStatus::kNoReplica);
  });
}

void StorageServer::ec_write(const trace::TraceRecord& r,
                             net::EndpointId client,
                             const ServerFileEntry& entry,
                             RouteCallback on_done) {
  // An erasure write re-encodes and fans out to every reachable chunk
  // holder; the ack needs all dispatched chunk writes settled with at
  // least k successes.  Holders the server cannot reach (dead-marked or
  // known-unavailable) miss the write and are recorded stale for the
  // recovery manager's chunk-repair phase.
  const Bytes chunk =
      ServerMetadata::chunk_bytes(r.bytes > 0 ? r.bytes : entry.size,
                                  entry.ec_k);
  struct WriteJoin {
    std::size_t outstanding = 0;
    std::size_t acked = 0;
    Tick last_ok = 0;
    RouteCallback on_done;
  };
  auto join = std::make_shared<WriteJoin>();
  join->on_done = std::move(on_done);
  const std::size_t need = entry.ec_k;

  std::vector<std::size_t> targets;
  for (std::size_t c = 0; c < entry.holders.size(); ++c) {
    const NodeId n = entry.holders[c];
    if (unavailable_.contains({r.file, n}) || health_[n].dead) {
      stale_files_[n].insert(r.file);
      continue;
    }
    targets.push_back(c);
  }
  if (targets.size() < need) {
    ++requests_failed_;
    (void)sim_.schedule_after(1, [this, join] {
      join->on_done(sim_.now(), RequestStatus::kNoReplica);
    });
    return;
  }

  join->outstanding = targets.size();
  for (const std::size_t c : targets) {
    const NodeId nid = entry.holders[c];
    StorageNode* node = nodes_.at(nid);
    ++ec_metrics_.chunk_requests;
    net_.send(
        self_, node->endpoint(), net::kControlMessageBytes,
        [this, node, join, r, client, chunk, nid, need](Tick) {
          node->serve_write(
              r.file, chunk, client,
              [this, join, r, nid, need](Tick t, RequestStatus st) {
                --join->outstanding;
                if (request_ok(st)) {
                  ++join->acked;
                  if (t > join->last_ok) join->last_ok = t;
                } else {
                  if (st == RequestStatus::kDiskUnavailable) {
                    unavailable_.insert({r.file, nid});
                  } else if (st == RequestStatus::kNodeUnavailable) {
                    mark_dead(nid);
                  }
                  ++failovers_;
                  stale_files_[nid].insert(r.file);
                  if (tracer_ && tracer_->wants(obs::kCatServer)) {
                    tracer_->instant(t, obs::kCatServer,
                                     obs::TraceLevel::kInfo, ev_failover_,
                                     track_, tracer_->intern(to_string(st)),
                                     static_cast<std::int64_t>(r.file),
                                     static_cast<std::int64_t>(nid));
                  }
                }
                if (join->outstanding == 0) {
                  if (join->acked >= need) {
                    join->on_done(join->last_ok, RequestStatus::kOk);
                  } else {
                    ++requests_failed_;
                    join->on_done(sim_.now(), RequestStatus::kNoReplica);
                  }
                }
              });
        });
  }
}

}  // namespace eevfs::core
