#include "core/storage_server.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/placement.hpp"
#include "util/logging.hpp"

namespace eevfs::core {

StorageServer::StorageServer(sim::Simulator& sim, net::NetworkFabric& net,
                             net::EndpointId self, PlacementPolicy placement,
                             std::uint64_t seed, obs::Registry& registry)
    : sim_(sim),
      net_(net),
      self_(self),
      placement_policy_(placement),
      rng_(Rng(seed).fork(0xC0FFEE)),
      metrics_{registry} {}

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
  // makes the node-local disk round-robin load balance (§III-B).  Every
  // node learns its copy count first (PDC's disk bands need it), then one
  // pass over the creation order creates each file on all its holders,
  // replicas included, so each node sees its own files in that order.
  // Under erasure coding each node stores a chunk-sized image, not the
  // whole file.
  std::vector<std::size_t> copies(nodes_.size(), 0);
  for (trace::FileId f = 0; f < metadata_.files(); ++f) {
    for (const NodeId n : metadata_.holders(f)) ++copies[n];
  }
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    nodes_[n]->expect_files(copies[n]);
  }
  for_each_in_creation_order(
      file_sizes.size(), *analyzer_, [&](trace::FileId f) {
        const Bytes chunk =
            ServerMetadata::chunk_bytes(file_sizes[f], metadata_.ec_k());
        for (const NodeId n : metadata_.holders(f)) {
          nodes_[n]->create_file(f, chunk);
        }
      });
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
  // The arena holds the accessed files' slots in FileId order, each
  // sized from the file's ingested access count; files never accessed
  // have no slot.
  const std::size_t files = metadata_.files();
  const auto unknown = [](trace::FileId f) {
    return std::out_of_range("StorageServer: unknown file " +
                             std::to_string(f));
  };
  struct Slot {
    trace::FileId file = 0;
    std::size_t count = 0;
    std::size_t begin = 0;
    std::size_t end() const { return begin + count; }
  };
  // Modeled offsets are exact up to 2^31 accesses per file (see below);
  // a larger count is refused here, before the arena is allocated.
  const bool modeled = !exact && horizon > 0;
  std::vector<Slot> slots;
  slots.reserve(analyzer_->ranked().size());
  for (const trace::FilePopularity& p : analyzer_->ranked()) {
    if (p.file >= files) throw unknown(p.file);
    if (modeled && p.accesses > (std::size_t{1} << 31)) {
      throw std::invalid_argument(
          "StorageServer: over 2^31 modeled accesses to file " +
          std::to_string(p.file));
    }
    slots.push_back({.file = p.file, .count = p.accesses});
  }
  std::sort(slots.begin(), slots.end(),
            [](const Slot& a, const Slot& b) { return a.file < b.file; });
  std::size_t arena_size = 0;
  for (Slot& slot : slots) {
    slot.begin = arena_size;
    arena_size = slot.end();
  }

  hint_arena_ = std::vector<Tick>(exact || modeled ? arena_size : 0);
  if (exact) {
    const auto miscount = [](trace::FileId f) {
      return std::invalid_argument(
          "StorageServer: the hint pass disagrees with the ingested "
          "access count of file " + std::to_string(f));
    };
    // A request finds its file's slot through a 4-byte index per file.
    constexpr auto kNoSlot = static_cast<std::uint32_t>(-1);
    std::vector<std::uint32_t> slot_of(files, kNoSlot);
    std::vector<std::size_t> next(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      slot_of[slots[i].file] = static_cast<std::uint32_t>(i);
      next[i] = slots[i].begin;
    }
    trace::TraceRecord r;
    while (exact->next(&r)) {
      if (r.file >= files) throw unknown(r.file);
      const std::uint32_t i = slot_of[r.file];
      if (i == kNoSlot || next[i] == slots[i].end()) throw miscount(r.file);
      hint_arena_[next[i]++] = r.arrival;
    }
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (next[i] != slots[i].end()) throw miscount(slots[i].file);
    }
  } else if (modeled) {
    for (const Slot& slot : slots) {
      // Midpoint spacing keeps the first expected access off t=0 and the
      // last off the horizon edge, so modeled idle windows stay
      // symmetric.  (2i+1)·H/2c is computed as (2i+1)·q + (2i+1)·r/2c
      // with H = q·2c + r: the same value, but no product reaches H·2c,
      // and (2i+1)·r < 4c² fits 64 unsigned bits for c ≤ 2^31.
      const auto c = static_cast<Tick>(slot.count);
      const Tick q = horizon / (2 * c);
      const auto r = static_cast<std::uint64_t>(horizon % (2 * c));
      for (Tick i = 0; i < c; ++i) {
        const Tick odd = 2 * i + 1;
        hint_arena_[slot.begin + static_cast<std::size_t>(i)] =
            odd * q + static_cast<Tick>(static_cast<std::uint64_t>(odd) * r /
                                        static_cast<std::uint64_t>(2 * c));
      }
    }
  }

  // Every serving holder gets a view of the file's slot, not a copy.
  std::vector<std::vector<FileHints>> per_node(nodes_.size());
  if (!hint_arena_.empty()) {
    for (const Slot& slot : slots) {
      const std::span<const Tick> offsets(hint_arena_.data() + slot.begin,
                                          slot.count);
      for (const NodeId n : serving_holders(slot.file)) {
        per_node[n].push_back({slot.file, offsets});
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

/// Modeled decode throughput for reconstruction (degraded reads and
/// background repair): 400 MB/s.
constexpr double kEcDecodeBytesPerSec = 400.0e6;

Tick StorageServer::ec_decode_ticks(Bytes bytes) const {
  return seconds_to_ticks(static_cast<double>(bytes) / kEcDecodeBytesPerSec);
}

void StorageServer::note_chunk_repaired(Tick decode_ticks) {
  metrics_.ec_repaired_chunks.add();
  metrics_.ec_reconstructions.add();
  metrics_.ec_decode_time.add(static_cast<std::uint64_t>(decode_ticks));
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
    metrics_.refreshes.add();
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

void StorageServer::begin_health_monitor() {
  heartbeat_timer_.cancel();
  heartbeat_timer_ =
      sim_.schedule_after(kHeartbeatInterval, [this] { heartbeat_round(); });
}

void StorageServer::stop_health_monitor() {
  heartbeat_timer_.cancel();
  for (const NodeHealth& h : health_) {
    if (h.dead) {
      metrics_.degraded_time.add(
          static_cast<std::uint64_t>(sim_.now() - h.dead_since));
    }
  }
}

void StorageServer::heartbeat_round() {
  // Settle last round first: a ping still in flight means no reply came
  // back within a full interval.
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    NodeHealth& h = health_[n];
    if (h.ping_in_flight && !h.dead &&
        ++h.missed >= kHeartbeatMissThreshold) {
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
      sim_.schedule_after(kHeartbeatInterval, [this] { heartbeat_round(); });
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
  const auto dead_for = static_cast<std::uint64_t>(sim_.now() - h.dead_since);
  metrics_.recovered_dead_time.add(dead_for);
  metrics_.degraded_time.add(dead_for);
  metrics_.heartbeat_recoveries.add();
  if (tracer_ && tracer_->wants(obs::kCatServer)) {
    tracer_->instant(sim_.now(), obs::kCatServer, obs::TraceLevel::kInfo,
                     ev_node_alive_, track_, 0, static_cast<std::int64_t>(n));
  }
  EEVFS_DEBUG() << "server: node " << n << " recovered at t="
                << ticks_to_seconds(sim_.now());
}

void StorageServer::note_holder_failure(trace::FileId f, NodeId n,
                                        RequestStatus st, Tick t) {
  if (st == RequestStatus::kDiskUnavailable) {
    unavailable_.insert({f, n});
  } else if (st == RequestStatus::kNodeUnavailable) {
    mark_dead(n);
  }
  metrics_.failovers.add();
  if (tracer_ && tracer_->wants(obs::kCatServer)) {
    tracer_->instant(t, obs::kCatServer, obs::TraceLevel::kInfo, ev_failover_,
                     track_, tracer_->intern(to_string(st)),
                     static_cast<std::int64_t>(f),
                     static_cast<std::int64_t>(n));
  }
}

void StorageServer::fail_next_tick(RouteCallback on_done) {
  metrics_.failed.add();
  (void)sim_.schedule_after(1, [this, on_done = std::move(on_done)] {
    on_done(sim_.now(), RequestStatus::kNoReplica);
  });
}

std::vector<trace::FileId> StorageServer::take_stale_files(NodeId n) {
  std::vector<trace::FileId> out(stale_files_.at(n).begin(),
                                 stale_files_.at(n).end());
  stale_files_.at(n).clear();
  return out;
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
  metrics_.routed.add();
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
        // The replicas in the order to try them, turned from holder
        // positions into nodes in place.
        std::vector<NodeId> replicas = holder_order(r.file, entry.holders);
        for (NodeId& n : replicas) n = entry.holders[n];
        try_replica(r, client, std::move(replicas), 0, entry.node,
                    std::move(on_done));
      });
}

std::vector<std::size_t> StorageServer::holder_order(
    trace::FileId f, std::span<const NodeId> holders) const {
  // Believed-healthy nodes first in placement order; dead-marked nodes
  // are tried LAST instead of skipped, because a dead mark can be a
  // heartbeat false positive — this way a misjudged primary costs a
  // failover hop, never a client retry budget slot.  (file, node) pairs
  // that failed kDiskUnavailable are dropped: the platters are gone.
  std::vector<std::size_t> out;
  out.reserve(holders.size());
  for (const bool dead : {false, true}) {
    for (std::size_t i = 0; i < holders.size(); ++i) {
      const NodeId n = holders[i];
      if (health_[n].dead == dead && !unavailable_.contains({f, n})) {
        out.push_back(i);
      }
    }
  }
  return out;
}

void StorageServer::try_replica(const trace::TraceRecord& r,
                                net::EndpointId client,
                                std::vector<NodeId> candidates,
                                std::size_t idx, NodeId primary,
                                RouteCallback on_done) {
  if (idx >= candidates.size()) {
    fail_next_tick(std::move(on_done));
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
                if (rerouted) metrics_.rerouted.add();
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
              note_holder_failure(r.file, candidates[idx], st, t);
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
  // Candidate chunks in dispatch order, the replicas' order: data before
  // parity within each class (chunk order).
  op->candidates = holder_order(r.file, op->chunk_node);
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
          metrics_.ec_hedges_launched.add();
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
  metrics_.ec_chunk_requests.add();
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
    metrics_.ec_straggler_chunks.add();
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
  note_holder_failure(op->r.file, op->chunk_node[chunk], st, t);
  ec_dispatch_next(op);
  if (op->arrived + op->outstanding +
          (op->candidates.size() - op->next) < op->need) {
    ec_fail(op);
  }
}

void StorageServer::settle(EcReadOp& op) {
  op.settled = true;
  for (sim::EventHandle& h : op.hedges) {
    if (h.pending()) {
      metrics_.ec_hedges_cancelled.add();
      h.cancel();
    }
  }
}

void StorageServer::ec_join(const std::shared_ptr<EcReadOp>& op, Tick t) {
  settle(*op);
  metrics_.ec_reads.add();
  // Any join that used a parity chunk needs a decode (MDS reconstruction
  // is required whenever the k arrivals are not exactly the k data
  // chunks) — that covers hedge wins too.  But only a FAULT-shaped join
  // counts as a degraded read: a hedge win on a healthy cluster is a
  // latency tactic, not an availability event.
  const bool reconstructed = op->parity_used > 0;
  const bool degraded = reconstructed && op->faulty;
  Tick decode = 0;
  if (reconstructed) {
    metrics_.ec_reconstructions.add();
    decode = ec_decode_ticks(op->chunk_bytes *
                             static_cast<Bytes>(op->need));
    metrics_.ec_decode_time.add(static_cast<std::uint64_t>(decode));
    metrics_.ec_reconstruct_time.record(static_cast<std::uint64_t>(decode));
  }
  if (degraded) {
    // Book the extra spindle bytes the parity transfers cost — bytes a
    // healthy read never touches.
    metrics_.ec_degraded_reads.add();
    metrics_.ec_degraded_energy.add(static_cast<double>(op->parity_used) *
                                    static_cast<double>(op->chunk_bytes) *
                                    ec_.joules_per_byte);
    // Served around a missing data chunk.
    metrics_.rerouted.add();
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
  settle(*op);
  fail_next_tick(std::move(op->on_done));
}

void StorageServer::ec_write(const trace::TraceRecord& r,
                             net::EndpointId client,
                             const ServerFileEntry& entry,
                             RouteCallback on_done) {
  // An erasure write re-encodes and fans out to every reachable chunk
  // holder; the ack needs all dispatched chunk writes settled with at
  // least k successes.  Holders the server cannot reach (dead-marked or
  // known-unavailable) miss the write and are recorded stale for the
  // recovery manager's repair phase.
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
    fail_next_tick(std::move(join->on_done));
    return;
  }

  join->outstanding = targets.size();
  for (const std::size_t c : targets) {
    const NodeId nid = entry.holders[c];
    StorageNode* node = nodes_.at(nid);
    metrics_.ec_chunk_requests.add();
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
                  note_holder_failure(r.file, nid, st, t);
                  stale_files_[nid].insert(r.file);
                }
                if (join->outstanding == 0) {
                  if (join->acked >= need) {
                    join->on_done(join->last_ok, RequestStatus::kOk);
                  } else {
                    metrics_.failed.add();
                    join->on_done(sim_.now(), RequestStatus::kNoReplica);
                  }
                }
              });
        });
  }
}

}  // namespace eevfs::core
