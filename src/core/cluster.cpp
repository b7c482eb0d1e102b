#include "core/cluster.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "trace/trace.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace eevfs::core {

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  config_.validate();
}

Cluster::~Cluster() = default;

void Cluster::build_infra() {
  sim_ = std::make_unique<sim::Simulator>();
  // Every component counts into this registry as events happen, whether
  // or not tracing is enabled — RunMetrics must be independent of trace
  // state.  Each registers its names when it is built; the recovery
  // names are registered even when no fault plan builds a manager.
  registry_ = std::make_unique<obs::Registry>();
  client_metrics_.emplace(*registry_);
  RecoveryManager::register_metrics(*registry_);
  tracer_ = std::make_unique<obs::Tracer>(config_.trace);
  if (config_.trace.enabled) {
    ev_client_request_ = tracer_->intern("client.request");
  }
  net_ = std::make_unique<net::NetworkFabric>(*sim_);
  net_->set_observer(observer());

  const auto server_ep = net_->add_endpoint(
      "server", net::mbps_to_bytes_per_sec(kServerNicMbps) *
          config_.nic_efficiency);
  server_ = std::make_unique<StorageServer>(*sim_, *net_, server_ep,
                                            config_.placement, config_.seed,
                                            *registry_);

  nodes_.clear();
  std::vector<StorageNode*> raw;
  for (NodeId n = 0; n < config_.num_storage_nodes; ++n) {
    const auto ep = net_->add_endpoint(
        format("node%zu", n),
        net::mbps_to_bytes_per_sec(config_.node_nic_mbps(n)) *
            config_.nic_efficiency);
    NodeParams params;
    params.id = n;
    params.data_disks = config_.data_disks_per_node;
    params.buffer_disks = config_.buffer_disks_per_node;
    params.disk_profile = config_.node_disk_profile(n);
    params.base_watts = config_.node_base_watts;
    params.power.policy = config_.power_policy;
    params.power.idle_threshold = seconds_to_ticks(config_.idle_threshold_sec);
    params.power.sleep_margin = config_.sleep_margin;
    params.cache_policy = config_.cache_policy;
    params.write_buffering = config_.write_buffering;
    params.prebud_gate = config_.prebud_gate;
    params.disk_placement = config_.disk_placement;
    params.stripe_width = config_.stripe_width;
    params.journal.mode = config_.journal_mode;
    params.ram_cache_bytes = config_.ram_cache_bytes;
    params.ram_cache_policy = config_.ram_cache_policy;
    nodes_.push_back(std::make_unique<StorageNode>(*sim_, *net_, ep, params,
                                                   *registry_));
    nodes_.back()->set_observer(observer());
    raw.push_back(nodes_.back().get());
  }

  clients_.clear();
  for (std::uint32_t c = 0; c < config_.num_clients; ++c) {
    const auto ep = net_->add_endpoint(
        format("client%u", c),
        net::mbps_to_bytes_per_sec(kClientNicMbps) *
            config_.nic_efficiency);
    clients_.emplace_back(ep);
  }
  client_tracks_.assign(clients_.size(), 0);

  // Steps 1-4.
  server_->set_observer(observer());
  server_->register_nodes(std::move(raw));
  server_->set_replication_degree(config_.replication_degree);
  if (config_.ec_n > 0) {
    StorageServer::ErasureParams ec;
    ec.n = config_.ec_n;
    ec.k = config_.ec_k;
    ec.hedge_delay = milliseconds_to_ticks(config_.ec_hedge_ms);
    // Spindle energy per transferred byte, from the node disk profile:
    // what a 1 MiB sequential transfer costs at active power.  Used for
    // the degraded-read energy estimate (parity bytes a healthy read
    // never touches).
    const disk::DiskProfile prof = config_.node_disk_profile(0);
    const Bytes mib = 1 << 20;
    ec.joules_per_byte = prof.active_watts *
                         ticks_to_seconds(prof.service_time(mib, true)) /
                         static_cast<double>(mib);
    server_->set_erasure(ec);
  }
}

void Cluster::build(const std::vector<Bytes>& file_sizes,
                    std::size_t num_requests,
                    const workload::PassFactory& open, bool exact_hints) {
  if (finished_) {
    throw std::logic_error("Cluster: run() may only be called once");
  }
  build_infra();
  // Step 2: one pass folds every request into its file's popularity.  In
  // online mode the server knows the files (sizes) but nothing about the
  // access pattern — popularity is learned from the request log.  Only
  // accessed files get a summary, in first-access order (the ranking
  // sorts them); `summary` maps a declared file to its summary's index
  // plus one, 0 while it has none.
  std::vector<trace::FilePopularity> pop;
  std::size_t total = 0;
  Tick horizon = 0;
  if (!config_.online_popularity) {
    std::vector<std::uint32_t> summary(file_sizes.size(), 0);
    const auto pass = open();
    trace::TraceRecord r;
    while (pass->next(&r)) {
      std::uint32_t& s = summary.at(r.file);
      if (s == 0) {
        pop.emplace_back();
        s = static_cast<std::uint32_t>(pop.size());
      }
      pop[s - 1].add(r);
      ++total;
      horizon = r.arrival;  // arrivals are non-decreasing
    }
    if (total != num_requests) {
      throw std::invalid_argument(
          format("Cluster: workload declares %zu requests but yields %zu",
                 num_requests, total));
    }
  }
  server_->ingest_popularity(trace::PopularityAnalyzer(std::move(pop), total));
  server_->place_and_create(file_sizes);
  server_->distribute_patterns(
      horizon, exact_hints && !config_.online_popularity ? open() : nullptr);
  arm_faults();
  responses_outstanding_ = num_requests;
  replay_ = open();
}

void Cluster::arm_faults() {
  // Arm the fault schedule (an empty plan costs nothing — no hooks, no
  // events).  Node-level faults go through these callbacks so the fault
  // library never depends on core.
  if (!config_.fault_plan.empty()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(*sim_, config_.fault_plan);
    std::vector<StorageNode*> node_ptrs;
    node_ptrs.reserve(nodes_.size());
    for (auto& n : nodes_) node_ptrs.push_back(n.get());
    recovery_ = std::make_unique<RecoveryManager>(
        *sim_, *server_, std::move(node_ptrs), *registry_);
    recovery_->set_observer(observer());
    fault::FaultInjector::Targets targets;
    targets.disk_of = [this](std::size_t node, bool buffer_disk,
                             std::size_t d) -> disk::DiskModel* {
      if (node >= nodes_.size()) return nullptr;
      StorageNode& sn = *nodes_[node];
      if (buffer_disk) {
        return d < sn.num_buffer_disks() ? &sn.mutable_buffer_disk(d)
                                         : nullptr;
      }
      return d < sn.num_data_disks() ? &sn.mutable_data_disk(d) : nullptr;
    };
    targets.crash_node = [this](std::size_t node) {
      if (node >= nodes_.size()) return;
      nodes_[node]->crash();
      recovery_->on_crash(node);
    };
    targets.restart_node = [this](std::size_t node) {
      // The recovery manager owns the restart lifecycle: it brings the
      // node back and then runs journal replay -> repair -> prefetch
      // re-warm, timing each phase.
      if (node < nodes_.size()) recovery_->on_restart(node);
    };
    injector_->set_observer(observer());
    injector_->arm(net_.get(), std::move(targets));
  }
}

RunMetrics Cluster::run(const workload::Workload& workload) {
  if (workload.requests.empty()) {
    throw std::invalid_argument("Cluster: empty workload");
  }
  const std::span<const trace::TraceRecord> records =
      workload.requests.records();
  build(workload.file_sizes, records.size(),
        [records] { return std::make_unique<workload::SpanStream>(records); },
        /*exact_hints=*/true);
  return run_phase();
}

RunMetrics Cluster::run_stream(const workload::StreamingWorkload& workload) {
  if (config_.online_popularity) {
    throw std::invalid_argument(
        "Cluster: run_stream supports offline popularity only");
  }
  if (workload.num_requests == 0 || !workload.open) {
    throw std::invalid_argument("Cluster: empty streaming workload");
  }
  build(workload.file_sizes, workload.num_requests, workload.open,
        /*exact_hints=*/false);
  return run_phase();
}

RunMetrics Cluster::run_phase() {
  // Step 3b: prefetch, then replay once every node is done (barrier).
  // In online mode nothing is known yet, so the initial prefetch is
  // empty and the periodic refresh does the work.
  const bool prefetching = config_.cache_policy == CachePolicy::kPrefetch &&
                           !config_.online_popularity;
  auto candidates =
      prefetching
          ? server_->prefetch_candidates(config_.prefetch_file_count)
          : std::vector<std::vector<trace::FileId>>(nodes_.size());

  auto barrier = std::make_shared<std::size_t>(nodes_.size());
  (void)sim_->schedule_at(0, [this, candidates = std::move(candidates),
                              barrier]() mutable {
    // Every node plans before any copy starts, so the hint arena, which
    // only planning reads, is gone before the copies' state builds up.
    // Planning schedules no event: the event order is that of planning
    // and copying node by node.  Each node keeps its slice and plan:
    // recovery restores the plan in slice order after a crash wipes the
    // RAM and buffer tiers.
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      nodes_[n]->plan_prefetch(std::move(candidates[n]));
    }
    server_->release_hints();
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      nodes_[n]->warm_prefetch([this, barrier] {
        if (--*barrier == 0) {
          const Tick replay_start = sim_->now();
          metrics_.prefetch_duration = replay_start;
          for (auto& node : nodes_) node->begin_replay(replay_start);
          if (config_.online_popularity &&
              config_.cache_policy == CachePolicy::kPrefetch) {
            server_->begin_online_refresh(
                config_.prefetch_file_count,
                seconds_to_ticks(config_.refresh_interval_sec));
          }
          if (injector_) server_->begin_health_monitor();
          start_replay(replay_start);
        }
      });
    }
  });

  sim_->run();
  if (!finished_) {
    throw std::logic_error(
        "Cluster: simulation drained before all responses arrived");
  }
  return metrics_;
}

void Cluster::start_replay(Tick replay_start) {
  // Closed loop per client, like the paper's replayer: a client issues
  // its next record at its trace arrival time, but never before its
  // previous request completed.  This bounds queues at zero inter-arrival
  // delay and stretches the run when service times exceed the spacing
  // (the paper's 50 MB "test ran longer than the original trace time").
  queues_ = std::vector<FifoRing<trace::TraceRecord>>(clients_.size());
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    if (const trace::TraceRecord* first = next_record(c)) {
      (void)sim_->schedule_at(replay_start + first->arrival,
                        [this, c, replay_start] { issue_next(c, replay_start); });
    }
  }
}

const trace::TraceRecord* Cluster::next_record(std::size_t client_idx) {
  FifoRing<trace::TraceRecord>& queue = queues_[client_idx];
  trace::TraceRecord r;
  while (queue.empty() && replay_) {
    if (!replay_->next(&r)) {
      replay_.reset();  // dry: what is left is all in client queues
      break;
    }
    queues_[r.client % clients_.size()].push_back(r);
    peak_resident_ = std::max(peak_resident_, ++resident_);
  }
  return queue.empty() ? nullptr : &queue.front();
}

void Cluster::issue_next(std::size_t client_idx, Tick replay_start) {
  const trace::TraceRecord r = queues_[client_idx].front();
  queues_[client_idx].pop_front();
  --resident_;
  // Counted once here; re-issues are further attempts of this request.
  client_metrics_->requests.add();
  start_attempt(client_idx, r, replay_start, 0);
}

void Cluster::start_attempt(std::size_t client_idx,
                            const trace::TraceRecord& r, Tick replay_start,
                            std::size_t attempt) {
  Client& client = clients_[client_idx];
  const Tick issued = sim_->now();
  // One attempt can end two ways — a typed completion from the stack, or
  // the client-side deadline.  Whichever fires first wins; the guard
  // makes the loser a no-op (a late reply to a timed-out attempt is
  // dropped, like a closed socket).
  auto settled = std::make_shared<bool>(false);
  auto deadline = std::make_shared<sim::EventHandle>();
  auto finish = [this, client_idx, r, replay_start, attempt, issued, settled,
                 deadline](Tick t, RequestStatus st) {
    if (*settled) return;
    *settled = true;
    deadline->cancel();
    if (tracer_->wants(obs::kCatClient)) {
      tracer_->complete(
          issued, t - issued, obs::kCatClient, obs::TraceLevel::kInfo,
          ev_client_request_, client_track(client_idx), status_name(st),
          static_cast<std::int64_t>(r.file),
          static_cast<std::int64_t>(attempt));
    }
    ClientMetrics& cm = *client_metrics_;
    if (request_ok(st)) {
      cm.latency.record(static_cast<std::uint64_t>(t - issued));
      clients_[client_idx].record_response(issued, t);
      if (attempt > 0) cm.retried.add();
      complete_request(client_idx, replay_start);
      return;
    }
    if (st == RequestStatus::kTimedOut) cm.timeouts.add();
    if (attempt < config_.max_request_retries) {
      cm.retries.add();
      start_attempt(client_idx, r, replay_start, attempt + 1);
      return;
    }
    cm.failed.add();
    EEVFS_DEBUG() << "request for file " << r.file << " failed: "
                  << to_string(st);
    complete_request(client_idx, replay_start);
  };

  if (config_.request_timeout_sec > 0) {
    *deadline = sim_->schedule_after(
        seconds_to_ticks(config_.request_timeout_sec),
        [this, finish] { finish(sim_->now(), RequestStatus::kTimedOut); });
  }
  // Step 5: the client asks the server; step 6 delivers data back.
  net_->send(client.endpoint(), server_->endpoint(),
             net::kControlMessageBytes, [this, r, client_idx, finish](Tick) {
               server_->route(r, clients_[client_idx].endpoint(),
                              [finish](Tick t, RequestStatus st) {
                                finish(t, st);
                              });
             });
}

void Cluster::complete_request(std::size_t client_idx, Tick replay_start) {
  if (const trace::TraceRecord* next = next_record(client_idx)) {
    const Tick due = replay_start + next->arrival;
    (void)sim_->schedule_at(std::max(due, sim_->now()),
                      [this, client_idx, replay_start] {
                        issue_next(client_idx, replay_start);
                      });
  }
  if (--responses_outstanding_ == 0) finish_run();
}

obs::StringId Cluster::client_track(std::size_t client_idx) {
  obs::StringId& id = client_tracks_[client_idx];
  if (id == 0) id = tracer_->intern(format("client%zu", client_idx));
  return id;
}

obs::StringId Cluster::status_name(RequestStatus st) {
  obs::StringId& id = status_names_.at(static_cast<std::size_t>(st));
  if (id == 0) id = tracer_->intern(to_string(st));
  return id;
}

void Cluster::finish_run() {
  // If writes are still parked on buffer disks, destage them first so the
  // run's energy includes the work it deferred.
  for (auto& node : nodes_) {
    if (node->has_pending_writes()) {
      auto remaining = std::make_shared<std::size_t>(0);
      for (auto& n : nodes_) {
        if (n->has_pending_writes()) ++*remaining;
      }
      for (auto& n : nodes_) {
        if (!n->has_pending_writes()) continue;
        n->flush_pending_writes([this, remaining] {
          if (--*remaining == 0) finish_run();
        });
      }
      return;
    }
  }
  if (finished_) return;
  finished_ = true;
  server_->stop_online_refresh();
  server_->stop_health_monitor();

  metrics_.makespan = sim_->now();
  for (const Client& c : clients_) {
    metrics_.response_time_sec.merge(c.response_stats());
  }
  const obs::Histogram& latency = client_metrics_->latency;
  metrics_.response_p95_sec = ticks_to_seconds(
      static_cast<Tick>(latency.percentile(0.95)));
  metrics_.response_p99_sec = ticks_to_seconds(
      static_cast<Tick>(latency.percentile(0.99)));

  for (auto& node : nodes_) {
    node->shutdown();
    NodeMetrics nm = node->collect_metrics();
    metrics_.disk_joules += nm.disk_joules;
    metrics_.base_joules += nm.base_joules;
    metrics_.spin_ups += nm.spin_ups;
    metrics_.spin_downs += nm.spin_downs;
    metrics_.per_node.push_back(std::move(nm));
  }
  metrics_.power_transitions = metrics_.spin_ups + metrics_.spin_downs;
  metrics_.total_joules = metrics_.disk_joules + metrics_.base_joules;

  // The RAM tier's figures (zero without one), and from them the hit-rate
  // gauge the tier registers, set once before the snapshot.
  RunMetrics& m = metrics_;
  const auto ram = [this](const char* name) -> std::uint64_t {
    const obs::Counter* c = registry_->find_counter(name);
    return c == nullptr ? 0 : c->value();
  };
  m.ram = {.hits = ram("ramcache.hits.count"),
           .misses = ram("ramcache.misses.count"),
           .evictions = ram("ramcache.evictions.count"),
           .writes_absorbed = ram("ramcache.writes_absorbed.count")};
  if (registry_->find_gauge("ramcache.hit_rate.ratio") != nullptr) {
    registry_->gauge("ramcache.hit_rate.ratio").set(m.ram.hit_rate());
  }
  snapshot_counters();

  // The headline counts, read once from the snapshot.
  m.requests = m.count("client.requests.count");
  m.buffer_hits = m.count("prefetch.buffer_hits.count");
  m.data_disk_reads = m.count("prefetch.data_disk_reads.count");
  m.wakeups_on_demand = m.count("power.wakeups_on_demand.count");
  m.bytes_served = m.count("node.bytes_served.bytes");
  m.bytes_prefetched = m.count("prefetch.bytes_prefetched.bytes");
  EEVFS_INFO() << "run finished: " << metrics_.summary();
}

void Cluster::snapshot_counters() {
  // Components count into the registry as events happen; what is left
  // are the device totals the disks, power managers, fabric, journals and
  // fault injector keep, the engine's, and the run's energy, folded once
  // here.  Wall-clock quantities (Simulator::wall_seconds) are kept out:
  // the snapshot lands in RunMetrics, which must be reproducible.
  obs::Registry& reg = *registry_;
  reg.counter("sim.events_executed.count").add(sim_->executed_events());
  reg.gauge("sim.queue_depth_peak.count")
      .set(static_cast<double>(sim_->max_queue_depth()));

  auto each_disk = [this](auto&& fn) {
    for (const auto& node : nodes_) {
      for (std::size_t d = 0; d < node->num_data_disks(); ++d) {
        fn(node->data_disk(d));
      }
      for (std::size_t d = 0; d < node->num_buffer_disks(); ++d) {
        fn(node->buffer_disk(d));
      }
    }
  };
  obs::Counter& spin_ups = reg.counter("disk.spin_ups.count");
  obs::Counter& spin_downs = reg.counter("disk.spin_downs.count");
  obs::Counter& spin_up_retries = reg.counter("disk.spin_up_retries.count");
  obs::Counter& demand_spin_ups = reg.counter("disk.demand_spin_ups.count");
  obs::Counter& media_errors = reg.counter("disk.media_errors.count");
  obs::Counter& io_completed = reg.counter("disk.requests_completed.count");
  obs::Counter& io_failed = reg.counter("disk.requests_failed.count");
  obs::Counter& disk_bytes = reg.counter("disk.bytes_transferred.bytes");
  each_disk([&](const disk::DiskModel& dm) {
    spin_ups.add(dm.spin_ups());
    spin_downs.add(dm.spin_downs());
    spin_up_retries.add(dm.spin_up_retries());
    demand_spin_ups.add(dm.demand_spin_ups());
    media_errors.add(dm.media_errors());
    io_completed.add(dm.requests_completed());
    io_failed.add(dm.requests_failed());
    disk_bytes.add(dm.bytes_transferred());
  });

  obs::Counter& sleeps = reg.counter("power.sleeps_initiated.count");
  obs::Counter& wake_marks = reg.counter("power.wake_marks.count");
  std::uint64_t j_appends = 0, j_checkpoints = 0, j_truncated = 0;
  Bytes j_scan_bytes = 0;
  for (const auto& node : nodes_) {
    sleeps.add(node->power_manager().sleeps_initiated());
    wake_marks.add(node->power_manager().wake_marks());
    if (const disk::WriteJournal* j = node->journal()) {
      j_appends += j->appends();
      j_checkpoints += j->checkpoints();
      j_truncated += j->truncated_records();
      j_scan_bytes += j->replay_scan_bytes();
    }
  }
  reg.counter("journal.appends.count").add(j_appends);
  reg.counter("journal.checkpoints.count").add(j_checkpoints);
  reg.counter("journal.truncated_records.count").add(j_truncated);
  reg.counter("journal.replay_scan.bytes").add(j_scan_bytes);

  obs::Counter& msgs_sent = reg.counter("net.messages_sent.count");
  obs::Counter& msgs_dropped = reg.counter("net.messages_dropped.count");
  obs::Counter& net_bytes = reg.counter("net.bytes_sent.bytes");
  for (std::size_t e = 0; e < net_->endpoint_count(); ++e) {
    const net::EndpointStats& st = net_->stats(e);
    msgs_sent.add(st.messages_sent);
    msgs_dropped.add(st.messages_dropped);
    net_bytes.add(st.bytes_sent);
  }

  reg.counter("fault.injected.count")
      .add(injector_ ? injector_->faults_injected() : 0);
  reg.counter("fault.misaddressed.count")
      .add(injector_ ? injector_->faults_misaddressed() : 0);
  reg.counter("fault.messages_dropped.count")
      .add(injector_ ? injector_->messages_dropped() : 0);

  reg.gauge("energy.total.joules").set(metrics_.total_joules);
  reg.gauge("energy.disk.joules").set(metrics_.disk_joules);
  reg.gauge("energy.base.joules").set(metrics_.base_joules);

  metrics_.counters = reg.snapshot();
}

PfNpfComparison run_pf_npf(const ClusterConfig& config,
                           const workload::Workload& workload) {
  PfNpfComparison out;
  {
    ClusterConfig pf = config;
    pf.cache_policy = CachePolicy::kPrefetch;
    Cluster cluster(pf);
    out.pf = cluster.run(workload);
  }
  {
    // The paper's NPF never transitions disks: the standby schedule is
    // derived from the prefetch plan (§III-C), so without prefetching
    // there are no marked sleep points — NPF's Fig. 4/5 curves show no
    // transition or spin-up artifacts.  Model that by disabling power
    // management alongside prefetching.
    ClusterConfig npf = config;
    npf.cache_policy = CachePolicy::kNone;
    npf.power_policy = PowerPolicy::kNone;
    Cluster cluster(npf);
    out.npf = cluster.run(workload);
  }
  return out;
}

}  // namespace eevfs::core
