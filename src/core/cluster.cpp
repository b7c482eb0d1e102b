#include "core/cluster.hpp"

#include <stdexcept>

#include "util/logging.hpp"
#include "util/string_util.hpp"

namespace eevfs::core {

Cluster::Cluster(ClusterConfig config) : config_(std::move(config)) {
  config_.validate();
}

Cluster::~Cluster() = default;

void Cluster::build_infra() {
  sim_ = std::make_unique<sim::Simulator>();
  registry_ = std::make_unique<obs::Registry>();
  tracer_ = std::make_unique<obs::Tracer>(config_.trace);
  // The histograms exist (and are recorded) whether or not tracing is
  // enabled — RunMetrics must be independent of trace state.
  hist_queue_wait_ = &registry_->histogram("disk.queue_wait.us");
  hist_req_latency_ = &registry_->histogram("client.request_latency.us");
  // Recovery-phase histograms are part of the stable name universe too:
  // registered on every run, zero-sample on fault-free ones.
  recovery_hists_.mttr_us = &registry_->histogram("recovery.mttr.us");
  recovery_hists_.replay_us = &registry_->histogram("recovery.replay_time.us");
  recovery_hists_.resync_us = &registry_->histogram("recovery.resync_time.us");
  recovery_hists_.rewarm_us = &registry_->histogram("recovery.rewarm_time.us");
  // Erasure-coding histograms: same stable-universe rule (zero-sample
  // whenever ec_n == 0).
  recovery_hists_.ec_repair_us = &registry_->histogram("ec.repair_time.us");
  obs::Histogram* hist_ec_reconstruct =
      &registry_->histogram("ec.reconstruct_time.us");
  // RAM-tier histograms are registered only when the tier is on: the
  // counter universe must stay bit-identical for every ram-off config
  // (goldens + CounterUniverseIsStableAcrossConfigs pin that).
  hist_ram_hit_bytes_ = nullptr;
  hist_ram_miss_bytes_ = nullptr;
  if (config_.ram_cache_bytes > 0) {
    hist_ram_hit_bytes_ = &registry_->histogram("ramcache.hit_size.bytes");
    hist_ram_miss_bytes_ = &registry_->histogram("ramcache.miss_size.bytes");
  }
  ev_client_request_ = tracer_->intern("client.request");
  net_ = std::make_unique<net::NetworkFabric>(*sim_);
  net_->set_observer(tracer_.get());

  const auto server_ep = net_->add_endpoint(
      "server", net::mbps_to_bytes_per_sec(config_.server_nic_mbps) *
          config_.nic_efficiency);
  server_ = std::make_unique<StorageServer>(*sim_, *net_, server_ep,
                                            config_.placement, config_.seed);

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
    params.cache_policy = config_.enable_prefetch
                              ? config_.cache_policy
                              : (config_.cache_policy == CachePolicy::kPrefetch
                                     ? CachePolicy::kNone
                                     : config_.cache_policy);
    params.write_buffering = config_.write_buffering;
    params.prebud_gate = config_.prebud_gate;
    params.disk_placement = config_.disk_placement;
    params.stripe_width = config_.stripe_width;
    params.max_io_retries = config_.max_disk_io_retries;
    params.io_retry_backoff = milliseconds_to_ticks(config_.disk_io_backoff_ms);
    params.io_deadline = seconds_to_ticks(config_.disk_io_deadline_sec);
    params.journal.mode = config_.journal_mode;
    params.ram_cache_bytes = config_.ram_cache_bytes;
    params.ram_cache_policy = config_.ram_cache_policy;
    nodes_.push_back(
        std::make_unique<StorageNode>(*sim_, *net_, ep, params));
    nodes_.back()->set_observer(tracer_.get(), hist_queue_wait_);
    nodes_.back()->set_ram_observer(hist_ram_hit_bytes_,
                                    hist_ram_miss_bytes_);
    raw.push_back(nodes_.back().get());
  }

  clients_.clear();
  for (std::uint32_t c = 0; c < config_.num_clients; ++c) {
    const auto ep = net_->add_endpoint(
        format("client%u", c),
        net::mbps_to_bytes_per_sec(config_.client_nic_mbps) *
            config_.nic_efficiency);
    clients_.emplace_back(ep, c);
  }

  // Steps 1-4.
  server_->set_observer(tracer_.get());
  server_->register_nodes(std::move(raw));
  server_->set_replication_degree(config_.replication_degree);
  if (config_.ec_n > 0) {
    StorageServer::ErasureParams ec;
    ec.n = config_.ec_n;
    ec.k = config_.ec_k;
    ec.hedge_delay = milliseconds_to_ticks(config_.ec_hedge_ms);
    ec.decode_bytes_per_sec =
        config_.ec_decode_mbps * static_cast<double>(kMB);
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
    server_->set_ec_reconstruct_hist(hist_ec_reconstruct);
  }
}

void Cluster::build(const workload::Workload& workload) {
  build_infra();
  if (config_.online_popularity) {
    // Blind mode: the server knows the files (sizes) but nothing about
    // the access pattern — popularity is learned from the request log.
    workload::Workload blind;
    blind.name = workload.name + "/blind";
    blind.file_sizes = workload.file_sizes;
    server_->ingest_history(blind);
    server_->place_and_create(blind);
    server_->distribute_patterns(blind);
  } else {
    server_->ingest_history(workload);
    server_->place_and_create(workload);
    server_->distribute_patterns(workload);
  }
  arm_faults();
}

void Cluster::build_stream(const workload::StreamingWorkload& workload) {
  if (config_.online_popularity) {
    throw std::invalid_argument(
        "Cluster: run_stream uses offline popularity (the request log is "
        "disabled at streaming scale)");
  }
  build_infra();

  // Pass 1: fold the request sequence into exact per-file aggregates —
  // the same numbers the PopularityAnalyzer would extract from a
  // materialized trace, at O(num_files) memory.
  const std::size_t nf = workload.num_files();
  std::vector<std::size_t> counts(nf, 0);
  std::vector<trace::FilePopularity> pop(nf);
  std::vector<Tick> prev(nf, 0);
  std::vector<Tick> gap_sum(nf, 0);
  std::size_t total = 0;
  Tick horizon = 0;
  auto pass = workload.open();
  trace::TraceRecord r;
  while (pass->next(&r)) {
    trace::FilePopularity& p = pop.at(r.file);
    if (p.accesses == 0) {
      p.file = r.file;
      p.first_access = r.arrival;
    } else {
      gap_sum[r.file] += r.arrival - prev[r.file];
    }
    ++p.accesses;
    p.bytes += r.bytes;
    p.last_access = r.arrival;
    prev[r.file] = r.arrival;
    ++counts[r.file];
    ++total;
    horizon = r.arrival;  // arrivals are non-decreasing
  }
  for (std::size_t f = 0; f < nf; ++f) {
    if (pop[f].accesses > 1) {
      pop[f].mean_gap = gap_sum[f] / static_cast<Tick>(pop[f].accesses - 1);
    }
  }
  server_->ingest_popularity(std::move(pop), total);
  server_->place_and_create(workload.file_sizes);
  server_->distribute_pattern_summaries(counts, horizon);
  server_->set_request_log_enabled(false);
  arm_faults();
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
    recovery_ = std::make_unique<RecoveryManager>(*sim_, *server_,
                                                  std::move(node_ptrs));
    recovery_->set_observer(tracer_.get(), recovery_hists_);
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
      // node back and then runs journal replay -> replica resync ->
      // prefetch re-warm, timing each phase.
      if (node < nodes_.size()) recovery_->on_restart(node);
    };
    injector_->set_observer(tracer_.get());
    injector_->arm(net_.get(), std::move(targets));
  }
}

RunMetrics Cluster::run(const workload::Workload& workload) {
  if (finished_) {
    throw std::logic_error("Cluster: run() may only be called once");
  }
  if (workload.requests.empty()) {
    throw std::invalid_argument("Cluster: empty workload");
  }
  build(workload);
  return run_phase([this, &workload](Tick replay_start) {
    start_replay(workload, replay_start);
  });
}

RunMetrics Cluster::run_stream(const workload::StreamingWorkload& workload) {
  if (finished_) {
    throw std::logic_error("Cluster: run() may only be called once");
  }
  if (workload.num_requests == 0 || !workload.open) {
    throw std::invalid_argument("Cluster: empty streaming workload");
  }
  build_stream(workload);
  stream_mode_ = true;
  stream_ = workload.open();
  responses_outstanding_ = workload.num_requests;
  return run_phase(
      [this](Tick replay_start) { start_stream_replay(replay_start); });
}

RunMetrics Cluster::run_phase(const std::function<void(Tick)>& start) {
  // Step 3b: prefetch, then replay once every node is done (barrier).
  // In online mode nothing is known yet, so the initial prefetch is
  // empty and the periodic refresh does the work.
  const bool prefetching = config_.enable_prefetch &&
                           config_.cache_policy == CachePolicy::kPrefetch &&
                           !config_.online_popularity;
  auto candidates =
      prefetching
          ? server_->prefetch_candidates(config_.prefetch_file_count)
          : std::vector<std::vector<trace::FileId>>(nodes_.size());
  // The recovery pipeline re-warms the same slices after a crash wipes a
  // node's buffer index (empty slices in NPF/online mode: no-op phase).
  if (recovery_) recovery_->set_rewarm_candidates(candidates);

  auto barrier = std::make_shared<std::size_t>(nodes_.size());
  (void)sim_->schedule_at(0, [this, &start, candidates, barrier] {
    for (std::size_t n = 0; n < nodes_.size(); ++n) {
      nodes_[n]->start_prefetch(candidates[n], [this, &start, barrier] {
        if (--*barrier == 0) {
          const Tick replay_start = sim_->now();
          metrics_.prefetch_duration = replay_start;
          for (auto& node : nodes_) node->begin_replay(replay_start);
          if (config_.online_popularity && config_.enable_prefetch) {
            server_->begin_online_refresh(
                config_.prefetch_file_count,
                seconds_to_ticks(config_.refresh_interval_sec));
          }
          if (injector_ && config_.heartbeat_interval_sec > 0) {
            server_->begin_health_monitor(
                seconds_to_ticks(config_.heartbeat_interval_sec),
                config_.heartbeat_miss_threshold);
          }
          start(replay_start);
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

void Cluster::start_replay(const workload::Workload& workload,
                           Tick replay_start) {
  responses_outstanding_ = workload.requests.size();
  all_issued_ = true;  // per-client chains below cover every record

  // Closed loop per client, like the paper's replayer: a client issues
  // its next record at its trace arrival time, but never before its
  // previous request completed.  This bounds queues at zero inter-arrival
  // delay and stretches the run when service times exceed the spacing
  // (the paper's 50 MB "test ran longer than the original trace time").
  replay_queues_.assign(clients_.size(), {});
  for (const trace::TraceRecord& r : workload.requests.records()) {
    replay_queues_[r.client % clients_.size()].push_back(r);
  }
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    if (!replay_queues_[c].empty()) {
      (void)sim_->schedule_at(replay_start + replay_queues_[c].front().arrival,
                        [this, c, replay_start] { issue_next(c, replay_start); });
    }
  }
  if (responses_outstanding_ == 0) finish_run();
}

void Cluster::start_stream_replay(Tick replay_start) {
  all_issued_ = true;  // the pump + per-client chains cover every record
  replay_queues_.assign(clients_.size(), {});
  // Every client starts idle; the pump wakes each one as its first
  // record enters the look-ahead window.
  client_waiting_.assign(clients_.size(), true);
  if (responses_outstanding_ == 0) {
    finish_run();
    return;
  }
  pump_stream(replay_start);
}

void Cluster::pump_stream(Tick replay_start) {
  // Records due within this much trace time are pulled eagerly; later
  // ones wait in the stream.  The window (plus genuine client backlog)
  // is all that is ever resident — the high-water mark is
  // stream_peak_resident_records().
  const Tick lookahead = seconds_to_ticks(1.0);
  for (;;) {
    if (!stream_has_pending_) {
      if (!stream_ || !stream_->next(&stream_pending_)) {
        stream_.reset();  // dry: remaining work is all in client queues
        return;
      }
      stream_has_pending_ = true;
    }
    const Tick due = replay_start + stream_pending_.arrival;
    if (due > sim_->now() + lookahead) {
      pump_timer_ = sim_->schedule_at(
          due - lookahead,
          [this, replay_start] { pump_stream(replay_start); });
      return;
    }
    const std::size_t c = stream_pending_.client % clients_.size();
    replay_queues_[c].push_back(stream_pending_);
    stream_has_pending_ = false;
    ++stream_resident_;
    if (stream_resident_ > stream_peak_resident_) {
      stream_peak_resident_ = stream_resident_;
    }
    if (client_waiting_[c]) {
      client_waiting_[c] = false;
      (void)sim_->schedule_at(std::max(due, sim_->now()),
                        [this, c, replay_start] {
                          issue_next(c, replay_start);
                        });
    }
  }
}

void Cluster::issue_next(std::size_t client_idx, Tick replay_start) {
  auto& queue = replay_queues_[client_idx];
  const trace::TraceRecord r = queue.front();
  queue.pop_front();
  if (stream_mode_) --stream_resident_;
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
          ev_client_request_,
          tracer_->intern(format("client%zu", client_idx)),
          tracer_->intern(to_string(st)), static_cast<std::int64_t>(r.file),
          static_cast<std::int64_t>(attempt));
    }
    if (request_ok(st)) {
      hist_req_latency_->record(static_cast<std::uint64_t>(t - issued));
      clients_[client_idx].record_response(issued, t);
      if (attempt > 0) ++recovered_by_retry_;
      complete_request(client_idx, replay_start);
      return;
    }
    if (st == RequestStatus::kTimedOut) ++timed_out_requests_;
    if (attempt < config_.max_request_retries) {
      ++client_retries_;
      start_attempt(client_idx, r, replay_start, attempt + 1);
      return;
    }
    ++failed_requests_;
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
  auto& pending = replay_queues_[client_idx];
  if (!pending.empty()) {
    const Tick due = replay_start + pending.front().arrival;
    (void)sim_->schedule_at(std::max(due, sim_->now()),
                      [this, client_idx, replay_start] {
                        issue_next(client_idx, replay_start);
                      });
  } else if (stream_mode_) {
    // Queue drained: the pump re-wakes this client when its next record
    // enters the look-ahead window.
    client_waiting_[client_idx] = true;
  }
  if (--responses_outstanding_ == 0) finish_run();
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
  metrics_.requests = server_->requests_routed();
  for (const Client& c : clients_) {
    metrics_.response_time_sec.merge(c.response_stats());
  }
  // Percentile reservoirs are per client and lossy, so they cannot be
  // merged exactly; we report the request-count-weighted mean of the
  // per-client percentiles, which is exact when clients draw from the
  // same workload mix (they do: records are dealt round-robin).
  double p95 = 0.0, p99 = 0.0;
  std::size_t total = 0;
  for (const Client& c : clients_) {
    const auto n = c.percentiles().count();
    p95 += c.percentiles().percentile(0.95) * static_cast<double>(n);
    p99 += c.percentiles().percentile(0.99) * static_cast<double>(n);
    total += n;
  }
  if (total > 0) {
    metrics_.response_p95_sec = p95 / static_cast<double>(total);
    metrics_.response_p99_sec = p99 / static_cast<double>(total);
  }

  AvailabilityMetrics& av = metrics_.availability;
  for (auto& node : nodes_) {
    node->shutdown();
    NodeMetrics nm = node->collect_metrics();
    metrics_.disk_joules += nm.disk_joules;
    metrics_.base_joules += nm.base_joules;
    metrics_.spin_ups += nm.spin_ups;
    metrics_.spin_downs += nm.spin_downs;
    metrics_.buffer_hits += nm.buffer_hits;
    metrics_.data_disk_reads += nm.data_disk_reads;
    metrics_.bytes_served += nm.bytes_served;
    metrics_.bytes_prefetched += nm.bytes_prefetched;
    metrics_.wakeups_on_demand += node->wakeups_on_demand();
    av.disk_io_retries += nm.disk_io_retries;
    av.buffer_fallback_reads += nm.buffer_fallback_reads;
    av.buffered_rescues += nm.buffered_rescues;
    av.writes_stranded += nm.writes_stranded;
    av.lost_acked_writes += nm.lost_acked_writes;
    av.fault_energy_delta += nm.fault_energy_delta;
    metrics_.ram.hits += nm.ram_hits;
    metrics_.ram.misses += nm.ram_misses;
    metrics_.ram.evictions += nm.ram_evictions;
    metrics_.ram.writebacks += nm.ram_writebacks;
    metrics_.ram.writes_absorbed += nm.ram_writes_absorbed;
    metrics_.ram.lost_writes += nm.ram_lost_writes;
    metrics_.ram.pinned_bytes += nm.ram_pinned_bytes;
    metrics_.per_node.push_back(std::move(nm));
  }
  metrics_.ram.enabled = config_.ram_cache_bytes > 0;
  metrics_.power_transitions = metrics_.spin_ups + metrics_.spin_downs;
  metrics_.total_joules = metrics_.disk_joules + metrics_.base_joules;

  if (injector_) av.faults_injected = injector_->faults_injected();
  av.failed_requests = failed_requests_;
  av.timed_out_requests = timed_out_requests_;
  av.client_retries = client_retries_;
  av.rerouted_requests = server_->requests_rerouted();
  // "Needed more than one attempt but recovered": client-level re-issues
  // that eventually succeeded, plus server-side replica failovers (which
  // recover within a single client attempt).
  av.retried_requests = recovered_by_retry_ + av.rerouted_requests;
  av.degraded_ticks = server_->degraded_ticks();
  av.recovery_episodes = server_->recovery_episodes();
  av.mttr_sec = server_->mttr_sec();
  if (recovery_) metrics_.recovery = recovery_->metrics();
  metrics_.erasure = server_->erasure_metrics();
  snapshot_counters();
  EEVFS_INFO() << "run finished: " << metrics_.summary();
}

void Cluster::snapshot_counters() {
  // Every name below is registered on every run — zero-valued counters
  // included — so the run-report schema has one stable name universe.
  // Wall-clock quantities (Simulator::wall_seconds) are deliberately kept
  // out: the registry snapshot lands in RunMetrics, which must be
  // reproducible.  docs/observability.md documents each name; the
  // run_report_smoke target cross-checks that list against this one.
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
  obs::Counter& demand_wakes = reg.counter("power.wakeups_on_demand.count");
  obs::Counter& pf_rejected = reg.counter("prefetch.rejected_by_gate.count");
  obs::Counter& evictions = reg.counter("prefetch.evictions.count");
  obs::Counter& destages = reg.counter("buffer.destages.count");
  obs::Gauge& backlog_peak = reg.gauge("buffer.destage_backlog_peak.bytes");
  std::uint64_t writes_buffered = 0, writes_direct = 0;
  for (const auto& node : nodes_) {
    sleeps.add(node->power_manager().sleeps_initiated());
    wake_marks.add(node->power_manager().wake_marks());
    demand_wakes.add(node->wakeups_on_demand());
    pf_rejected.add(node->prefetch_plan().rejected_by_gate.size());
    evictions.add(node->evictions());
    destages.add(node->destages());
    // Peak backlog is a per-node high-water mark; the cluster-level
    // figure is the worst node, not a (meaningless) sum of peaks.
    backlog_peak.set_max(static_cast<double>(node->destage_backlog_peak()));
  }
  for (const NodeMetrics& nm : metrics_.per_node) {
    writes_buffered += nm.writes_buffered;
    writes_direct += nm.writes_direct;
  }
  reg.counter("prefetch.buffer_hits.count").add(metrics_.buffer_hits);
  reg.counter("prefetch.data_disk_reads.count").add(metrics_.data_disk_reads);
  reg.counter("prefetch.bytes_prefetched.bytes").add(metrics_.bytes_prefetched);
  reg.counter("buffer.writes_buffered.count").add(writes_buffered);
  reg.counter("buffer.writes_direct.count").add(writes_direct);
  reg.counter("buffer.writes_stranded.count")
      .add(metrics_.availability.writes_stranded);

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
  reg.counter("fault.lost_acked_writes.count")
      .add(metrics_.availability.lost_acked_writes);

  // RAM-tier names join the universe only when the tier is configured, so
  // ram-off runs keep the exact pre-RAM snapshot (and golden digests).
  if (config_.ram_cache_bytes > 0) {
    const RamCacheMetrics& ram = metrics_.ram;
    reg.counter("ramcache.hits.count").add(ram.hits);
    reg.counter("ramcache.misses.count").add(ram.misses);
    reg.counter("ramcache.evictions.count").add(ram.evictions);
    reg.counter("ramcache.writebacks.count").add(ram.writebacks);
    reg.counter("ramcache.writes_absorbed.count").add(ram.writes_absorbed);
    reg.counter("ramcache.lost_writes.count").add(ram.lost_writes);
    reg.gauge("ramcache.hit_rate.ratio").set(ram.hit_rate());
    reg.gauge("ramcache.pinned.bytes")
        .set(static_cast<double>(ram.pinned_bytes));
  }

  const RecoveryMetrics& rec = metrics_.recovery;
  reg.counter("recovery.episodes.count").add(rec.episodes);
  reg.counter("recovery.replayed_writes.count").add(rec.replayed_writes);
  reg.counter("recovery.resynced_files.count").add(rec.resynced_files);
  reg.counter("recovery.rewarmed_files.count").add(rec.rewarmed_files);
  reg.counter("recovery.episodes_abandoned.count")
      .add(recovery_ ? recovery_->episodes_abandoned() : 0);

  const ErasureMetrics& ec = metrics_.erasure;
  reg.counter("ec.reads.count").add(ec.reads);
  reg.counter("ec.degraded_reads.count").add(ec.degraded_reads);
  reg.counter("ec.reconstructions.count").add(ec.reconstructions);
  reg.counter("ec.chunk_requests.count").add(ec.chunk_requests);
  reg.counter("ec.straggler_chunks.count").add(ec.straggler_chunks);
  reg.counter("ec.hedges_launched.count").add(ec.hedges_launched);
  reg.counter("ec.hedges_cancelled.count").add(ec.hedges_cancelled);
  reg.counter("ec.repaired_chunks.count").add(ec.repaired_chunks);
  reg.gauge("ec.degraded_energy.joules").set(ec.degraded_energy_estimate);

  std::uint64_t j_appends = 0, j_checkpoints = 0, j_truncated = 0;
  Bytes j_scan_bytes = 0;
  for (const auto& node : nodes_) {
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

  reg.counter("server.requests_routed.count").add(server_->requests_routed());
  reg.counter("server.requests_rerouted.count")
      .add(server_->requests_rerouted());
  reg.counter("server.requests_failed.count").add(server_->requests_failed());
  reg.counter("server.failovers.count").add(server_->failovers());
  reg.counter("server.refreshes.count").add(server_->refreshes_performed());
  reg.counter("server.heartbeat_recoveries.count")
      .add(server_->recovery_episodes());

  const AvailabilityMetrics& av = metrics_.availability;
  reg.counter("node.disk_io_retries.count").add(av.disk_io_retries);
  reg.counter("node.buffer_fallback_reads.count")
      .add(av.buffer_fallback_reads);
  reg.counter("node.buffered_rescues.count").add(av.buffered_rescues);
  std::uint64_t failed_serves = 0;
  for (const auto& node : nodes_) failed_serves += node->failed_serves();
  reg.counter("node.failed_serves.count").add(failed_serves);

  reg.counter("client.requests.count").add(metrics_.requests);
  reg.counter("client.retries.count").add(client_retries_);
  reg.counter("client.timeouts.count").add(timed_out_requests_);
  reg.counter("client.failed_requests.count").add(failed_requests_);

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
    pf.enable_prefetch = true;
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
    npf.enable_prefetch = false;
    npf.power_policy = PowerPolicy::kNone;
    Cluster cluster(npf);
    out.npf = cluster.run(workload);
  }
  return out;
}

}  // namespace eevfs::core
