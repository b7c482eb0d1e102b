#include "core/storage_node.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/string_util.hpp"

namespace eevfs::core {
namespace {

/// Modeled RAM copy bandwidth: the service time of a RAM hit and of
/// staging a write in memory.
constexpr double kRamBytesPerSec = 2000.0 * static_cast<double>(kMB);
/// Share of the RAM capacity tier-aware prefetch pins with the hot set;
/// the rest serves admission-cached reads and write-back staging.
constexpr double kRamPinFraction = 0.5;
/// Cadence for flushing staged write-backs toward the buffer disk;
/// pressure flushes fire regardless once staged bytes pass half the RAM.
constexpr Tick kRamFlushInterval = seconds_to_ticks(1.0);

}  // namespace

StorageNode::StorageNode(sim::Simulator& sim, net::NetworkFabric& net,
                         net::EndpointId self, NodeParams params,
                         obs::Registry& registry)
    : sim_(sim),
      net_(net),
      self_(self),
      params_(std::move(params)),
      buffer_disk_(sim_, params_.disk_profile,
                   format("node%zu/buffer0", params_.id)),
      buffer_(params_.disk_profile.capacity),
      journal_(sim_, params_.journal, buffer_disk_),
      metrics_{registry} {
  if (params_.data_disks == 0) {
    throw std::invalid_argument("StorageNode: need at least one data disk");
  }
  if (params_.data_disks > NodeMetadata::kMaxDisks) {
    throw std::invalid_argument(
        "StorageNode: more disks than the file table can index");
  }
  stripe_width_ = std::min(std::max<std::size_t>(params_.stripe_width, 1),
                           params_.data_disks);
  for (std::size_t i = 0; i < params_.data_disks; ++i) {
    data_disks_.push_back(std::make_unique<disk::DiskModel>(
        sim_, params_.disk_profile,
        format("node%zu/data%zu", params_.id, i)));
    data_disks_.back()->set_observer(nullptr, &metrics_.disk_queue_wait);
  }
  buffer_disk_.set_observer(nullptr, &metrics_.disk_queue_wait);

  if (params_.ram_cache_bytes > 0) {
    ram_ = std::make_unique<CacheIndex>(params_.ram_cache_bytes,
                                        params_.ram_cache_policy);
    ram_metrics_.emplace(registry);
  }

  std::vector<disk::DiskModel*> managed;
  managed.reserve(data_disks_.size());
  for (auto& d : data_disks_) managed.push_back(d.get());
  power_ = std::make_unique<PowerManager>(sim_, params_.power, managed);

  pending_writes_.resize(data_disks_.size());
  flush_in_progress_.assign(data_disks_.size(), false);

  // A data disk entering kFailed strands the destages queued for it —
  // dropping them (counted) keeps the teardown drain from wedging on a
  // disk that will never accept the writes.
  for (std::size_t i = 0; i < data_disks_.size(); ++i) {
    data_disks_[i]->set_state_callback(
        [this, i](disk::PowerState, disk::PowerState next) {
          if (next == disk::PowerState::kFailed) on_data_disk_failed(i);
        });
  }
}

void StorageNode::set_observer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_) {
    track_ = tracer_->intern(format("node%zu", params_.id));
    ev_read_ = tracer_->intern("node.read");
    ev_write_ = tracer_->intern("node.write");
    ev_prefetch_copy_ = tracer_->intern("node.prefetch_copy");
    ev_destage_ = tracer_->intern("node.destage");
  }
  obs::Histogram* queue_wait = &metrics_.disk_queue_wait;
  for (auto& d : data_disks_) d->set_observer(tracer, queue_wait);
  buffer_disk_.set_observer(tracer, queue_wait);
  power_->set_observer(tracer);
}

void StorageNode::shutdown() {
  power_->stop();
  ram_flush_timer_.cancel();
  metrics_.fault_energy_delta.add(fault_energy_delta_);
  if (ram_) {
    ram_metrics_->pinned.add(static_cast<double>(ram_->pinned_bytes()));
  }
}

void StorageNode::create_file(trace::FileId f, Bytes size) {
  std::size_t primary = 0;
  if (params_.disk_placement == DiskPlacement::kConcentrate) {
    if (expected_files_ == 0) {
      throw std::logic_error(
          "StorageNode: kConcentrate requires expect_files() first");
    }
    // PDC-style: the popularity-ordered creation stream is cut into n
    // contiguous bands; the hottest band lands on disk 0 so the later
    // disks can sleep.
    primary = std::min(files_created_ * data_disks_.size() / expected_files_,
                       data_disks_.size() - 1);
  } else {
    primary = files_created_ % data_disks_.size();
  }
  meta_.insert(f, {.first_disk = static_cast<std::uint16_t>(primary),
                   .size = size});
  ++files_created_;
}

void StorageNode::receive_access_pattern(std::vector<FileHints> hints,
                                         Tick horizon) {
  if (std::adjacent_find(hints.begin(), hints.end(),
                         [](const FileHints& a, const FileHints& b) {
                           return a.file >= b.file;
                         }) != hints.end()) {
    throw std::invalid_argument(
        "StorageNode: access pattern not ascending by file");
  }
  hints_ = std::move(hints);
  horizon_ = horizon;
}

void StorageNode::start_prefetch(const std::vector<trace::FileId>& candidates,
                                 std::function<void()> done) {
  plan_prefetch(candidates);
  warm_prefetch(std::move(done));
}

void StorageNode::plan_prefetch(const std::vector<trace::FileId>& candidates) {
  // Planning is the views' one reader; they go when it returns.
  const std::vector<FileHints> hints = std::move(hints_);
  // Each data disk's access timeline, built once at its final size: a
  // striped file's accesses reach every disk in its stripe set.
  const std::size_t num_disks = data_disks_.size();
  std::vector<std::size_t> timeline_size(num_disks, 0);
  for (const FileHints& h : hints) {
    const LocalFileMeta* file_meta = meta_.find(h.file);
    if (file_meta == nullptr) continue;
    for (std::size_t j = 0; j < stripe_width_; ++j) {
      timeline_size[file_meta->disk(j, num_disks)] += h.offsets.size();
    }
  }
  std::vector<std::vector<Tick>> disk_accesses(num_disks);
  for (std::size_t d = 0; d < num_disks; ++d) {
    disk_accesses[d].reserve(timeline_size[d]);
  }
  for (const FileHints& h : hints) {
    const LocalFileMeta* file_meta = meta_.find(h.file);
    if (file_meta == nullptr) continue;
    for (std::size_t j = 0; j < stripe_width_; ++j) {
      auto& timeline = disk_accesses[file_meta->disk(j, num_disks)];
      timeline.insert(timeline.end(), h.offsets.begin(), h.offsets.end());
    }
  }
  for (auto& t : disk_accesses) std::sort(t.begin(), t.end());

  std::vector<PrefetchCandidate> cands;
  cands.reserve(candidates.size());
  for (std::size_t rank = 0; rank < candidates.size(); ++rank) {
    const trace::FileId f = candidates[rank];
    const LocalFileMeta* file_meta = meta_.find(f);
    if (file_meta == nullptr) {
      throw std::invalid_argument("StorageNode: prefetch candidate " +
                                  std::to_string(f) + " not on this node");
    }
    cands.push_back(PrefetchCandidate{f, file_meta->size,
                                      stripe_set(*file_meta), rank});
  }

  const bool can_prefetch = params_.cache_policy == CachePolicy::kPrefetch;
  const Bytes capacity = can_prefetch ? buffer_.capacity() - buffer_.used() : 0;
  // Tier-aware split: a slice of the RAM capacity is pinned with the
  // hottest candidates before the buffer tier is planned.
  const bool ram_prefetch = ram_ && can_prefetch;
  const Bytes ram_budget =
      ram_prefetch ? static_cast<Bytes>(
                         static_cast<double>(ram_->capacity()) *
                         kRamPinFraction)
                   : 0;
  const Prefetcher prefetcher(
      EnergyPredictionModel(params_.disk_profile, params_.power.idle_threshold,
                            params_.power.sleep_margin),
      params_.disk_profile, params_.prebud_gate);
  plan_ = prefetcher.plan(can_prefetch
                              ? std::span<const PrefetchCandidate>(cands)
                              : std::span<const PrefetchCandidate>(),
                          hints, std::move(disk_accesses), horizon_,
                          capacity, ram_budget);
  plan_ready_ = true;
  metrics_.rejected_by_gate.add(plan_.rejected_by_gate.size());
  hint_counts_.clear();
  hint_counts_.reserve(hints.size());
  for (const FileHints& h : hints) {
    hint_counts_.emplace_back(h.file, h.offsets.size());
  }

  // Static expectation per disk for the predictive power policy: the mean
  // gap between residual accesses over the horizon.
  for (std::size_t d = 0; d < data_disks_.size(); ++d) {
    const auto& residual = plan_.residual_disk_accesses[d];
    if (horizon_ <= 0) {
      power_->set_expected_gap(d, std::nullopt);
    } else if (residual.empty()) {
      power_->set_expected_gap(d, PowerManager::kNever);
    } else {
      power_->set_expected_gap(
          d, horizon_ / static_cast<Tick>(residual.size()));
    }
  }
  if (!power_reads_residuals()) plan_.residual_disk_accesses.clear();
}

void StorageNode::warm_prefetch(std::function<void()> done) {
  std::vector<trace::FileId> hot;
  std::vector<trace::FileId> warm;
  for (const PrefetchCandidate& c : plan_.ram_pinned) hot.push_back(c.file);
  for (const PrefetchCandidate& c : plan_.accepted) warm.push_back(c.file);
  warm_tiers(hot, warm, [done = std::move(done)](std::size_t) { done(); });
}

void StorageNode::warm_tiers(const std::vector<trace::FileId>& hot,
                             const std::vector<trace::FileId>& warm,
                             std::function<void(std::size_t)> done) {
  if (hot.empty() && warm.empty()) {
    (void)sim_.schedule_after(0, [done = std::move(done)] { done(0); });
    return;
  }
  // Every pin and copy reports, even across a crash (the barrier is
  // control flow); only what landed under the current epoch counts.
  const std::uint64_t ep = epoch_;
  auto outstanding = std::make_shared<std::size_t>(hot.size() + warm.size());
  auto landed = std::make_shared<std::size_t>(0);
  auto shared_done =
      std::make_shared<std::function<void(std::size_t)>>(std::move(done));
  auto arrive = [outstanding, landed, shared_done](bool ok) {
    if (ok) ++*landed;
    if (--*outstanding == 0) (*shared_done)(*landed);
  };
  for (const trace::FileId f : hot) {
    pin_into_ram(f, [this, f, ep, arrive] {
      arrive(ep == epoch_ && ram_->contains(f));
    });
  }
  for (const trace::FileId f : warm) {
    copy_into_buffer(f, [this, f, ep, arrive] {
      arrive(ep == epoch_ && buffer_.landed(f));
    });
  }
}

void StorageNode::submit_with_retry(
    disk::DiskModel* target, Bytes bytes, bool sequential, bool is_write,
    Tick issued, std::size_t attempt,
    std::function<void(Tick, disk::IoStatus)> done,
    std::size_t power_managed_disk) {
  const std::uint64_t ep = epoch_;
  disk::DiskRequest req;
  req.bytes = bytes;
  req.sequential = sequential;
  req.is_write = is_write;
  req.on_complete = [this, target, bytes, sequential, is_write, issued,
                     attempt, ep, done = std::move(done)](
                        Tick t, disk::IoStatus st) mutable {
    // A crashed process issues no retries; the final status falls
    // through to `done`, whose own epoch guard drops the state effects.
    if (ep == epoch_ && st == disk::IoStatus::kMediaError &&
        attempt < kMaxIoRetries) {
      // Exponential backoff, bounded by the per-I/O deadline.
      const Tick backoff = kIoRetryBackoff
                           << std::min<std::size_t>(attempt, 16);
      if (t - issued + backoff <= kIoDeadline) {
        metrics_.disk_io_retries.add();
        (void)sim_.schedule_after(
            backoff, [this, target, bytes, sequential, is_write, issued,
                      attempt, done = std::move(done)]() mutable {
              // Retries bypass the power manager: the drive is already
              // spinning from the failed attempt.
              submit_with_retry(target, bytes, sequential, is_write, issued,
                                attempt + 1, std::move(done),
                                kNotPowerManaged);
            });
        return;
      }
    }
    done(t, st);
  };
  if (power_managed_disk != kNotPowerManaged) {
    submit_to_data_disk(power_managed_disk, std::move(req));
  } else {
    target->submit(std::move(req));
  }
}

void StorageNode::stripe_io(const LocalFileMeta& file, Bytes bytes,
                            bool is_write, bool notify_power_manager,
                            std::function<void(Tick, disk::IoStatus)> done) {
  const Bytes per_disk = (bytes + stripe_width_ - 1) / stripe_width_;
  auto outstanding = std::make_shared<std::size_t>(stripe_width_);
  auto worst = std::make_shared<disk::IoStatus>(disk::IoStatus::kOk);
  auto shared_done =
      std::make_shared<std::function<void(Tick, disk::IoStatus)>>(
          std::move(done));
  for (std::size_t j = 0; j < stripe_width_; ++j) {
    const std::size_t d = file.disk(j, data_disks_.size());
    submit_with_retry(
        data_disks_[d].get(), per_disk, /*sequential=*/false, is_write,
        sim_.now(), 0,
        [outstanding, worst, shared_done](Tick t, disk::IoStatus st) {
          if (static_cast<int>(st) > static_cast<int>(*worst)) *worst = st;
          if (--*outstanding == 0 && *shared_done) (*shared_done)(t, *worst);
        },
        notify_power_manager ? d : kNotPowerManaged);
  }
}

void StorageNode::copy_into_buffer(trace::FileId f,
                                   std::function<void()> done) {
  const LocalFileMeta& lf = meta_.at(f);
  const Bytes bytes = lf.size;
  if (tracer_ && tracer_->wants(obs::kCatPrefetch)) {
    const Tick start = sim_.now();
    done = [this, f, bytes, start, inner = std::move(done)] {
      tracer_->complete(start, sim_.now() - start, obs::kCatPrefetch,
                        obs::TraceLevel::kInfo, ev_prefetch_copy_, track_, 0,
                        static_cast<std::int64_t>(f),
                        static_cast<std::int64_t>(bytes));
      inner();
    };
  }
  // Nothing to copy from once a source disk is gone; the space check
  // holds by the plan's capacity.  Every caller skips files with an entry.
  if (!stripe_set_alive(lf) ||
      !buffer_.admit(f, bytes, /*allow_evict=*/false).inserted) {
    (void)sim_.schedule_after(0, std::move(done));
    return;
  }
  // `done` is control flow (prefetch barriers wait on it) and must fire
  // even if the node crashes mid-copy; the state effects are what the
  // epoch guard drops.
  const std::uint64_t ep = epoch_;
  stripe_io(lf, bytes, /*is_write=*/false, /*notify_power_manager=*/false,
            [this, f, bytes, ep, done = std::move(done)](
                Tick, disk::IoStatus read_st) mutable {
              if (ep != epoch_) {
                done();
                return;
              }
              if (read_st != disk::IoStatus::kOk) {
                // A faulted copy just leaves the file unbuffered.
                buffer_.erase(f);
                done();
                return;
              }
              write_buffer_copy(
                  f, [this, bytes, done = std::move(done)](bool landed) {
                    if (landed) metrics_.bytes_prefetched.add(bytes);
                    done();
                  });
            });
}

template <typename Done>
void StorageNode::write_buffer_copy(trace::FileId f, Done done) {
  if (buffer_disk_.failed()) {
    buffer_.erase(f);  // no live buffer disk to hold the copy
    done(false);
    return;
  }
  const std::uint64_t ep = epoch_;
  disk::DiskRequest write;
  write.bytes = meta_.at(f).size;
  write.sequential = true;  // the buffer disk is log-structured
  write.is_write = true;
  write.on_complete = [this, f, ep, done = std::move(done)](
                          Tick, disk::IoStatus st) {
    if (ep != epoch_) {
      done(false);
      return;
    }
    if (st != disk::IoStatus::kOk) {
      buffer_.erase(f);
      done(false);
      return;
    }
    buffer_.mark_landed(f);
    done(true);
  };
  buffer_disk_.submit(std::move(write));
}

void StorageNode::pin_into_ram(trace::FileId f, std::function<void()> done) {
  assert(ram_);
  const LocalFileMeta& lf = meta_.at(f);
  const Bytes bytes = lf.size;
  if (!stripe_set_alive(lf) || !ram_->pin(f, bytes)) {
    (void)sim_.schedule_after(0, std::move(done));
    return;
  }
  // Like copy_into_buffer, `done` is barrier control flow and must fire
  // even across a crash; the pin itself is the state the epoch guards.
  const std::uint64_t ep = epoch_;
  stripe_io(lf, bytes, /*is_write=*/false, /*notify_power_manager=*/false,
            [this, f, ep, done = std::move(done)](Tick, disk::IoStatus st) {
              if (ep == epoch_ && st != disk::IoStatus::kOk) {
                ram_->erase(f);  // unreadable source: drop the pin
              }
              done();
            });
}

std::uint32_t StorageNode::ram_weight(trace::FileId f) const {
  const auto it = std::lower_bound(
      hint_counts_.begin(), hint_counts_.end(), f,
      [](const auto& entry, trace::FileId key) { return entry.first < key; });
  return it == hint_counts_.end() || it->first != f
             ? 0
             : static_cast<std::uint32_t>(
                   std::min<std::size_t>(it->second, UINT32_MAX));
}

void StorageNode::begin_replay(Tick replay_start) {
  if (!plan_ready_) {
    throw std::logic_error("StorageNode: begin_replay before plan_prefetch");
  }
  if (power_reads_residuals()) {
    for (std::size_t d = 0; d < data_disks_.size(); ++d) {
      std::vector<Tick>& absolute = plan_.residual_disk_accesses[d];
      for (Tick& t : absolute) t += replay_start;
      power_->set_future_accesses(d, std::move(absolute));
    }
  }
  plan_.residual_disk_accesses.clear();
  power_->start();
}

void StorageNode::update_prefetch(const std::vector<trace::FileId>& wanted) {
  if (params_.cache_policy != CachePolicy::kPrefetch) return;
  const std::set<trace::FileId> target(wanted.begin(), wanted.end());
  // Evict buffered files that fell out of the top set — dropping a cached
  // copy is metadata-only, no I/O.
  metrics_.evictions.add(buffer_.erase_landed_outside(target));
  // Copy in newly popular files (rank order), skipping ones already
  // buffered or already on their way: the buffer index holds both.
  for (const trace::FileId f : wanted) {
    if (meta_.find(f) == nullptr) {
      throw std::invalid_argument("StorageNode: update_prefetch candidate " +
                                  std::to_string(f) + " not on this node");
    }
    if (buffer_.contains(f)) continue;
    copy_into_buffer(f, [] {});
  }
}

void StorageNode::submit_to_data_disk(std::size_t disk,
                                      disk::DiskRequest request) {
  power_->note_arrival(disk);
  if (!disk::is_spun_up(data_disks_[disk]->state())) {
    metrics_.wakeups_on_demand.add();
  }
  data_disks_[disk]->submit(std::move(request));
}

bool StorageNode::stripe_set_alive(const LocalFileMeta& file) const {
  for (std::size_t j = 0; j < stripe_width_; ++j) {
    if (data_disks_[file.disk(j, data_disks_.size())]->failed()) return false;
  }
  return true;
}

std::vector<std::size_t> StorageNode::stripe_set(
    const LocalFileMeta& file) const {
  std::vector<std::size_t> disks(stripe_width_);
  for (std::size_t j = 0; j < stripe_width_; ++j) {
    disks[j] = file.disk(j, data_disks_.size());
  }
  return disks;
}

void StorageNode::on_data_disk_failed(std::size_t d) {
  auto dropped = std::move(pending_writes_[d]);
  pending_writes_[d].clear();
  for (const PendingWrite& w : dropped) retire_destage(w, /*landed=*/false);
  if (!dropped.empty()) notify_flush_waiters();
}

Joules StorageNode::degraded_read_energy_estimate(Bytes bytes) const {
  // Modeled, not measured: the active-power cost of a random stripe read
  // minus the sequential buffer-log read it replaced.  Spin-up energy is
  // not included (it is visible in the real meters instead).
  const disk::DiskProfile& p = params_.disk_profile;
  const Tick data_path = p.service_time(bytes, /*sequential=*/false);
  const Tick buffer_path = p.service_time(bytes, /*sequential=*/true);
  const Watts active = p.watts(disk::PowerState::kActive);
  return energy(active, data_path) - energy(active, buffer_path);
}

void StorageNode::crash() {
  if (!alive_) return;
  alive_ = false;
  ++epoch_;
  // Every open serve dies with the process: settle each with a typed
  // connection-reset on the next tick, in the order they opened.  The
  // disk I/O it was waiting on still completes at media level, but the
  // stale epoch drops its effects on node state; each serve is refused
  // under a fresh id, so a delivery still in flight for its old id finds
  // nothing to settle.
  auto open = std::move(open_serves_);
  open_serves_.clear();
  while (!open.empty()) {
    auto serve = open.extract(open.begin());
    serve.key() = next_serve_id_++;
    refuse(serve.key(), RequestStatus::kNodeUnavailable);
    open_serves_.insert(std::move(serve));
  }
  // Acked writes still parked on the buffer disk: without a journal the
  // RAM index was the only map of the parking lot — they are lost.
  if (!journal_.enabled()) {
    metrics_.lost_acked_writes.add(undestaged_acked_);
  }
  undestaged_acked_ = 0;
  for (auto& q : pending_writes_) q.clear();
  flush_in_progress_.assign(data_disks_.size(), false);
  destages_in_flight_ = 0;
  destage_backlog_ = 0;
  live_lsns_.clear();
  journal_.crash();
  // The buffer index is RAM: the platter bytes survive but are
  // unreachable without it — re-warm re-copies what matters.
  buffer_ = CacheIndex(buffer_.capacity());
  // The RAM tier dies wholesale.  Clean cached bytes are re-fetchable,
  // but staged write-backs were ACKED and are lost no matter what the
  // journal mode is — the journal only covers bytes that reached the
  // buffer-disk log.  A flush in flight that had not booked its journal
  // record yet is equally gone (its completions carry a stale epoch).
  if (ram_) {
    const auto staged = static_cast<std::uint64_t>(ram_staged_.size()) +
                        static_cast<std::uint64_t>(ram_flushes_in_flight_);
    ram_metrics_->lost_writes.add(staged);
    metrics_.lost_acked_writes.add(staged);
    ram_staged_.clear();
    ram_flushes_in_flight_ = 0;
    ram_flush_timer_.cancel();
    *ram_ = CacheIndex(ram_->capacity(), params_.ram_cache_policy);
  }
  // Data-disk power management keeps running: the crash kills the file
  // service, not the shelf — firmware DPM stays powered.
  notify_flush_waiters();
}

void StorageNode::restart() { alive_ = true; }

void StorageNode::replay_journal(std::function<void(std::size_t)> done) {
  if (!done) done = [](std::size_t) {};
  if (!alive_ || !journal_.enabled()) {
    (void)sim_.schedule_after(0, [done = std::move(done)] { done(0); });
    return;
  }
  const std::uint64_t ep = epoch_;
  journal_.replay([this, ep, done = std::move(done)](
                      Tick, disk::IoStatus st,
                      std::vector<disk::JournalRecord> records) {
    if (ep != epoch_) return;  // re-crashed mid-scan; next restart retries
    if (st != disk::IoStatus::kOk) {
      // Log disk unreadable: the records stay durable in the journal for
      // a later replay attempt; nothing to re-queue now.
      done(0);
      return;
    }
    std::size_t replayed = 0;
    for (const disk::JournalRecord& rec : records) {
      if (live_lsns_.contains(rec.lsn)) continue;  // idempotent re-replay
      if (meta_.find(rec.file) == nullptr) continue;
      if (!buffer_.reserve_write(rec.bytes, /*allow_evict=*/false)) {
        // No room to re-stage (cannot happen on a fresh index); leave
        // the record durable rather than dropping it silently.
        continue;
      }
      book_destage(PendingWrite{rec.file, rec.bytes, rec.lsn}, rec.data_disk);
      ++replayed;
    }
    // Spinning disks can start destaging right away; sleeping ones pick
    // the queue up on their next wake (or the end-of-run drain).
    for (std::size_t d = 0; d < data_disks_.size(); ++d) start_destage(d);
    done(replayed);
  });
}

void StorageNode::resync_write(trace::FileId f,
                               std::function<void(Tick, bool)> done) {
  if (!done) done = [](Tick, bool) {};
  const LocalFileMeta* m = meta_.find(f);
  if (!alive_ || m == nullptr || !stripe_set_alive(*m)) {
    (void)sim_.schedule_after(1, [this, done = std::move(done)] {
      done(sim_.now(), false);
    });
    return;
  }
  const std::uint64_t ep = epoch_;
  stripe_io(*m, m->size, /*is_write=*/true, /*notify_power_manager=*/true,
            [this, ep, done = std::move(done)](Tick t, disk::IoStatus st) {
              if (ep != epoch_) return;  // re-crashed: episode abandoned
              done(t, st == disk::IoStatus::kOk);
            });
}

void StorageNode::rewarm_prefetch(std::function<void(std::size_t)> done) {
  if (!done) done = [](std::size_t) {};
  std::vector<trace::FileId> hot;
  std::vector<trace::FileId> warm;
  if (alive_ && params_.cache_policy == CachePolicy::kPrefetch) {
    // The gate's accepted files not in the buffer index (buffered, or
    // on their way), back in rank order: the plan groups them by disk set.
    std::vector<std::pair<std::size_t, trace::FileId>> ranked;
    for (const PrefetchCandidate& c : plan_.accepted) {
      if (!buffer_.contains(c.file) && stripe_set_alive(meta_.at(c.file))) {
        ranked.emplace_back(c.rank, c.file);
      }
    }
    std::sort(ranked.begin(), ranked.end());
    for (const auto& [rank, f] : ranked) warm.push_back(f);
    // The crash wiped the RAM tier too: re-pin the planned hot set so
    // post-recovery serving returns to three-tier behaviour.
    for (const PrefetchCandidate& c : plan_.ram_pinned) {
      if (!ram_->contains(c.file) && stripe_set_alive(meta_.at(c.file))) {
        hot.push_back(c.file);
      }
    }
  }
  warm_tiers(hot, warm, std::move(done));
}

void StorageNode::serve_read(trace::FileId f, net::EndpointId client,
                             ServeCallback on_result) {
  const LocalFileMeta* meta = meta_.find(f);
  if (alive_ && meta == nullptr) {
    throw std::logic_error("StorageNode: read for unknown file " +
                           std::to_string(f));
  }
  const std::uint64_t id = open_serve(ev_read_, f, meta ? meta->size : 0,
                                      std::move(on_result));
  if (!alive_) {
    // Connection refused: fail fast on the next tick, no disk touched.
    refuse(id, RequestStatus::kNodeUnavailable);
    return;
  }
  // The epoch lets a disk completion that outlives the process mutate
  // nothing.
  const Read read{id, epoch_, f, meta->size, client};

  // RAM tier first: a hit touches no spindle at all — the power manager
  // never hears about the access, which is exactly how the RAM tier
  // stretches disk sleep windows past what the buffer disk alone can.
  if (ram_) {
    RamMetrics& rm = *ram_metrics_;
    const bool hit = ram_->lookup(f);
    (hit ? rm.hits : rm.misses).add();
    (hit ? rm.hit_size : rm.miss_size).record(read.bytes);
    if (hit) {
      (void)sim_.schedule_after(transfer_ticks(read.bytes, kRamBytesPerSec),
                                [this, read] { ship(read, /*admit=*/false); });
      return;
    }
  }

  // Buffer disk next, when it holds a copy.
  if (buffer_.landed(f)) {
    if (!buffer_disk_.failed()) {
      metrics_.buffer_hits.add();
      if (!stripe_set_alive(*meta)) {
        // The data copy is gone; the buffered copy is carrying the file.
        metrics_.buffered_rescues.add();
        fault_energy_delta_ -= degraded_read_energy_estimate(read.bytes);
      }
      (void)buffer_.lookup(f);
      submit_with_retry(
          &buffer_disk_, read.bytes, /*sequential=*/true, /*is_write=*/false,
          sim_.now(), 0,
          [this, read](Tick, disk::IoStatus st) {
            if (read.epoch != epoch_) return;
            if (st == disk::IoStatus::kOk) {
              ship(read, /*admit=*/true);
              return;
            }
            // The buffer disk died (or ran out of retries) mid-serve:
            // degrade to the data-disk stripe set when it is still whole.
            metrics_.buffer_fallback_reads.add();
            fault_energy_delta_ += degraded_read_energy_estimate(read.bytes);
            read_stripe(read, /*fallback=*/true);
          },
          kNotPowerManaged);
      return;
    }
    // Degraded mode: the buffered copy exists but its disk is dead, so
    // the read falls back to the data disks — availability is kept, the
    // energy saving is sacrificed (and metered).
    metrics_.buffer_fallback_reads.add();
    fault_energy_delta_ += degraded_read_energy_estimate(read.bytes);
  }

  read_stripe(read, /*fallback=*/false);
}

void StorageNode::read_stripe(const Read& read, bool fallback) {
  const LocalFileMeta& meta = meta_.at(read.file);
  if (!stripe_set_alive(meta)) {
    // No live copy anywhere on this node: fail upward so the server can
    // re-route to a replica node.
    if (fallback) {
      metrics_.failed_serves.add();
      settle(read.serve, sim_.now(), RequestStatus::kDiskUnavailable);
    } else {
      refuse(read.serve, RequestStatus::kDiskUnavailable);
    }
    return;
  }
  metrics_.data_disk_reads.add();
  stripe_io(meta, read.bytes, /*is_write=*/false,
            /*notify_power_manager=*/true,
            [this, read, fallback](Tick t, disk::IoStatus st) {
    if (read.epoch != epoch_) return;
    if (st != disk::IoStatus::kOk) {
      metrics_.failed_serves.add();
      settle(read.serve, t, RequestStatus::kDiskUnavailable);
      return;
    }
    ship(read, /*admit=*/true);
    if (fallback) return;
    const LocalFileMeta& m = meta_.at(read.file);
    for (std::size_t j = 0; j < stripe_width_; ++j) {
      // The platters are spinning: destage queued writes.
      maybe_flush(m.disk(j, data_disks_.size()));
    }
    if (params_.cache_policy == CachePolicy::kLruOnMiss) {
      // MAID: cache on access.  The admit may evict colder files.  A
      // file whose copy landed or is still on its way is only touched.
      const auto res = buffer_.admit(read.file, m.size, /*allow_evict=*/true);
      metrics_.evictions.add(res.evicted.size());
      if (res.created) write_buffer_copy(read.file, [](bool) {});
    }
  });
}

void StorageNode::ship(const Read& read, bool admit) {
  if (read.epoch != epoch_) return;
  metrics_.bytes_served.add(read.bytes);
  // Fill the RAM tier on the way out: the next access can be
  // memory-speed.
  if (admit && ram_) {
    const auto res = ram_->admit(read.file, read.bytes, /*allow_evict=*/true,
                                 ram_weight(read.file));
    ram_metrics_->evictions.add(res.evicted.size());
  }
  net_.send(self_, read.client, read.bytes, [this, id = read.serve](Tick t) {
    settle(id, t, RequestStatus::kOk);
  });
}

void StorageNode::serve_write(trace::FileId f, Bytes bytes,
                              net::EndpointId client,
                              ServeCallback on_result) {
  const LocalFileMeta* wmeta = meta_.find(f);
  if (alive_ && wmeta == nullptr) {
    throw std::logic_error("StorageNode: write for unknown file " +
                           std::to_string(f));
  }
  const std::uint64_t id = open_serve(ev_write_, f, bytes,
                                      std::move(on_result));
  if (!alive_) {
    refuse(id, RequestStatus::kNodeUnavailable);
    return;
  }
  const std::size_t d = wmeta->first_disk;  // primary stripe disk
  const std::uint64_t ep = epoch_;
  // Acks the client once the write landed (RAM staging, buffer log or
  // stripe set), or fails it typed.
  auto done = [this, id, ep, client](Tick t, bool ok) {
    if (ep != epoch_) return;
    if (!ok) {
      metrics_.failed_serves.add();
      settle(id, t, RequestStatus::kDiskUnavailable);
      return;
    }
    net_.send(self_, client, net::kControlMessageBytes,
              [this, id](Tick t2) { settle(id, t2, RequestStatus::kOk); });
  };

  // RAM write-back tier: absorb the burst in memory and ack at RAM
  // speed; the staged bytes flow toward the buffer-disk path on the
  // flush interval or under space pressure.  A staged write that has not
  // flushed dies with the process in a crash — the journal only covers
  // bytes that reached the buffer-disk log, so this trades a durability
  // window for burst absorption (the crash tests pin the accounting).
  if (ram_ && params_.write_buffering &&
      ram_->reserve_write(bytes, /*allow_evict=*/true)) {
    ram_metrics_->writes_absorbed.add();
    ram_staged_.push_back(RamStagedWrite{f, bytes, d});
    schedule_ram_flush();
    (void)sim_.schedule_after(transfer_ticks(bytes, kRamBytesPerSec),
                              [this, done] { done(sim_.now(), true); });
    if (ram_->pending_write_bytes() * 2 > ram_->capacity()) {
      flush_ram_writes();  // pressure flush: staged bytes passed half RAM
    }
    return;
  }
  if (stage_write(f, bytes, d, done)) return;
  if (!stripe_set_alive(*wmeta)) {
    refuse(id, RequestStatus::kDiskUnavailable);
    return;
  }
  write_through(f, bytes, std::move(done));
}

std::uint64_t StorageNode::open_serve(obs::StringId op, trace::FileId f,
                                      Bytes bytes, ServeCallback on_result) {
  const std::uint64_t id = next_serve_id_++;
  open_serves_.emplace(id, OpenServe{std::move(on_result), sim_.now(), op, f,
                                     bytes});
  return id;
}

void StorageNode::settle(std::uint64_t id, Tick t, RequestStatus status) {
  auto entry = open_serves_.extract(id);
  if (entry.empty()) return;  // settled already, or renumbered by a crash
  const OpenServe& serve = entry.mapped();
  if (tracer_ && tracer_->wants(obs::kCatNode)) {
    tracer_->complete(serve.start, t - serve.start, obs::kCatNode,
                      obs::TraceLevel::kInfo, serve.op, track_,
                      tracer_->intern(to_string(status)),
                      static_cast<std::int64_t>(serve.file),
                      static_cast<std::int64_t>(serve.bytes));
  }
  if (serve.on_result) serve.on_result(t, status);
}

void StorageNode::refuse(std::uint64_t id, RequestStatus status) {
  metrics_.failed_serves.add();
  (void)sim_.schedule_after(
      1, [this, id, status] { settle(id, sim_.now(), status); });
}

template <typename Done>
bool StorageNode::stage_write(trace::FileId f, Bytes bytes, std::size_t d,
                              const Done& done) {
  if (!params_.write_buffering || buffer_disk_.failed() ||
      !buffer_.reserve_write(bytes, /*allow_evict=*/false)) {
    return false;
  }
  const std::uint64_t ep = epoch_;
  // Runs once the payload (journal off) or the commit header (journal on)
  // settled.  A failed log I/O leaves the write not provably recoverable
  // from the log, so it is never acked from there: the reservation is
  // released and the write goes through to the stripe set.
  auto logged = [this, f, bytes, d, ep, done](
                    Tick t, disk::IoStatus st, std::uint64_t lsn) mutable {
    if (ep != epoch_) return;
    if (st != disk::IoStatus::kOk) {
      buffer_.release_write(bytes);
      write_through(f, bytes, std::move(done));
      return;
    }
    metrics_.writes_buffered.add();
    book_destage(PendingWrite{f, bytes, lsn}, d);
    // Booked before `done` runs, so an end-of-run waiter cannot fire
    // between the two.
    done(t, true);
    start_destage(d);
  };
  submit_with_retry(
      &buffer_disk_, bytes, /*sequential=*/true, /*is_write=*/true,
      sim_.now(), 0,
      [this, f, bytes, d, ep, logged = std::move(logged)](
          Tick t, disk::IoStatus st) mutable {
        if (ep != epoch_) return;
        if (st == disk::IoStatus::kOk && journal_.enabled()) {
          // Append-before-ack: nothing is acked until the commit header
          // is durable on the buffer-disk log.
          journal_.append(f, bytes, d, std::move(logged));
          return;
        }
        // journal=off ablation: legacy lossy behaviour, booked as soon as
        // the payload lands.
        logged(t, st, /*lsn=*/0);
      },
      kNotPowerManaged);
  return true;
}

template <typename Done>
void StorageNode::write_through(trace::FileId f, Bytes bytes, Done done) {
  const LocalFileMeta& m = meta_.at(f);
  if (!stripe_set_alive(m)) {
    done(sim_.now(), false);
    return;
  }
  metrics_.writes_direct.add();
  stripe_io(m, bytes, /*is_write=*/true, /*notify_power_manager=*/true,
            [done = std::move(done)](Tick t, disk::IoStatus st) {
              done(t, st == disk::IoStatus::kOk);
            });
}

void StorageNode::book_destage(const PendingWrite& w, std::size_t d) {
  ++undestaged_acked_;
  backlog_add(w.bytes);
  if (w.lsn != 0) live_lsns_.insert(w.lsn);
  pending_writes_[d].push_back(w);
}

void StorageNode::start_destage(std::size_t d) {
  if (!flush_waiters_.empty()) {
    force_destage(d);
  } else if (disk::is_spun_up(data_disks_[d]->state())) {
    maybe_flush(d);
  }
}

void StorageNode::force_destage(std::size_t d) {
  auto batch = std::move(pending_writes_[d]);
  pending_writes_[d].clear();
  for (const PendingWrite& w : batch) flush_one(w, [] {});
}

void StorageNode::schedule_ram_flush() {
  if (ram_flush_timer_.pending()) return;
  ram_flush_timer_ =
      sim_.schedule_after(kRamFlushInterval, [this] {
        flush_ram_writes();
        // Writes staged while this flush dispatched re-arm the timer.
        if (!ram_staged_.empty()) schedule_ram_flush();
      });
}

void StorageNode::flush_ram_writes() {
  if (!alive_ || ram_staged_.empty()) return;
  auto staged = std::move(ram_staged_);
  ram_staged_.clear();
  for (const RamStagedWrite& w : staged) {
    ++ram_flushes_in_flight_;
    const std::uint64_t ep = epoch_;
    // Terminal bookkeeping: the staged bytes left RAM — landed downstream
    // (buffer log or stripe) or were written off as stranded.
    auto settle = [this, bytes = w.bytes, ep](Tick, bool landed) {
      if (ep != epoch_) return;  // the crash already wrote the loss off
      ram_->release_write(bytes);
      (landed ? ram_metrics_->writebacks : metrics_.writes_stranded).add();
      --ram_flushes_in_flight_;
      notify_flush_waiters();
    };
    if (!stage_write(w.file, w.bytes, w.data_disk, settle)) {
      write_through(w.file, w.bytes, std::move(settle));
    }
  }
}

void StorageNode::maybe_flush(std::size_t d) {
  if (flush_in_progress_[d] || pending_writes_[d].empty()) return;
  if (!disk::is_spun_up(data_disks_[d]->state())) return;
  flush_in_progress_[d] = true;
  auto batch = std::make_shared<std::vector<PendingWrite>>(
      std::move(pending_writes_[d]));
  pending_writes_[d].clear();
  auto remaining = std::make_shared<std::size_t>(batch->size());
  for (const PendingWrite& w : *batch) {
    flush_one(w, [this, d, remaining] {
      if (--*remaining == 0) {
        flush_in_progress_[d] = false;
        maybe_flush(d);  // new writes may have queued meanwhile
      }
    });
  }
}

void StorageNode::flush_one(const PendingWrite& w,
                            std::function<void()> done) {
  ++destages_in_flight_;
  if (tracer_ && tracer_->wants(obs::kCatBuffer)) {
    const Tick start = sim_.now();
    done = [this, w, start, inner = std::move(done)] {
      tracer_->complete(start, sim_.now() - start, obs::kCatBuffer,
                        obs::TraceLevel::kInfo, ev_destage_, track_, 0,
                        static_cast<std::int64_t>(w.file),
                        static_cast<std::int64_t>(w.bytes));
      inner();
    };
  }
  const std::uint64_t ep = epoch_;
  auto finish = [this, w, done = std::move(done)](bool landed) {
    retire_destage(w, landed);
    --destages_in_flight_;
    done();
    notify_flush_waiters();
  };
  disk::DiskRequest read;
  read.bytes = w.bytes;
  read.sequential = true;
  read.on_complete = [this, w, ep, finish = std::move(finish)](
                         Tick, disk::IoStatus rst) mutable {
    // A crash reset the flush machinery; this destage belongs to the dead
    // process (the journal still holds its record for replay).
    if (ep != epoch_) return;
    const LocalFileMeta& m = meta_.at(w.file);
    if (rst != disk::IoStatus::kOk || !stripe_set_alive(m)) {
      // The staged copy is unreadable or its home disks are gone: drop
      // the destage (counted as data loss) so the drain cannot wedge.
      finish(false);
      return;
    }
    // Destages ride along with foreground traffic; they do not count as
    // arrivals for the power manager's gap estimate (the disk was already
    // awake for a read in the common path) but do keep it busy.
    stripe_io(m, w.bytes, /*is_write=*/true,
              /*notify_power_manager=*/false,
              [this, ep, finish = std::move(finish)](Tick,
                                                     disk::IoStatus wst) {
                if (ep != epoch_) return;
                finish(wst == disk::IoStatus::kOk);
              });
  };
  buffer_disk_.submit(std::move(read));
}

void StorageNode::retire_destage(const PendingWrite& w, bool landed) {
  (landed ? metrics_.destages : metrics_.writes_stranded).add();
  if (w.lsn != 0) {
    journal_.mark_destaged(w.lsn);
    live_lsns_.erase(w.lsn);
  }
  if (undestaged_acked_ > 0) --undestaged_acked_;
  backlog_sub(w.bytes);
  buffer_.release_write(w.bytes);
}

void StorageNode::notify_flush_waiters() {
  if (has_pending_writes() || flush_waiters_.empty()) return;
  auto waiters = std::move(flush_waiters_);
  flush_waiters_.clear();
  for (auto& w : waiters) w();
}

bool StorageNode::has_pending_writes() const {
  if (destages_in_flight_ > 0 || ram_flushes_in_flight_ > 0) return true;
  if (!ram_staged_.empty()) return true;
  for (const auto& q : pending_writes_) {
    if (!q.empty()) return true;
  }
  return false;
}

void StorageNode::flush_pending_writes(std::function<void()> done) {
  // RAM-staged write-backs first: dispatching them may add entries to
  // the per-disk queues below (their bookings force those through once a
  // waiter is registered — see start_destage).
  flush_ram_writes();
  // Destage everything still queued, then wait for all in-flight
  // destages (including ones started by opportunistic maybe_flush calls)
  // to land.
  for (std::size_t d = 0; d < data_disks_.size(); ++d) force_destage(d);
  if (!has_pending_writes()) {
    (void)sim_.schedule_after(0, std::move(done));
    return;
  }
  flush_waiters_.push_back(std::move(done));
}

NodeMetrics StorageNode::collect_metrics() {
  NodeMetrics m;
  m.label = format("node%zu", params_.id);
  for (auto& d : data_disks_) {
    d->finalize();
    m.data_disk_meter.merge(d->meter());
    m.spin_ups += d->spin_ups();
    m.spin_downs += d->spin_downs();
    m.data_disk_standby_ticks += d->meter().ticks(disk::PowerState::kStandby);
  }
  buffer_disk_.finalize();
  m.buffer_disk_meter.merge(buffer_disk_.meter());
  m.spin_ups += buffer_disk_.spin_ups();
  m.spin_downs += buffer_disk_.spin_downs();
  m.disk_joules =
      m.data_disk_meter.total_joules() + m.buffer_disk_meter.total_joules();
  m.base_joules = energy(params_.base_watts, sim_.now());
  return m;
}

bool StorageNode::is_buffered(trace::FileId f) const {
  return buffer_.landed(f);
}

std::optional<std::size_t> StorageNode::data_disk_of(trace::FileId f) const {
  const LocalFileMeta* meta = meta_.find(f);
  if (meta == nullptr) return std::nullopt;
  return meta->first_disk;
}

std::vector<std::size_t> StorageNode::stripe_disks_of(trace::FileId f) const {
  const LocalFileMeta* meta = meta_.find(f);
  if (meta == nullptr) return {};
  return stripe_set(*meta);
}

}  // namespace eevfs::core
