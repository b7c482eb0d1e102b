#include "core/power_manager.hpp"

#include <cassert>
#include <stdexcept>

#include "util/logging.hpp"

namespace eevfs::core {

namespace {

EnergyPredictionModel make_gate_model(const PowerManager::Params& p,
                                      const disk::DiskProfile& profile) {
  switch (p.policy) {
    case PowerPolicy::kOracle:
      // Profit gate at exactly break-even, no idle-threshold floor.
      return EnergyPredictionModel(profile, 0, 1.0);
    case PowerPolicy::kHints:
      return EnergyPredictionModel(profile, p.idle_threshold, 1.0);
    default:
      return EnergyPredictionModel(profile, p.idle_threshold, p.sleep_margin);
  }
}

}  // namespace

PowerManager::PowerManager(sim::Simulator& sim, Params params,
                           std::vector<disk::DiskModel*> disks)
    : sim_(sim),
      params_(params),
      model_(disks.empty()
                 ? throw std::invalid_argument("PowerManager: no disks")
                 : EnergyPredictionModel(disks.front()->profile(),
                                         params.idle_threshold,
                                         params.sleep_margin)),
      breakeven_model_(make_gate_model(params, disks.front()->profile())) {
  const std::size_t n = disks.size();
  disk_ = std::move(disks);
  sleep_timer_.resize(n);
  wake_timer_.resize(n);
  expected_gap_.assign(n, kNoTick);
  last_arrival_.assign(n, kNoTick);
  ewma_gap_.assign(n, 0.0);
  observed_gaps_.assign(n, 0);
  future_begin_.assign(n, 0);
  future_end_.assign(n, 0);
  future_pos_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    disk_[i]->set_idle_callback([this, i] { on_idle(i); });
  }
}

void PowerManager::set_observer(obs::Tracer* tracer) {
  tracer_ = tracer;
  tracks_.clear();
  if (!tracer_) return;
  tracks_.reserve(disk_.size());
  for (const disk::DiskModel* d : disk_) {
    tracks_.push_back(tracer_->intern(d->label()));
  }
  ev_sleep_ = tracer_->intern("power.sleep");
  ev_wake_mark_ = tracer_->intern("power.wake_mark");
}

void PowerManager::set_expected_gap(std::size_t disk,
                                    std::optional<Tick> gap) {
  expected_gap_.at(disk) = gap.value_or(kNoTick);
}

void PowerManager::set_future_accesses(std::size_t disk,
                                       std::vector<Tick> accesses) {
  future_begin_.at(disk) = future_arena_.size();
  future_arena_.insert(future_arena_.end(), accesses.begin(), accesses.end());
  future_end_[disk] = future_arena_.size();
  future_pos_[disk] = future_begin_[disk];
}

void PowerManager::start() {
  started_ = true;
  for (std::size_t i = 0; i < disk_.size(); ++i) {
    if (disk_[i]->state() == disk::PowerState::kIdle &&
        disk_[i]->queue_depth() == 0) {
      on_idle(i);
    }
  }
}

void PowerManager::stop() {
  started_ = false;
  for (std::size_t i = 0; i < disk_.size(); ++i) {
    sleep_timer_[i].cancel();
    wake_timer_[i].cancel();
  }
}

void PowerManager::note_arrival(std::size_t disk) {
  const Tick now = sim_.now();
  const Tick last = last_arrival_.at(disk);
  if (last != kNoTick) {
    const auto gap = static_cast<double>(now - last);
    ewma_gap_[disk] = observed_gaps_[disk] == 0
                          ? gap
                          : params_.ewma_alpha * gap +
                                (1.0 - params_.ewma_alpha) * ewma_gap_[disk];
    ++observed_gaps_[disk];
  }
  last_arrival_[disk] = now;
  std::size_t pos = future_pos_[disk];
  const std::size_t end = future_end_[disk];
  while (pos < end && future_arena_[pos] <= now) ++pos;
  future_pos_[disk] = pos;
  sleep_timer_[disk].cancel();
}

std::optional<Tick> PowerManager::next_future_access(std::size_t disk) const {
  // A predicted access stays "pending" for a grace period past its
  // nominal time: the real request reaches the disk later than its trace
  // arrival (network + queueing), and without the grace a proactively
  // woken disk would observe "no upcoming access" and re-sleep before the
  // request lands.  note_arrival() retires entries on actual arrivals.
  const Tick grace =
      params_.idle_threshold + disk_.front()->profile().spin_up_time;
  const Tick now = sim_.now();
  std::size_t pos = future_pos_[disk];
  const std::size_t end = future_end_[disk];
  while (pos < end && future_arena_[pos] + grace <= now) ++pos;
  future_pos_[disk] = pos;
  if (pos >= end) return std::nullopt;
  return future_arena_[pos];
}

std::optional<Tick> PowerManager::predicted_gap(std::size_t disk) const {
  switch (params_.policy) {
    case PowerPolicy::kHints:
    case PowerPolicy::kOracle: {
      const auto next = next_future_access(disk);
      if (!next) return kNever;
      return *next - sim_.now();
    }
    case PowerPolicy::kPredictive: {
      // Conservative blend: the sleep decision must clear the gate under
      // BOTH the server-forwarded static expectation and the online EWMA
      // of observed gaps, so we report the smaller of the two.  (Sleeping
      // on an optimistic estimate costs a 2 s spin-up on the next
      // request; staying up on a pessimistic one costs a few Joules.)
      const Tick expected = expected_gap_.at(disk);
      std::optional<Tick> gap;
      if (expected != kNoTick) gap = expected;
      if (observed_gaps_[disk] >= 2) {
        const auto ewma = static_cast<Tick>(ewma_gap_[disk]);
        gap = gap ? std::min(*gap, ewma) : ewma;
      }
      return gap;
    }
    case PowerPolicy::kIdleTimer:
    case PowerPolicy::kNone:
      return std::nullopt;
  }
  return std::nullopt;
}

void PowerManager::on_idle(std::size_t disk) {
  if (!started_) return;
  switch (params_.policy) {
    case PowerPolicy::kNone:
      return;
    case PowerPolicy::kIdleTimer:
    case PowerPolicy::kPredictive:
      arm_timer_sleep(disk);
      return;
    case PowerPolicy::kHints:
    case PowerPolicy::kOracle:
      handle_hints_idle(disk);
      return;
  }
}

void PowerManager::arm_timer_sleep(std::size_t disk) {
  sleep_timer_.at(disk).cancel();
  sleep_timer_[disk] =
      sim_.schedule_after(params_.idle_threshold, [this, disk] {
        disk::DiskModel& d = *disk_[disk];
        if (d.state() != disk::PowerState::kIdle || d.queue_depth() != 0) {
          return;  // a request slipped in; the next idle re-arms us
        }
        if (params_.policy == PowerPolicy::kPredictive) {
          const auto remaining = predicted_remaining(disk);
          // Without a prediction, fall back to classic DPM and sleep.
          if (remaining && *remaining < model_.min_profitable_gap()) {
            return;  // predicted window too short to profit — stay up
          }
        }
        try_sleep(disk);
      });
}

std::optional<Tick> PowerManager::predicted_remaining(
    std::size_t disk) const {
  const auto gap = predicted_gap(disk);
  if (!gap) return std::nullopt;
  const Tick last = last_arrival_.at(disk);
  if (*gap == kNever || last == kNoTick) return gap;
  const Tick elapsed = sim_.now() - last;
  const Tick remaining = *gap - elapsed;
  // Overdue beyond one idle threshold: the estimate missed; restart the
  // epoch (memoryless view) and expect a full gap from now.
  if (remaining <= -params_.idle_threshold) return gap;
  return remaining;
}

void PowerManager::handle_hints_idle(std::size_t disk) {
  const auto next = next_future_access(disk);
  const Tick gate = breakeven_model_.min_profitable_gap();
  if (!next) {
    // No further accesses expected: sleep for the rest of the run.
    try_sleep(disk);
    return;
  }
  const Tick gap = *next - sim_.now();
  if (gap < gate) return;  // window known to be too short
  if (try_sleep(disk)) {
    // Proactive wake so the access (which reaches the disk slightly
    // after its trace arrival time) finds the platters spinning.
    const Tick wake_at =
        std::max(sim_.now() + disk_[disk]->profile().spin_down_time,
                 *next - disk_[disk]->profile().spin_up_time);
    mark_wake(disk, wake_at);
  }
}

void PowerManager::mark_wake(std::size_t disk, Tick wake_at) {
  wake_timer_[disk].cancel();
  wake_timer_[disk] = sim_.schedule_at(
      wake_at, [this, disk] { disk_[disk]->request_spin_up(); });
  ++wake_marks_;
  if (tracer_ && tracer_->wants(obs::kCatPower)) {
    tracer_->instant(sim_.now(), obs::kCatPower, obs::TraceLevel::kInfo,
                     ev_wake_mark_, tracks_[disk], 0,
                     static_cast<std::int64_t>(wake_at));
  }
}

bool PowerManager::try_sleep(std::size_t disk) {
  disk::DiskModel& d = *disk_.at(disk);
  if (!d.request_spin_down()) return false;
  ++sleeps_initiated_;
  if (tracer_ && tracer_->wants(obs::kCatPower)) {
    tracer_->instant(sim_.now(), obs::kCatPower, obs::TraceLevel::kInfo,
                     ev_sleep_, tracks_[disk]);
  }
  EEVFS_DEBUG() << d.label() << ": power manager sleeping disk at t="
                << ticks_to_seconds(sim_.now());
  return true;
}

}  // namespace eevfs::core
