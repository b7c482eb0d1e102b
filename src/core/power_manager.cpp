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
  disks_.resize(disks.size());
  for (std::size_t i = 0; i < disks.size(); ++i) {
    disks_[i].disk = disks[i];
    disks[i]->set_idle_callback([this, i] { on_idle(i); });
  }
}

void PowerManager::set_observer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (!tracer_) return;
  for (DiskState& d : disks_) d.track = tracer_->intern(d.disk->label());
  ev_sleep_ = tracer_->intern("power.sleep");
  ev_wake_mark_ = tracer_->intern("power.wake_mark");
}

void PowerManager::set_expected_gap(std::size_t disk,
                                    std::optional<Tick> gap) {
  disks_.at(disk).expected_gap = gap.value_or(kNoTick);
}

void PowerManager::set_future_accesses(std::size_t disk,
                                       std::vector<Tick> accesses) {
  DiskState& d = disks_.at(disk);
  d.future_begin = future_arena_.size();
  future_arena_.insert(future_arena_.end(), accesses.begin(), accesses.end());
  d.future_end = future_arena_.size();
  d.future_pos = d.future_begin;
}

void PowerManager::start() {
  started_ = true;
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    if (disks_[i].disk->state() == disk::PowerState::kIdle &&
        disks_[i].disk->queue_depth() == 0) {
      on_idle(i);
    }
  }
}

void PowerManager::stop() {
  started_ = false;
  for (DiskState& d : disks_) {
    d.sleep_timer.cancel();
    d.wake_timer.cancel();
  }
}

void PowerManager::note_arrival(std::size_t disk) {
  const Tick now = sim_.now();
  DiskState& d = disks_.at(disk);
  if (d.last_arrival != kNoTick) {
    const auto gap = static_cast<double>(now - d.last_arrival);
    d.ewma_gap = d.observed_gaps == 0
                     ? gap
                     : params_.ewma_alpha * gap +
                           (1.0 - params_.ewma_alpha) * d.ewma_gap;
    ++d.observed_gaps;
  }
  d.last_arrival = now;
  std::size_t pos = d.future_pos;
  while (pos < d.future_end && future_arena_[pos] <= now) ++pos;
  d.future_pos = pos;
  d.sleep_timer.cancel();
}

std::optional<Tick> PowerManager::next_future_access(std::size_t disk) const {
  // A predicted access stays "pending" for a grace period past its
  // nominal time: the real request reaches the disk later than its trace
  // arrival (network + queueing), and without the grace a proactively
  // woken disk would observe "no upcoming access" and re-sleep before the
  // request lands.  note_arrival() retires entries on actual arrivals.
  const Tick grace = params_.idle_threshold + model_.profile().spin_up_time;
  const Tick now = sim_.now();
  const DiskState& d = disks_[disk];
  std::size_t pos = d.future_pos;
  while (pos < d.future_end && future_arena_[pos] + grace <= now) ++pos;
  d.future_pos = pos;
  if (pos >= d.future_end) return std::nullopt;
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
      const DiskState& d = disks_.at(disk);
      std::optional<Tick> gap;
      if (d.expected_gap != kNoTick) gap = d.expected_gap;
      if (d.observed_gaps >= 2) {
        const auto ewma = static_cast<Tick>(d.ewma_gap);
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
  sim::EventHandle& timer = disks_.at(disk).sleep_timer;
  timer.cancel();
  timer = sim_.schedule_after(params_.idle_threshold, [this, disk] {
    disk::DiskModel& d = *disks_[disk].disk;
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
  const Tick last = disks_.at(disk).last_arrival;
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
    const disk::DiskProfile& profile = disks_[disk].disk->profile();
    const Tick wake_at = std::max(sim_.now() + profile.spin_down_time,
                                  *next - profile.spin_up_time);
    mark_wake(disk, wake_at);
  }
}

void PowerManager::mark_wake(std::size_t disk, Tick wake_at) {
  DiskState& d = disks_[disk];
  d.wake_timer.cancel();
  d.wake_timer = sim_.schedule_at(
      wake_at, [this, disk] { disks_[disk].disk->request_spin_up(); });
  ++wake_marks_;
  if (tracer_ && tracer_->wants(obs::kCatPower)) {
    tracer_->instant(sim_.now(), obs::kCatPower, obs::TraceLevel::kInfo,
                     ev_wake_mark_, d.track, 0,
                     static_cast<std::int64_t>(wake_at));
  }
}

bool PowerManager::try_sleep(std::size_t disk) {
  disk::DiskModel& d = *disks_.at(disk).disk;
  if (!d.request_spin_down()) return false;
  ++sleeps_initiated_;
  if (tracer_ && tracer_->wants(obs::kCatPower)) {
    tracer_->instant(sim_.now(), obs::kCatPower, obs::TraceLevel::kInfo,
                     ev_sleep_, disks_[disk].track);
  }
  EEVFS_DEBUG() << d.label() << ": power manager sleeping disk at t="
                << ticks_to_seconds(sim_.now());
  return true;
}

}  // namespace eevfs::core
