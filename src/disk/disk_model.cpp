#include "disk/disk_model.hpp"

#include <cassert>
#include <utility>

#include "util/logging.hpp"
#include "util/rng.hpp"

namespace eevfs::disk {

DiskModel::DiskModel(sim::Simulator& sim, const DiskProfile& profile,
                     std::string label)
    : sim_(sim), profile_(profile), label_(std::move(label)) {
  // Seed the retry stream from the label so failure injection is
  // deterministic per disk and independent across disks.
  for (const char c : label_) {
    flake_state_ = flake_state_ * 1099511628211ULL ^
                   static_cast<std::uint64_t>(static_cast<unsigned char>(c));
  }
}

void DiskModel::advance_meter() {
  const Tick now = sim_.now();
  assert(now >= state_entry_);
  meter_.add(state_, now - state_entry_, profile_.watts(state_));
  state_entry_ = now;
}

void DiskModel::set_observer(obs::Tracer* tracer,
                             obs::Histogram* queue_wait_us) {
  tracer_ = tracer;
  queue_wait_us_ = queue_wait_us;
  if (tracer_) {
    track_ = tracer_->intern(label_);
    ev_state_ = tracer_->intern("disk.state");
  }
}

void DiskModel::enter_state(PowerState next) {
  advance_meter();
  const PowerState prev = state_;
  state_ = next;
  if (prev != next && tracer_ && tracer_->wants(obs::kCatDisk)) {
    std::string detail{to_string(prev)};
    detail += "->";
    detail += to_string(next);
    tracer_->instant(sim_.now(), obs::kCatDisk, obs::TraceLevel::kInfo,
                     ev_state_, track_, tracer_->intern(detail));
  }
  if (on_state_change_ && prev != next) on_state_change_(prev, next);
}

void DiskModel::submit(DiskRequest request) {
  if (state_ == PowerState::kFailed) {
    // Fail fast, but asynchronously — callers expect completion to arrive
    // from the event loop, never re-entrantly from submit().
    (void)sim_.schedule_after(1, [this, req = std::move(request)]() mutable {
      ++requests_failed_;
      if (req.on_complete) req.on_complete(sim_.now(), IoStatus::kUnavailable);
    });
    return;
  }
  request.enqueued = sim_.now();
  queue_.push_back(std::move(request));
  switch (state_) {
    case PowerState::kIdle:
      start_next_request();
      break;
    case PowerState::kActive:
    case PowerState::kSpinningUp:
      break;  // will be drained when the disk frees up / finishes waking
    case PowerState::kStandby:
      begin_spin_up();
      break;
    case PowerState::kSpinningDown:
      wake_when_down_ = true;  // finish the transition, then wake
      break;
    case PowerState::kFailed:
      break;  // unreachable (handled above)
  }
}

bool DiskModel::request_spin_down() {
  if (state_ != PowerState::kIdle || !queue_.empty()) return false;
  enter_state(PowerState::kSpinningDown);
  ++spin_downs_;
  EEVFS_TRACE() << label_ << ": spinning down at t="
                << ticks_to_seconds(sim_.now());
  pending_event_ = sim_.schedule_after(profile_.spin_down_time, [this] {
    enter_state(PowerState::kStandby);
    if (wake_when_down_ || !queue_.empty()) {
      wake_when_down_ = false;
      begin_spin_up();
    }
  });
  return true;
}

void DiskModel::request_spin_up() {
  if (state_ != PowerState::kStandby) return;
  begin_spin_up();
}

void DiskModel::begin_spin_up() {
  assert(state_ == PowerState::kStandby);
  enter_state(PowerState::kSpinningUp);
  ++spin_ups_;
  if (!queue_.empty()) ++demand_spin_ups_;
  // First attempt, plus any injected flakes, plus the profile's
  // deterministic pseudo-random retry stream.
  std::uint32_t attempts = 1 + forced_spin_up_flakes_;
  forced_spin_up_flakes_ = 0;
  if (attempts == 1 && profile_.spin_up_retry_prob > 0.0) {
    const double draw =
        static_cast<double>(splitmix64(flake_state_) >> 11) * 0x1.0p-53;
    if (draw < profile_.spin_up_retry_prob) attempts = 2;
  }
  if (attempts > 1) {
    spin_up_retries_ += attempts - 1;
    EEVFS_DEBUG() << label_ << ": spin-up needs " << (attempts - 1)
                  << " retries at t=" << ticks_to_seconds(sim_.now());
  }
  if (attempts > profile_.max_spin_up_attempts) {
    // The motor never reaches speed: burn the bounded ramp time, then the
    // controller gives up and drops the drive.
    const Tick ramp = profile_.spin_up_time *
                      static_cast<Tick>(profile_.max_spin_up_attempts);
    pending_event_ = sim_.schedule_after(ramp, [this] { fail(); });
    return;
  }
  const Tick ramp = profile_.spin_up_time * static_cast<Tick>(attempts);
  EEVFS_TRACE() << label_ << ": spinning up at t="
                << ticks_to_seconds(sim_.now());
  pending_event_ = sim_.schedule_after(ramp, [this] {
    enter_state(PowerState::kIdle);
    if (!queue_.empty()) {
      start_next_request();
    } else if (on_idle_) {
      on_idle_();
    }
  });
}

void DiskModel::start_next_request() {
  assert(state_ == PowerState::kIdle && !queue_.empty());
  enter_state(PowerState::kActive);
  const DiskRequest& req = queue_.front();
  if (queue_wait_us_) {
    queue_wait_us_->record(static_cast<std::uint64_t>(sim_.now() - req.enqueued));
  }
  const Tick service = profile_.service_time(req.bytes, req.sequential);
  pending_event_ = sim_.schedule_after(service, [this] { complete_current(); });
}

void DiskModel::complete_current() {
  assert(state_ == PowerState::kActive && !queue_.empty());
  DiskRequest req = std::move(queue_.front());
  queue_.pop_front();

  IoStatus status = IoStatus::kOk;
  if (!req.is_write && pending_read_errors_ > 0) {
    --pending_read_errors_;
    ++media_errors_;
    status = IoStatus::kMediaError;
    EEVFS_DEBUG() << label_ << ": media error at t="
                  << ticks_to_seconds(sim_.now());
  }
  ++requests_completed_;
  if (status == IoStatus::kOk) bytes_transferred_ += req.bytes;

  if (!queue_.empty()) {
    // Account the Active interval just served, then start the next one.
    enter_state(PowerState::kIdle);
    start_next_request();
  } else {
    enter_state(PowerState::kIdle);
    if (on_idle_) on_idle_();
  }
  if (req.on_complete) req.on_complete(sim_.now(), status);
}

void DiskModel::fail() {
  if (state_ == PowerState::kFailed) return;
  EEVFS_INFO() << label_ << ": DISK FAILED at t="
               << ticks_to_seconds(sim_.now());
  pending_event_.cancel();  // abandon in-flight transfer or transition
  wake_when_down_ = false;
  enter_state(PowerState::kFailed);
  drain_queue_unavailable();
}

void DiskModel::drain_queue_unavailable() {
  for (FifoRing<DiskRequest> stranded = std::move(queue_); !stranded.empty();
       stranded.pop_front()) {
    DiskRequest& req = stranded.front();
    ++requests_failed_;
    if (!req.on_complete) continue;
    (void)sim_.schedule_after(1, [this, cb = std::move(req.on_complete)] {
      cb(sim_.now(), IoStatus::kUnavailable);
    });
  }
}

void DiskModel::finalize() { advance_meter(); }

}  // namespace eevfs::disk
