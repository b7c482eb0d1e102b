// Event-driven model of one disk drive: FIFO service queue, six-state
// power machine (five DPM states + a terminal failed state), and energy
// metering.
//
// The model is deliberately policy-free: it never decides *when* to spin
// down — that is the PowerManager's job (core/power_manager) — but it does
// auto-wake when a request lands on a sleeping disk, which is what a
// Linux 2.4 ATA driver does and what gives the paper its response-time
// penalties.
//
// Faults: every completion carries an IoStatus.  A disk can be failed
// permanently (fail(), or an injected spin-up flake storm that exceeds
// profile.max_spin_up_attempts), in which case every queued and future
// request completes with kUnavailable; latent media errors can be armed
// with inject_read_errors().  Retry/backoff policy lives one layer up
// (core::StorageNode) — the drive only reports what happened.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "disk/disk_profile.hpp"
#include "disk/energy_meter.hpp"
#include "disk/power_state.hpp"
#include "obs/counters.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "util/fifo_ring.hpp"
#include "util/units.hpp"

namespace eevfs::disk {

/// Outcome of one disk request.
enum class IoStatus {
  kOk = 0,
  kMediaError,    // transient: the sector read back bad; retry may succeed
  kUnavailable,   // terminal: the drive is failed (or failed mid-request)
};

constexpr std::string_view to_string(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kMediaError: return "media_error";
    case IoStatus::kUnavailable: return "unavailable";
  }
  return "?";
}

struct DiskRequest {
  Bytes bytes = 0;
  bool sequential = false;
  bool is_write = false;
  /// Set by DiskModel::submit; time the request entered the disk queue so
  /// queue-wait (including any spin-up stall it sat through) is observable.
  Tick enqueued = 0;
  /// Invoked when the transfer completes or fails; `completion` ==
  /// sim.now() at the callback.  Check `status` — a failed drive reports
  /// kUnavailable without transferring anything.
  std::function<void(Tick completion, IoStatus status)> on_complete;
};

class DiskModel {
 public:
  /// The model refers to `profile` and does not copy it: a node's disks
  /// share the node's one profile, which must outlive them.
  DiskModel(sim::Simulator& sim, const DiskProfile& profile,
            std::string label);
  DiskModel(sim::Simulator&, DiskProfile&&, std::string) = delete;

  DiskModel(const DiskModel&) = delete;
  DiskModel& operator=(const DiskModel&) = delete;

  /// Enqueues a request.  If the disk is in standby (or spinning down) it
  /// wakes automatically; the request waits out the spin-up.  On a failed
  /// disk the request completes with kUnavailable on the next tick.
  void submit(DiskRequest request);

  /// Asks the disk to spin down.  Honoured only from Idle with an empty
  /// queue; returns whether the transition started.
  bool request_spin_down();

  /// Wakes a standby disk (proactive wake for hint-driven power
  /// management).  No-op unless the disk is in Standby.
  void request_spin_up();

  // --- fault injection (fault::FaultInjector) ---------------------------

  /// Permanently fails the drive: the state machine enters kFailed (zero
  /// watts — the controller drops the drive off the bus), any in-flight
  /// transfer or transition is abandoned, and every queued request
  /// completes with kUnavailable.  Idempotent.
  void fail();
  bool failed() const { return state_ == PowerState::kFailed; }

  /// Arms `n` latent read errors: the next `n` read completions report
  /// kMediaError (the platters still paid the service time).  Writes are
  /// unaffected (drive-level write verify is not modelled).
  void inject_read_errors(std::uint64_t n) { pending_read_errors_ += n; }

  /// Forces the next spin-up to need `extra_attempts` retries on top of
  /// the first try.  If that exceeds profile.max_spin_up_attempts the
  /// drive never comes back: it fails after the bounded ramp time.
  void inject_spin_up_flakes(std::uint32_t extra_attempts) {
    forced_spin_up_flakes_ += extra_attempts;
  }

  PowerState state() const { return state_; }
  bool busy() const { return state_ == PowerState::kActive; }
  std::size_t queue_depth() const { return queue_.size(); }
  const DiskProfile& profile() const { return profile_; }
  const std::string& label() const { return label_; }

  /// Integrates energy up to sim.now(); call once when the run ends.
  /// Idempotent (subsequent calls integrate zero-length intervals).
  void finalize();

  const EnergyMeter& meter() const { return meter_; }
  std::uint64_t spin_ups() const { return spin_ups_; }
  std::uint64_t spin_downs() const { return spin_downs_; }
  /// Spin-ups that needed a retry (profile.spin_up_retry_prob > 0 or an
  /// injected flake).
  std::uint64_t spin_up_retries() const { return spin_up_retries_; }
  /// Spin-ups that started with a request already waiting — the disk was
  /// woken on demand, so a client observed the stall.  Proactive wakes
  /// (power-manager wake marks) start with an empty queue and are not
  /// counted; the difference is the power policy's misprediction cost.
  std::uint64_t demand_spin_ups() const { return demand_spin_ups_; }
  /// Paper's "power state transitions" metric counts both directions.
  std::uint64_t power_transitions() const { return spin_ups_ + spin_downs_; }
  std::uint64_t requests_completed() const { return requests_completed_; }
  std::uint64_t media_errors() const { return media_errors_; }
  std::uint64_t requests_failed() const { return requests_failed_; }
  Bytes bytes_transferred() const { return bytes_transferred_; }

  /// Attaches observability: `tracer` (may be null) receives disk.state
  /// transition events on this disk's track; `queue_wait_us` (may be
  /// null) records per-request queue wait — the time between submit()
  /// and the platters starting the transfer, spin-up stalls included.
  /// The histogram is recorded regardless of tracer state so metrics are
  /// identical with tracing on or off.
  void set_observer(obs::Tracer* tracer, obs::Histogram* queue_wait_us);

  /// Fired whenever the disk becomes idle (queue drained or spun up with
  /// nothing to do) — the power manager arms its idle timer here.
  void set_idle_callback(std::function<void()> cb) { on_idle_ = std::move(cb); }
  /// Fired on every state change (old, new).  kFailed arrives here too —
  /// the owning node reacts by entering degraded mode.
  void set_state_callback(std::function<void(PowerState, PowerState)> cb) {
    on_state_change_ = std::move(cb);
  }

 private:
  void advance_meter();
  void enter_state(PowerState next);
  void start_next_request();
  void complete_current();
  void begin_spin_up();
  /// Completes (with kUnavailable) everything queued on a failed drive.
  void drain_queue_unavailable();

  sim::Simulator& sim_;
  const DiskProfile& profile_;
  std::string label_;

  PowerState state_ = PowerState::kIdle;
  Tick state_entry_ = 0;
  EnergyMeter meter_;

  FifoRing<DiskRequest> queue_;
  bool wake_when_down_ = false;  // request arrived mid-spin-down
  sim::EventHandle pending_event_;  // in-flight transfer or transition

  std::uint64_t spin_ups_ = 0;
  std::uint64_t spin_downs_ = 0;
  std::uint64_t spin_up_retries_ = 0;
  std::uint64_t demand_spin_ups_ = 0;
  std::uint64_t flake_state_ = 0;  // deterministic retry stream
  std::uint32_t forced_spin_up_flakes_ = 0;
  std::uint64_t pending_read_errors_ = 0;
  std::uint64_t media_errors_ = 0;
  std::uint64_t requests_failed_ = 0;
  std::uint64_t requests_completed_ = 0;
  Bytes bytes_transferred_ = 0;

  std::function<void()> on_idle_;
  std::function<void(PowerState, PowerState)> on_state_change_;

  obs::Tracer* tracer_ = nullptr;
  obs::Histogram* queue_wait_us_ = nullptr;
  obs::StringId track_ = 0;
  obs::StringId ev_state_ = 0;
};

}  // namespace eevfs::disk
