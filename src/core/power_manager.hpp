// Per-node power management of the data disks (paper §III-C).
//
// Five policies (core/config.hpp PowerPolicy):
//  * none        — disks never sleep.
//  * idle_timer  — classic DPM: after `idle_threshold` of idleness, sleep.
//  * predictive  — the paper's default behaviour: the node predicts each
//    disk's next-access gap (static expectation from the forwarded access
//    pattern, refined online by an EWMA of observed gaps) and sleeps only
//    when the prediction clears the energy model's profit gate.  Wake is
//    on demand, so mispredictions cost a spin-up in response time — the
//    source of the paper's Fig. 5 penalties.
//  * hints       — §IV-C: the exact forwarded pattern gives the next
//    access time; sleep immediately into known-long windows and pre-wake
//    `spin_up_time` early so clients rarely observe a spin-up.
//  * oracle      — hints with the profit gate at exactly break-even
//    (lower-bound baseline).
//
// Buffer disks are never managed: "placing the buffer disk into the
// standby state is not feasible" (§III-C).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/config.hpp"
#include "core/energy_model.hpp"
#include "disk/disk_model.hpp"
#include "obs/tracer.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace eevfs::core {

class PowerManager {
 public:
  struct Params {
    PowerPolicy policy = PowerPolicy::kPredictive;
    Tick idle_threshold = seconds_to_ticks(5.0);
    double sleep_margin = 1.0;
  };

  /// `disks` are the node's data disks; the manager installs itself as
  /// their idle callback and must outlive them being used.
  PowerManager(sim::Simulator& sim, Params params,
               std::vector<disk::DiskModel*> disks);

  /// Static expectation of the gap between requests reaching `disk`
  /// (from the server-forwarded access pattern, after removing buffered
  /// files).  nullopt = no information; kNever = no accesses expected.
  static constexpr Tick kNever = std::numeric_limits<Tick>::max();
  void set_expected_gap(std::size_t disk, std::optional<Tick> gap);

  /// Exact future request times for `disk` (absolute sim time, sorted) —
  /// used by hints/oracle policies.
  void set_future_accesses(std::size_t disk, std::vector<Tick> accesses);

  /// Arms idle handling for disks that are already idle and enables the
  /// policies.  Until start() is called, idle notifications are ignored —
  /// the setup/prefetch phase must not trigger sleeps (the hint timeline
  /// is not in place yet).
  void start();
  bool started() const { return started_; }

  /// Disables the policies and cancels all pending sleep/wake timers.
  /// Call when the measured run ends — otherwise the policies' sleep
  /// timers and hint wake marks would cycle disks forever and the
  /// simulation would never drain.
  void stop();

  /// Notes a request arriving at `disk` (EWMA update, cancels any armed
  /// sleep for it).  Call before submitting the request to the disk.
  void note_arrival(std::size_t disk);

  /// Predicted gap until the next request for `disk`, per the active
  /// policy; nullopt when the policy has no basis to predict.
  std::optional<Tick> predicted_gap(std::size_t disk) const;

  /// Predicted time *from now* until the next request: the predicted gap
  /// minus the time already elapsed since the last arrival (memoryless
  /// restart when badly overdue).
  std::optional<Tick> predicted_remaining(std::size_t disk) const;

  /// Attaches the tracer (may be null): emits power.sleep when a
  /// spin-down is initiated and power.wake_mark when a proactive wake
  /// timer is armed, on the managed disk's track.
  void set_observer(obs::Tracer* tracer);

  const EnergyPredictionModel& model() const { return model_; }
  std::uint64_t sleeps_initiated() const { return sleeps_initiated_; }
  /// Proactive wake timers armed (hints/oracle policies).
  std::uint64_t wake_marks() const { return wake_marks_; }

 private:
  /// Sentinel for "no value" in the per-disk Tick fields below (sim time
  /// and gaps are never negative; kNever — the "no accesses expected"
  /// hint — is int64 max and therefore distinct).
  static constexpr Tick kNoTick = -1;

  void on_idle(std::size_t disk);
  void arm_timer_sleep(std::size_t disk);
  void handle_hints_idle(std::size_t disk);
  bool try_sleep(std::size_t disk);
  void mark_wake(std::size_t disk, Tick wake_at);
  std::optional<Tick> next_future_access(std::size_t disk) const;

  sim::Simulator& sim_;
  Params params_;
  EnergyPredictionModel model_;
  EnergyPredictionModel breakeven_model_;  // margin = 1 (hints/oracle gate)

  // --- per-disk state, one record per managed disk --------------------
  // A manager has one node's data disks (two in the paper's testbed), so
  // its state fills a few cache lines whichever way it is laid out; one
  // vector of records costs one heap block instead of one per field.
  // Indexed by the disk's position in the constructor vector.
  struct DiskState {
    disk::DiskModel* disk = nullptr;
    sim::EventHandle sleep_timer;
    sim::EventHandle wake_timer;
    Tick expected_gap = kNoTick;  // static hint; kNoTick = none
    Tick last_arrival = kNoTick;  // kNoTick = no arrival yet
    double ewma_gap = 0.0;
    std::uint32_t observed_gaps = 0;
    obs::StringId track = 0;  // the disk's trace track (tracer attached)
    // The disk's hint timeline: [future_begin, future_end) of
    // future_arena_.  future_pos is the first entry not yet in the past;
    // advancing it is a cache of a monotone scan, not observable state —
    // hence mutable (predicted_gap() is const but may retire expired
    // entries while peeking).
    std::size_t future_begin = 0;
    std::size_t future_end = 0;
    mutable std::size_t future_pos = 0;
  };
  std::vector<DiskState> disks_;
  // Hint timelines (hints/oracle): one flat arena of absolute times that
  // the per-disk spans index.  A re-set span strands its old arena
  // entries — setup happens once per run, so the waste is nil and the
  // cursors never invalidate.
  std::vector<Tick> future_arena_;

  std::uint64_t sleeps_initiated_ = 0;
  std::uint64_t wake_marks_ = 0;
  bool started_ = false;

  obs::Tracer* tracer_ = nullptr;
  obs::StringId ev_sleep_ = 0;
  obs::StringId ev_wake_mark_ = 0;
};

}  // namespace eevfs::core
