// The storage node's energy prediction model (paper §III-C): given a
// disk's (predicted) future access times it identifies the idle windows
// worth sleeping through, and prices prefetch decisions (PRE-BUD gate:
// only buffer a file if redirecting its accesses to the buffer disk saves
// more energy than the copy costs).
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "disk/disk_profile.hpp"
#include "util/units.hpp"

namespace eevfs::core {

class EnergyPredictionModel {
 public:
  /// The model refers to `profile` and does not copy it; the profile
  /// must outlive the model and every copy of it.
  EnergyPredictionModel(const disk::DiskProfile& profile, Tick idle_threshold,
                        double sleep_margin);
  EnergyPredictionModel(disk::DiskProfile&&, Tick, double) = delete;

  /// Smallest idle gap the policy will sleep through:
  /// max(idle_threshold, sleep_margin x break-even).
  Tick min_profitable_gap() const { return min_gap_; }

  /// Energy to idle through a window of `gap` ticks.
  Joules idle_energy(Tick gap) const;

  /// Energy to sleep through it (spin-down + standby + spin-up); equals
  /// idle_energy when the gap is too short to complete the transitions.
  Joules sleep_energy(Tick gap) const;

  /// idle_energy - sleep_energy, clamped at zero for unprofitable gaps.
  Joules savings(Tick gap) const;

  struct Plan {
    /// [begin, end) standby windows within [start, horizon].
    std::vector<std::pair<Tick, Tick>> windows;
    Joules predicted_savings = 0.0;
  };

  /// Sleep windows for a disk whose future accesses (sorted, absolute
  /// times) are `accesses`, over [start, horizon].  A trailing window
  /// after the last access extends to the horizon.
  Plan plan_windows(std::span<const Tick> accesses, Tick start,
                    Tick horizon) const;

  /// plan_windows(...).predicted_savings, without building the windows.
  Joules predicted_savings(std::span<const Tick> accesses, Tick start,
                           Tick horizon) const;

  /// PRE-BUD: net benefit (Joules) of moving one file to the buffer disk.
  /// `disk_accesses` are all future accesses of the file's data disk,
  /// `file_accesses` the subset belonging to the candidate file (both
  /// sorted).  The copy is one random read of `file_bytes` on the data
  /// disk plus one sequential write on `buffer`.
  Joules prefetch_benefit(std::span<const Tick> disk_accesses,
                          std::span<const Tick> file_accesses,
                          Bytes file_bytes, Tick start, Tick horizon,
                          const disk::DiskProfile& buffer) const;

  const disk::DiskProfile& profile() const { return profile_; }

 private:
  /// Calls `take(begin, end, savings)` for each profitable idle window of
  /// `accesses` over [start, horizon], in time order.
  template <typename Take>
  void for_each_window(std::span<const Tick> accesses, Tick start,
                       Tick horizon, Take take) const;

  const disk::DiskProfile& profile_;
  Tick min_gap_;
};

}  // namespace eevfs::core
