#include "core/energy_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace eevfs::core {

EnergyPredictionModel::EnergyPredictionModel(
    const disk::DiskProfile& profile, Tick idle_threshold, double sleep_margin)
    : profile_(profile) {
  const Tick margin_gap =
      seconds_to_ticks(sleep_margin * profile_.break_even_seconds());
  min_gap_ = std::max(idle_threshold, margin_gap);
}

Joules EnergyPredictionModel::idle_energy(Tick gap) const {
  return energy(profile_.idle_watts, gap);
}

Joules EnergyPredictionModel::sleep_energy(Tick gap) const {
  const Tick transition = profile_.spin_down_time + profile_.spin_up_time;
  if (gap < transition) return idle_energy(gap);
  return profile_.transition_energy() +
         energy(profile_.standby_watts, gap - transition);
}

Joules EnergyPredictionModel::savings(Tick gap) const {
  return std::max(0.0, idle_energy(gap) - sleep_energy(gap));
}

template <typename Take>
void EnergyPredictionModel::for_each_window(std::span<const Tick> accesses,
                                            Tick start, Tick horizon,
                                            Take take) const {
  Tick cursor = start;
  auto consider = [&](Tick begin, Tick end) {
    const Tick gap = end - begin;
    if (gap >= min_gap_ && savings(gap) > 0.0) take(begin, end, savings(gap));
  };
  for (const Tick a : accesses) {
    if (a > horizon) break;
    if (a > cursor) consider(cursor, a);
    cursor = std::max(cursor, a);
  }
  if (horizon > cursor) consider(cursor, horizon);
}

EnergyPredictionModel::Plan EnergyPredictionModel::plan_windows(
    std::span<const Tick> accesses, Tick start, Tick horizon) const {
  Plan plan;
  for_each_window(accesses, start, horizon,
                  [&](Tick begin, Tick end, Joules saved) {
                    plan.windows.emplace_back(begin, end);
                    plan.predicted_savings += saved;
                  });
  return plan;
}

Joules EnergyPredictionModel::predicted_savings(std::span<const Tick> accesses,
                                                Tick start,
                                                Tick horizon) const {
  Joules total = 0.0;
  for_each_window(accesses, start, horizon,
                  [&](Tick, Tick, Joules saved) { total += saved; });
  return total;
}

Joules EnergyPredictionModel::copy_cost(
    Bytes bytes, std::size_t width, const disk::DiskProfile& buffer) const {
  // The read is split over the stripe set (each disk moves bytes/W); the
  // buffer write is one sequential stream of the whole file.  Each is
  // priced at the *increment* over staying idle for that period (the
  // disks are powered either way).
  const auto w = static_cast<Bytes>(width);
  const Bytes per_disk = (bytes + w - 1) / w;
  const Tick read_time = profile_.service_time(per_disk, /*sequential=*/false);
  const Tick write_time = buffer.service_time(bytes, /*sequential=*/true);
  return static_cast<double>(width) *
             energy(profile_.active_watts - profile_.idle_watts, read_time) +
         energy(buffer.active_watts - buffer.idle_watts, write_time);
}

Joules EnergyPredictionModel::prefetch_benefit(
    std::span<const Tick> disk_accesses, std::span<const Tick> file_accesses,
    Bytes file_bytes, Tick start, Tick horizon,
    const disk::DiskProfile& buffer) const {
  std::vector<Tick> residual(disk_accesses.begin(), disk_accesses.end());
  remove_accesses(residual, file_accesses);
  assert(residual.size() + file_accesses.size() == disk_accesses.size() &&
         "file accesses must be a subset of disk accesses");

  const Joules before = predicted_savings(disk_accesses, start, horizon);
  const Joules after = predicted_savings(residual, start, horizon);
  return after - before - copy_cost(file_bytes, 1, buffer);
}

void remove_accesses(std::vector<Tick>& disk, std::span<const Tick> file) {
  std::size_t j = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < disk.size(); ++i) {
    if (j < file.size() && file[j] == disk[i]) {
      ++j;
      continue;
    }
    disk[kept++] = disk[i];
  }
  disk.resize(kept);
}

}  // namespace eevfs::core
