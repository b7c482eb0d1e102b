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

Joules EnergyPredictionModel::prefetch_benefit(
    std::span<const Tick> disk_accesses, std::span<const Tick> file_accesses,
    Bytes file_bytes, Tick start, Tick horizon,
    const disk::DiskProfile& buffer) const {
  // Residual accesses = disk accesses minus the candidate file's
  // (multiset difference over two sorted sequences).
  std::vector<Tick> residual;
  residual.reserve(disk_accesses.size());
  std::size_t j = 0;
  for (const Tick a : disk_accesses) {
    if (j < file_accesses.size() && file_accesses[j] == a) {
      ++j;
      continue;
    }
    residual.push_back(a);
  }
  assert(j == file_accesses.size() &&
         "file accesses must be a subset of disk accesses");

  const Joules before = predicted_savings(disk_accesses, start, horizon);
  const Joules after = predicted_savings(residual, start, horizon);

  // Copy cost: the data disk does one random read, the buffer disk one
  // sequential write; each is priced at the *increment* over staying
  // idle for that period (the disks are powered either way).
  const Tick read_time = profile_.service_time(file_bytes, /*sequential=*/false);
  const Tick write_time = buffer.service_time(file_bytes, /*sequential=*/true);
  const Joules copy_cost =
      energy(profile_.active_watts - profile_.idle_watts, read_time) +
      energy(buffer.active_watts - buffer.idle_watts, write_time);

  return after - before - copy_cost;
}

}  // namespace eevfs::core
