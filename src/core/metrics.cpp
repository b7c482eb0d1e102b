#include "core/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace eevfs::core {

double RunMetrics::duty_cycles_per_disk_hour(
    std::size_t num_data_disks) const {
  if (num_data_disks == 0 || makespan <= 0) return 0.0;
  const double hours = ticks_to_seconds(makespan) / 3600.0;
  return static_cast<double>(spin_downs) /
         static_cast<double>(num_data_disks) / hours;
}

double RunMetrics::energy_gain_vs(const RunMetrics& baseline) const {
  if (baseline.total_joules <= 0.0) return 0.0;
  return (baseline.total_joules - total_joules) / baseline.total_joules;
}

double RunMetrics::response_penalty_vs(const RunMetrics& baseline) const {
  if (baseline.response_time_sec.mean() <= 0.0) return 0.0;
  return response_time_sec.mean() / baseline.response_time_sec.mean() - 1.0;
}

const obs::Sample& RunMetrics::metric(std::string_view name) const {
  const auto it = std::lower_bound(
      counters.begin(), counters.end(), name,
      [](const obs::Sample& s, std::string_view key) { return s.name < key; });
  if (it == counters.end() || it->name != name) {
    throw std::out_of_range("RunMetrics: no metric named " +
                            std::string(name));
  }
  return *it;
}

double RunMetrics::availability() const {
  const std::uint64_t failed = count("client.failed_requests.count");
  return requests == 0 ? 1.0
                       : 1.0 - static_cast<double>(failed) /
                                   static_cast<double>(requests);
}

std::uint64_t RunMetrics::retried_requests() const {
  return count("client.retried_requests.count") +
         count("server.requests_rerouted.count");
}

double RunMetrics::recovery_mttr_sec() const {
  const std::uint64_t episodes = count("recovery.episodes.count");
  return episodes == 0
             ? 0.0
             : ticks_to_seconds(static_cast<Tick>(
                   metric("recovery.mttr.us").sum)) /
                   static_cast<double>(episodes);
}

double RunMetrics::heartbeat_mttr_sec() const {
  const std::uint64_t episodes = count("server.heartbeat_recoveries.count");
  return episodes == 0
             ? 0.0
             : ticks_to_seconds(static_cast<Tick>(
                   count("server.recovered_dead_time.us"))) /
                   static_cast<double>(episodes);
}

}  // namespace eevfs::core
