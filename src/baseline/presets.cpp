#include "baseline/presets.hpp"

namespace eevfs::baseline {

using core::CachePolicy;
using core::ClusterConfig;
using core::DiskPlacement;
using core::PowerPolicy;

ClusterConfig eevfs_pf() {
  return ClusterConfig{};  // defaults are the paper's testbed
}

ClusterConfig eevfs_npf() {
  ClusterConfig c;
  c.cache_policy = CachePolicy::kNone;
  // Without a prefetch plan the node marks no standby points (§III-C):
  // the paper's NPF runs show no power-state transitions.
  c.power_policy = PowerPolicy::kNone;
  return c;
}

ClusterConfig maid() {
  ClusterConfig c;
  // No offline popularity knowledge: the buffer caches on access.
  c.cache_policy = CachePolicy::kLruOnMiss;
  c.power_policy = PowerPolicy::kIdleTimer;
  c.prebud_gate = false;
  return c;
}

ClusterConfig pdc() {
  ClusterConfig c;
  c.cache_policy = CachePolicy::kNone;
  c.disk_placement = DiskPlacement::kConcentrate;
  c.power_policy = PowerPolicy::kPredictive;
  return c;
}

ClusterConfig always_on() {
  ClusterConfig c;
  c.cache_policy = CachePolicy::kNone;
  c.power_policy = PowerPolicy::kNone;
  c.write_buffering = false;
  return c;
}

ClusterConfig oracle() {
  ClusterConfig c = eevfs_pf();
  c.power_policy = PowerPolicy::kOracle;
  return c;
}

ClusterConfig drpm() {
  ClusterConfig c;
  c.cache_policy = CachePolicy::kNone;
  c.disk_profile_override = disk::DiskProfile::drpm();
  // Tiny break-even: a short idle threshold pays off, no look-ahead
  // needed — exactly why multi-speed hardware makes DPM easy.
  c.power_policy = PowerPolicy::kIdleTimer;
  c.idle_threshold_sec = 2.0;
  return c;
}

std::vector<NamedConfig> all_presets() {
  return {
      {"always_on", always_on()}, {"eevfs_npf", eevfs_npf()},
      {"maid", maid()},           {"pdc", pdc()},
      {"drpm", drpm()},           {"eevfs_pf", eevfs_pf()},
      {"oracle", oracle()},
  };
}

}  // namespace eevfs::baseline
