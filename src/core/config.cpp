#include "core/config.hpp"

#include <stdexcept>

#include "trace/record.hpp"

namespace eevfs::core {

std::string to_string(PowerPolicy p) {
  switch (p) {
    case PowerPolicy::kNone: return "none";
    case PowerPolicy::kIdleTimer: return "idle_timer";
    case PowerPolicy::kPredictive: return "predictive";
    case PowerPolicy::kHints: return "hints";
    case PowerPolicy::kOracle: return "oracle";
  }
  return "?";
}

std::string to_string(CachePolicy p) {
  switch (p) {
    case CachePolicy::kPrefetch: return "prefetch";
    case CachePolicy::kLruOnMiss: return "lru_on_miss";
    case CachePolicy::kNone: return "none";
  }
  return "?";
}

std::string to_string(DiskPlacement p) {
  switch (p) {
    case DiskPlacement::kRoundRobin: return "round_robin";
    case DiskPlacement::kConcentrate: return "concentrate";
  }
  return "?";
}

std::string to_string(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kPopularityRoundRobin: return "popularity_rr";
    case PlacementPolicy::kRandom: return "random";
    case PlacementPolicy::kSizeBalanced: return "size_balanced";
  }
  return "?";
}

bool ClusterConfig::is_type2(NodeId node) const {
  return node % kType2Stride == kType2Stride - 1;
}

disk::DiskProfile ClusterConfig::node_disk_profile(NodeId node) const {
  if (disk_profile_override) return *disk_profile_override;
  return is_type2(node) ? disk::DiskProfile::ata133_slow()
                        : disk::DiskProfile::ata133_fast();
}

double ClusterConfig::node_nic_mbps(NodeId node) const {
  return is_type2(node) ? kType2NicMbps : kType1NicMbps;
}

void ClusterConfig::validate() const {
  if (num_storage_nodes == 0) {
    throw std::invalid_argument("ClusterConfig: need at least one node");
  }
  if (data_disks_per_node == 0) {
    throw std::invalid_argument("ClusterConfig: need at least one data disk");
  }
  if (buffer_disks_per_node == 0 &&
      (cache_policy != CachePolicy::kNone || write_buffering)) {
    throw std::invalid_argument(
        "ClusterConfig: caching/write buffering requires a buffer disk");
  }
  if (num_clients == 0) {
    throw std::invalid_argument("ClusterConfig: need at least one client");
  }
  if (num_clients > trace::kMaxClients) {
    throw std::invalid_argument(
        "ClusterConfig: more clients than 16-bit client ids can name");
  }
  if (idle_threshold_sec < 0.0 || sleep_margin < 0.0) {
    throw std::invalid_argument("ClusterConfig: negative power parameters");
  }
  if (node_base_watts < 0.0) {
    throw std::invalid_argument("ClusterConfig: negative base power");
  }
  if (online_popularity && refresh_interval_sec <= 0.0) {
    throw std::invalid_argument(
        "ClusterConfig: refresh_interval_sec must be positive");
  }
  if (stripe_width == 0) {
    throw std::invalid_argument("ClusterConfig: stripe_width must be >= 1");
  }
  if (nic_efficiency <= 0.0 || nic_efficiency > 1.0) {
    throw std::invalid_argument("ClusterConfig: nic_efficiency in (0, 1]");
  }
  if (replication_degree == 0) {
    throw std::invalid_argument("ClusterConfig: replication_degree >= 1");
  }
  if (replication_degree > num_storage_nodes) {
    throw std::invalid_argument(
        "ClusterConfig: replication_degree exceeds node count");
  }
  if (request_timeout_sec < 0.0) {
    throw std::invalid_argument("ClusterConfig: negative request_timeout_sec");
  }
  if (fault_plan.network_drop_prob < 0.0 ||
      fault_plan.network_drop_prob >= 1.0) {
    throw std::invalid_argument(
        "ClusterConfig: network_drop_prob must be in [0, 1)");
  }
  if (fault_plan.network_drop_prob > 0.0 && request_timeout_sec <= 0.0) {
    throw std::invalid_argument(
        "ClusterConfig: network drops require request_timeout_sec > 0 "
        "(dropped requests would strand the run)");
  }
  if ((ec_n == 0) != (ec_k == 0)) {
    throw std::invalid_argument(
        "ClusterConfig: ec_n and ec_k must be set together (or both 0)");
  }
  if (ec_n > 0) {
    if (ec_k < 1 || ec_n <= ec_k) {
      throw std::invalid_argument(
          "ClusterConfig: erasure coding needs n > k >= 1");
    }
    if (ec_n > num_storage_nodes) {
      throw std::invalid_argument(
          "ClusterConfig: ec_n exceeds node count (chunks must land on "
          "distinct nodes)");
    }
    if (replication_degree > 1) {
      throw std::invalid_argument(
          "ClusterConfig: erasure coding and replication are mutually "
          "exclusive");
    }
    if (ec_hedge_ms < 0.0) {
      throw std::invalid_argument("ClusterConfig: ec_hedge_ms must be >= 0");
    }
  }
}

}  // namespace eevfs::core
