// A compute-node client: issues file requests against the storage server
// and records response times.  Replay is closed loop per client
// (Cluster::start_replay): a client issues its next record at the
// record's trace arrival time, but never before its previous request
// completed, so slow service stretches the run (Fig. 3a at 50 MB).
#pragma once

#include <cstdint>

#include "net/network.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace eevfs::core {

class Client {
 public:
  Client(net::EndpointId endpoint, std::uint32_t id)
      : endpoint_(endpoint), id_(id) {}

  net::EndpointId endpoint() const { return endpoint_; }
  std::uint32_t id() const { return id_; }

  /// Records one completed request.
  void record_response(Tick issued, Tick completed) {
    const double seconds = ticks_to_seconds(completed - issued);
    stats_.add(seconds);
    percentiles_.add(seconds);
  }

  const OnlineStats& response_stats() const { return stats_; }
  const PercentileTracker& percentiles() const { return percentiles_; }

 private:
  net::EndpointId endpoint_;
  std::uint32_t id_;
  OnlineStats stats_;
  PercentileTracker percentiles_;
};

}  // namespace eevfs::core
