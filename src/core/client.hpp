// A compute-node client: issues file requests against the storage server
// and records response times.  Replay is closed loop per client
// (Cluster::start_replay): a client issues its next record at the
// record's trace arrival time, but never before its previous request
// completed, so slow service stretches the run (Fig. 3a at 50 MB).
#pragma once

#include "net/network.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace eevfs::core {

class Client {
 public:
  explicit Client(net::EndpointId endpoint) : endpoint_(endpoint) {}

  net::EndpointId endpoint() const { return endpoint_; }

  /// Records one completed request.
  void record_response(Tick issued, Tick completed) {
    stats_.add(ticks_to_seconds(completed - issued));
  }

  const OnlineStats& response_stats() const { return stats_; }

 private:
  net::EndpointId endpoint_;
  OnlineStats stats_;
};

}  // namespace eevfs::core
