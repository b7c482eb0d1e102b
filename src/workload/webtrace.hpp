// Berkeley-web-trace-like workload (paper §VI-D / Fig. 6).
//
// Substitution note: the paper replays "a section of the web trace
// collection" from the Berkeley file-system workload study
// (UCB/CSD-98-1029) but overrides both the data size (10 MB) and the
// inter-arrival delay, keeping only the *access pattern*; it observes the
// pattern is "skewed towards a smaller subset of data" (all data disks
// slept for the whole run).  The real trace files are not
// redistributable, so this generator synthesises a trace with the same
// exploited property: Zipf-skewed accesses over a small working set, with
// session-like bursts typical of web workloads.
#pragma once

#include <cstdint>
#include <string>

#include "workload/synthetic.hpp"

namespace eevfs::workload {

struct WebTraceConfig {
  std::size_t num_files = 1000;
  std::size_t num_requests = 1000;
  double data_size_mb = 10.0;      // paper fixes 10 MB for Fig. 6
  double inter_arrival_ms = 700.0; // paper tuned this to avoid queueing
  std::size_t working_set = 60;    // #distinct files that receive accesses
  double zipf_alpha = 0.98;        // web-workload skew (Breslau et al.)
  double burstiness = 0.3;         // fraction of requests in bursts
  std::size_t num_clients = 4;     // at most trace::kMaxClients
  std::uint64_t seed = 7;

  std::string label() const;
};

/// Throws std::invalid_argument, naming the field, for an out-of-range
/// configuration (a non-finite parameter included).
Workload generate_webtrace(const WebTraceConfig& config);

}  // namespace eevfs::workload
