// Synthetic workload generator covering the paper's Table II parameter
// space: mean data size {1,10,25,50} MB, file popularity "MU" value
// {1,10,100,1000}, inter-arrival delay {0,350,700,1000} ms, over a
// 1000-file file system.
//
// Popularity model: the paper feeds the storage server "the MU value for
// the Poisson distribution of file requests", with MU=1 "skewing the file
// access patterns to a small number of files" and MU=1000 "spreading out
// the distribution".  We therefore draw each request's file id from
// Poisson(MU) (σ = √MU ⇒ working-set width grows with MU) and wrap mod
// num_files.  This reproduces the paper's observation that a 70-file
// prefetch covers the whole working set for MU ≤ 100 but not for
// MU = 1000 (§VI-A).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace eevfs::workload {

/// A generated workload: the request trace plus the per-file sizes the
/// storage server needs for placement.
struct Workload {
  std::string name;
  trace::Trace requests;
  std::vector<Bytes> file_sizes;  // indexed by FileId

  std::size_t num_files() const { return file_sizes.size(); }
};

struct SyntheticConfig {
  std::size_t num_files = 1000;       // paper: "1000 files for testing"
  std::size_t num_requests = 1000;
  double mean_data_size_mb = 10.0;    // Table II: 1, 10, 25, 50
  double size_sigma = 0.0;            // 0 = all files exactly the mean;
                                      // >0 = lognormal dispersion
  double mu = 1000.0;                 // Table II: 1, 10, 100, 1000
  double inter_arrival_ms = 700.0;    // Table II: 0, 350, 700, 1000
  double inter_arrival_jitter = 0.0;  // 0 = fixed spacing; 1 = exponential
  /// Requests are replayed closed-loop per client; with the cluster's
  /// default of four client nodes the trace spacing is preserved unless
  /// service times exceed 4x the inter-arrival delay.  At most
  /// trace::kMaxClients.
  std::size_t num_clients = 4;
  std::uint64_t seed = 42;

  /// Human-readable tag used in bench CSV outputs.
  std::string label() const;
};

Workload generate_synthetic(const SyntheticConfig& config);

}  // namespace eevfs::workload
