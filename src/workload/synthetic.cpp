#include "workload/synthetic.hpp"

#include "util/string_util.hpp"
#include "workload/stream.hpp"

namespace eevfs::workload {

std::string SyntheticConfig::label() const {
  return format("synthetic[size=%.0fMB mu=%.0f ia=%.0fms n=%zu]",
                mean_data_size_mb, mu, inter_arrival_ms, num_requests);
}

Workload generate_synthetic(const SyntheticConfig& config) {
  // One implementation serves both paths: the materialized workload is a
  // drained SyntheticStream, so the streaming path is record-for-record
  // identical by construction (argument validation included).
  StreamingWorkload stream = make_synthetic_stream(config);
  Workload w;
  w.name = std::move(stream.name);
  w.file_sizes = std::move(stream.file_sizes);
  w.requests.reserve(stream.num_requests);
  auto pass = stream.open();
  trace::TraceRecord r;
  while (pass->next(&r)) w.requests.append(r);
  return w;
}

}  // namespace eevfs::workload
