#include "workload/webtrace.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/string_util.hpp"
#include "workload/param_check.hpp"

namespace eevfs::workload {

std::string WebTraceConfig::label() const {
  return format("webtrace[ws=%zu alpha=%.2f n=%zu]", working_set, zipf_alpha,
                num_requests);
}

Workload generate_webtrace(const WebTraceConfig& config) {
  if (config.working_set == 0 || config.working_set > config.num_files) {
    throw std::invalid_argument("generate_webtrace: bad working set");
  }
  constexpr const char* kWho = "generate_webtrace";
  require_size_mb(kWho, "data_size_mb", config.data_size_mb,
                  config.num_requests);
  // A burst gap is shorter than inter_arrival_ms, the longest gap.
  require_gap_ms(kWho, config.inter_arrival_ms, /*jitter=*/0.0,
                 config.num_requests);
  require_param(kWho, "zipf_alpha", config.zipf_alpha,
                config.zipf_alpha >= 0.0, "non-negative");
  require_param(kWho, "burstiness", config.burstiness,
                config.burstiness >= 0.0 && config.burstiness < 1.0,
                "in [0, 1)");
  if (config.num_clients == 0) {
    throw std::invalid_argument("generate_webtrace: no clients");
  }
  if (config.num_clients > trace::kMaxClients) {
    throw std::invalid_argument(
        "generate_webtrace: more clients than 16-bit client ids can name");
  }

  Workload w;
  w.name = config.label();

  Rng root(config.seed);
  Rng pick_rng = root.fork(1);
  Rng arrival_rng = root.fork(2);
  Rng client_rng = root.fork(3);
  Rng shuffle_rng = root.fork(4);

  const auto bytes =
      static_cast<Bytes>(config.data_size_mb * static_cast<double>(kMB));
  w.file_sizes.assign(config.num_files, bytes);

  // The hot files are scattered over the id space, as they would be in a
  // real file system — placement quality must come from popularity
  // analysis, not from id locality.
  std::vector<trace::FileId> hot(config.num_files);
  std::iota(hot.begin(), hot.end(), trace::FileId{0});
  for (std::size_t i = hot.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(shuffle_rng.next_below(i + 1));
    std::swap(hot[i], hot[j]);
  }
  hot.resize(config.working_set);

  const ZipfDistribution zipf(config.working_set, config.zipf_alpha);

  w.requests.reserve(config.num_requests);
  Tick arrival = 0;
  for (std::size_t i = 0; i < config.num_requests; ++i) {
    trace::TraceRecord r;
    r.arrival = arrival;
    r.file = hot[zipf(pick_rng)];
    r.bytes = w.file_sizes[r.file];
    r.op = trace::Op::kRead;
    r.client = static_cast<trace::ClientId>(
        client_rng.next_below(config.num_clients));
    w.requests.append(r);

    // Session bursts: a burst request follows quickly; otherwise space by
    // the configured inter-arrival delay.
    if (arrival_rng.next_double() < config.burstiness) {
      arrival += milliseconds_to_ticks(
          arrival_rng.uniform(0.1 * config.inter_arrival_ms,
                              0.3 * config.inter_arrival_ms));
    } else {
      arrival += milliseconds_to_ticks(config.inter_arrival_ms);
    }
  }
  return w;
}

}  // namespace eevfs::workload
