#include "workload/stream.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "workload/param_check.hpp"

namespace eevfs::workload {

SyntheticStream::SyntheticStream(
    const SyntheticConfig& config,
    std::shared_ptr<const std::vector<Bytes>> file_sizes)
    : config_(config),
      file_sizes_(std::move(file_sizes)),
      popularity_(config.mu),
      pop_rng_(Rng(config.seed).fork(2)),
      arrival_rng_(Rng(config.seed).fork(3)),
      client_rng_(Rng(config.seed).fork(4)) {}

bool SyntheticStream::next(trace::TraceRecord* out) {
  if (produced_ >= config_.num_requests) return false;
  trace::TraceRecord r;
  r.arrival = arrival_;
  const auto draw = static_cast<std::uint64_t>(popularity_(pop_rng_));
  r.file = static_cast<trace::FileId>(draw % config_.num_files);
  r.bytes = (*file_sizes_)[r.file];
  r.op = trace::Op::kRead;
  r.client =
      static_cast<trace::ClientId>(client_rng_.next_below(config_.num_clients));

  if (config_.inter_arrival_jitter > 0.0 && config_.inter_arrival_ms > 0.0) {
    // Blend a fixed gap with an exponential one: jitter=1 is Poisson
    // arrivals at the same mean rate.
    const double fixed =
        (1.0 - config_.inter_arrival_jitter) * config_.inter_arrival_ms;
    const double random = arrival_rng_.exponential(
        config_.inter_arrival_jitter * config_.inter_arrival_ms);
    arrival_ += milliseconds_to_ticks(fixed + random);
  } else {
    arrival_ += milliseconds_to_ticks(config_.inter_arrival_ms);
  }
  ++produced_;
  *out = r;
  return true;
}

StreamingWorkload make_synthetic_stream(const SyntheticConfig& config) {
  if (config.num_files == 0 || config.num_requests == 0 ||
      config.num_clients == 0) {
    throw std::invalid_argument("make_synthetic_stream: empty configuration");
  }
  constexpr const char* kWho = "make_synthetic_stream";
  require_size_mb(kWho, "mean_data_size_mb", config.mean_data_size_mb,
                  config.num_requests);
  require_param(kWho, "size_sigma", config.size_sigma,
                config.size_sigma >= 0.0, "non-negative");
  require_param(kWho, "mu", config.mu, config.mu > 0.0, "positive");
  require_param(kWho, "inter_arrival_jitter", config.inter_arrival_jitter,
                config.inter_arrival_jitter >= 0.0 &&
                    config.inter_arrival_jitter <= 1.0,
                "in [0, 1]");
  require_gap_ms(kWho, config.inter_arrival_ms, config.inter_arrival_jitter,
                 config.num_requests);
  if (config.num_clients > trace::kMaxClients) {
    throw std::invalid_argument(
        "make_synthetic_stream: more clients than 16-bit client ids can name");
  }

  Rng size_rng = Rng(config.seed).fork(1);
  // eevfs-lint: allow(U2) fractional mean of the size model, not a count
  const double mean_bytes =
      config.mean_data_size_mb * static_cast<double>(kMB);
  auto sizes = std::make_shared<std::vector<Bytes>>(
      config.num_files, static_cast<Bytes>(std::max(1.0, mean_bytes)));
  if (config.size_sigma > 0.0) {
    const LognormalDistribution size(mean_bytes, config.size_sigma);
    // A draw far out in the tail is cut to the size at which every
    // request could read it without passing kMaxTotalBytes.
    const double largest =
        kMaxTotalBytes / static_cast<double>(config.num_requests);
    for (auto& s : *sizes) {
      s = static_cast<Bytes>(std::min(std::max(1.0, size(size_rng)), largest));
    }
  }

  StreamingWorkload w;
  w.name = config.label();
  w.file_sizes = *sizes;
  w.num_requests = config.num_requests;
  w.open = [config, sizes] {
    return std::make_unique<SyntheticStream>(config, sizes);
  };
  return w;
}

}  // namespace eevfs::workload
