#include "baseline/bud_simulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace eevfs::baseline {

std::vector<BlockRequest> generate_block_workload(
    const BlockWorkloadConfig& config) {
  if (config.num_blocks == 0 || config.num_requests == 0) {
    throw std::invalid_argument("generate_block_workload: empty config");
  }
  Rng root(config.seed);
  Rng pick = root.fork(1);
  Rng arrivals = root.fork(2);
  const ZipfDistribution zipf(config.num_blocks, config.zipf_alpha);

  std::vector<BlockRequest> out;
  out.reserve(config.num_requests);
  Tick at = 0;
  for (std::size_t i = 0; i < config.num_requests; ++i) {
    out.push_back(
        BlockRequest{at, static_cast<BlockId>(zipf(pick))});
    at += milliseconds_to_ticks(
        arrivals.exponential(config.mean_inter_arrival_ms));
  }
  return out;
}

std::string to_string(BudPolicy p) {
  switch (p) {
    case BudPolicy::kAlwaysOn: return "always_on";
    case BudPolicy::kDpmOnly: return "dpm_only";
    case BudPolicy::kPreBud: return "pre_bud";
  }
  return "?";
}

BudSimulator::BudSimulator(BudConfig config, BudPolicy policy)
    : config_(std::move(config)),
      policy_(policy),
      net_(sim_) {
  if (config_.data_disks == 0) {
    throw std::invalid_argument("BudSimulator: need data disks");
  }
  // One GigE link from the node to its one client.
  const double nic = net::mbps_to_bytes_per_sec(1000.0);
  const net::EndpointId node_ep = net_.add_endpoint("bud", nic);
  client_ = net_.add_endpoint("client", nic);
  core::NodeParams params;
  params.data_disks = config_.data_disks;
  params.disk_profile = config_.profile;
  params.power.policy = policy_ == BudPolicy::kAlwaysOn
                            ? core::PowerPolicy::kNone
                            : core::PowerPolicy::kIdleTimer;
  params.power.idle_threshold = config_.idle_threshold;
  params.power.sleep_margin = config_.sleep_margin;
  params.cache_policy = core::CachePolicy::kPrefetch;
  node_ = std::make_unique<core::StorageNode>(sim_, net_, node_ep,
                                              std::move(params), registry_);
}

void BudSimulator::consider_prefetch(BlockId block, std::size_t index) {
  if (std::find(accepted_.begin(), accepted_.end(), block) !=
      accepted_.end()) {
    return;  // buffered, or its copy is on the way
  }
  if (config_.buffer_capacity_blocks != 0 &&
      accepted_.size() >= config_.buffer_capacity_blocks) {
    return;
  }
  // Scan the look-ahead window for future accesses of this block and of
  // everything else on the same data disk (PRE-BUD's benefit input).
  const Tick now = sim_.now();
  const Tick horizon = now + config_.lookahead;
  const auto disk_of = [this](BlockId b) { return node_->data_disk_of(b); };
  const auto d = disk_of(block);
  std::vector<Tick> disk_accesses;
  std::vector<Tick> block_accesses;
  for (std::size_t i = index + 1; i < requests_->size(); ++i) {
    const BlockRequest& r = (*requests_)[i];
    if (r.arrival > horizon) break;
    if (disk_of(r.block) != d) continue;
    const Tick at = std::max(r.arrival, now);
    disk_accesses.push_back(at);
    if (r.block == block) block_accesses.push_back(at);
  }
  if (block_accesses.empty()) {
    ++stats_.prefetches_rejected;  // no reuse inside the window
    return;
  }
  const Joules benefit = node_->power_manager().model().prefetch_benefit(
      disk_accesses, block_accesses, config_.block_bytes, now, horizon,
      config_.profile);
  if (benefit <= 0.0) {
    ++stats_.prefetches_rejected;
    return;
  }
  // The node copies the block from its data disk (spinning: it is
  // serving this miss) into the buffer-disk log.
  accepted_.push_back(block);
  node_->update_prefetch(accepted_);
}

void BudSimulator::handle_request(std::size_t index) {
  const BlockRequest& req = (*requests_)[index];
  const Tick issued = sim_.now();
  const bool miss = !node_->is_buffered(req.block);
  node_->serve_read(req.block, client_,
                    [this, issued](Tick done, core::RequestStatus) {
                      stats_.response_time_sec.add(
                          ticks_to_seconds(done - issued));
                      --outstanding_;
                    });
  if (miss && policy_ == BudPolicy::kPreBud) {
    consider_prefetch(req.block, index);
  }
}

BudStats BudSimulator::run(const std::vector<BlockRequest>& requests) {
  if (ran_) throw std::logic_error("BudSimulator: single use");
  ran_ = true;
  if (requests.empty()) {
    throw std::invalid_argument("BudSimulator: empty request stream");
  }
  BlockId last_block = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i > 0 && requests[i].arrival < requests[i - 1].arrival) {
      throw std::invalid_argument("BudSimulator: requests must be sorted");
    }
    last_block = std::max(last_block, requests[i].block);
  }
  // Block b is the node's b-th file: round-robin puts it on data disk
  // b mod n.
  node_->expect_files(std::size_t{last_block} + 1);
  for (BlockId b = 0; b <= last_block; ++b) {
    node_->create_file(b, config_.block_bytes);
  }
  node_->plan_prefetch({});
  node_->begin_replay(0);

  requests_ = &requests;
  outstanding_ = requests.size();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    (void)sim_.schedule_at(requests[i].arrival,
                           [this, i] { handle_request(i); });
  }
  sim_.run();
  if (outstanding_ != 0) {
    throw std::logic_error("BudSimulator: requests left unserved");
  }

  // The run ends when the last idle timer has put its disk to sleep;
  // the node meters every disk up to then.
  stats_.makespan = sim_.now();
  const core::NodeMetrics m = node_->collect_metrics();
  stats_.data_disk_joules = m.data_disk_meter.total_joules();
  stats_.buffer_disk_joules = m.buffer_disk_meter.total_joules();
  stats_.total_joules = stats_.data_disk_joules + stats_.buffer_disk_joules;
  stats_.power_transitions = m.power_transitions();
  stats_.buffer_hits = registry_.counter("prefetch.buffer_hits.count").value();
  stats_.data_disk_reads =
      registry_.counter("prefetch.data_disk_reads.count").value();
  stats_.blocks_prefetched =
      registry_.counter("prefetch.bytes_prefetched.bytes").value() /
      config_.block_bytes;
  return stats_;
}

}  // namespace eevfs::baseline
