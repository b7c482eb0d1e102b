#include "fault/fault_injector.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace eevfs::fault {

namespace {

FaultSpec make_spec(double at_sec, FaultKind kind, std::size_t node,
                    bool buffer, std::size_t disk, std::uint64_t param) {
  FaultSpec s;
  s.at_sec = at_sec;
  s.kind = kind;
  s.node = node;
  s.buffer_disk = buffer;
  s.disk = disk;
  s.param = param;
  return s;
}

}  // namespace

FaultPlan& FaultPlan::fail_data_disk(double at_sec, std::size_t node,
                                     std::size_t disk) {
  events.push_back(make_spec(at_sec, FaultKind::kDiskFailure, node,
                             /*buffer=*/false, disk, 0));
  return *this;
}

FaultPlan& FaultPlan::fail_buffer_disk(double at_sec, std::size_t node,
                                       std::size_t disk) {
  events.push_back(make_spec(at_sec, FaultKind::kDiskFailure, node,
                             /*buffer=*/true, disk, 0));
  return *this;
}

FaultPlan& FaultPlan::flake_spin_up(double at_sec, std::size_t node,
                                    std::size_t disk, std::uint64_t retries) {
  events.push_back(make_spec(at_sec, FaultKind::kSpinUpFlake, node,
                             /*buffer=*/false, disk, retries));
  return *this;
}

FaultPlan& FaultPlan::latent_read_errors(double at_sec, std::size_t node,
                                         std::size_t disk,
                                         std::uint64_t count) {
  events.push_back(make_spec(at_sec, FaultKind::kLatentReadErrors, node,
                             /*buffer=*/false, disk, count));
  return *this;
}

FaultPlan& FaultPlan::crash_node(double at_sec, std::size_t node) {
  events.push_back(make_spec(at_sec, FaultKind::kNodeCrash, node,
                             /*buffer=*/false, 0, 0));
  return *this;
}

FaultPlan& FaultPlan::restart_node(double at_sec, std::size_t node) {
  events.push_back(make_spec(at_sec, FaultKind::kNodeRestart, node,
                             /*buffer=*/false, 0, 0));
  return *this;
}

FaultPlan& FaultPlan::fail_node_pair(double at_sec, std::size_t a,
                                     std::size_t b, double downtime_sec) {
  if (a == b) {
    throw std::invalid_argument("fail_node_pair: nodes must differ");
  }
  if (downtime_sec <= 0.0) {
    throw std::invalid_argument("fail_node_pair: downtime must be > 0");
  }
  const double quarter = downtime_sec * 0.25;
  crash_node(at_sec, a);
  crash_node(at_sec + quarter, b);
  restart_node(at_sec + downtime_sec, a);
  restart_node(at_sec + quarter + downtime_sec, b);
  return *this;
}

FaultPlan random_data_disk_failures(std::uint64_t seed, double horizon_sec,
                                    std::size_t nodes,
                                    std::size_t data_disks_per_node,
                                    std::size_t count) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(Rng(seed).fork(0xFA17));
  for (std::size_t i = 0; i < count; ++i) {
    // Keep failures off t=0 so the prefetch phase has started.
    const double at = horizon_sec * (0.05 + 0.9 * rng.next_double());
    const auto node = static_cast<std::size_t>(rng.next_below(nodes));
    const auto disk =
        static_cast<std::size_t>(rng.next_below(data_disks_per_node));
    plan.fail_data_disk(at, node, disk);
  }
  return plan;
}

FaultPlan random_crash_schedule(std::uint64_t seed, double horizon_sec,
                                std::size_t nodes, std::size_t count,
                                double downtime_sec) {
  FaultPlan plan;
  plan.seed = seed;
  Rng rng(Rng(seed).fork(0xC0A5));
  // Last scheduled restart per node, so a node is never crashed again
  // while it is still down (crash-on-crashed is a no-op anyway, but the
  // paired restart would then revive the *second* crash's node early).
  std::vector<double> busy_until(nodes, 0.0);
  for (std::size_t i = 0; i < count; ++i) {
    // Keep crashes off t=0 so the prefetch phase has started, and leave
    // room for the restart inside the horizon.
    const double at = horizon_sec * (0.05 + 0.85 * rng.next_double());
    const auto node = static_cast<std::size_t>(rng.next_below(nodes));
    if (at <= busy_until[node]) continue;  // deterministic skip, no reroll
    busy_until[node] = at + downtime_sec;
    plan.crash_node(at, node);
    plan.restart_node(at + downtime_sec, node);
  }
  return plan;
}

namespace {

[[noreturn]] void plan_error(std::size_t line, const std::string& what) {
  throw std::invalid_argument("fault plan line " + std::to_string(line) +
                              ": " + what);
}

}  // namespace

FaultPlan parse_fault_plan(std::string_view text) {
  FaultPlan plan;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string line(text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos));
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.erase(hash);
    }
    std::istringstream in(line);
    std::string op;
    if (!(in >> op)) continue;  // blank or comment-only line
    double at = 0.0;
    std::size_t node = 0, disk = 0;
    std::uint64_t param = 0;
    auto want = [&](auto&... args) {
      if (!((in >> args) && ...)) plan_error(line_no, "malformed operands");
    };
    if (op == "crash") {
      want(at, node);
      plan.crash_node(at, node);
    } else if (op == "restart") {
      want(at, node);
      plan.restart_node(at, node);
    } else if (op == "fail_node_pair") {
      std::size_t node_b = 0;
      double downtime = 0.0;
      want(at, node, node_b, downtime);
      plan.fail_node_pair(at, node, node_b, downtime);
    } else if (op == "fail_data_disk") {
      want(at, node, disk);
      plan.fail_data_disk(at, node, disk);
    } else if (op == "fail_buffer_disk") {
      want(at, node, disk);
      plan.fail_buffer_disk(at, node, disk);
    } else if (op == "flake_spin_up") {
      want(at, node, disk, param);
      plan.flake_spin_up(at, node, disk, param);
    } else if (op == "latent_read_errors") {
      want(at, node, disk, param);
      plan.latent_read_errors(at, node, disk, param);
    } else if (op == "drop_prob") {
      want(at);
      plan.network_drop_prob = at;
    } else if (op == "seed") {
      want(param);
      plan.seed = param;
    } else {
      plan_error(line_no, "unknown directive '" + op + "'");
    }
    std::string extra;
    if (in >> extra) plan_error(line_no, "trailing operands");
  }
  return plan;
}

FaultInjector::FaultInjector(sim::Simulator& sim, FaultPlan plan)
    : sim_(sim), plan_(std::move(plan)) {
  drop_stream_ = plan_.seed ^ 0x9E3779B97F4A7C15ULL;
}

void FaultInjector::arm(net::NetworkFabric* net, Targets targets) {
  targets_ = std::move(targets);
  if (net != nullptr && plan_.network_drop_prob > 0.0) {
    const double prob = plan_.network_drop_prob;
    net->set_drop_hook([this, prob](net::EndpointId, net::EndpointId, Bytes) {
      const double draw =
          static_cast<double>(splitmix64(drop_stream_) >> 11) * 0x1.0p-53;
      const bool drop = draw < prob;
      if (drop) ++messages_dropped_;
      return drop;
    });
  }
  for (const FaultSpec& spec : plan_.events) {
    (void)sim_.schedule_at(seconds_to_ticks(spec.at_sec),
                     [this, spec] { apply(spec); });
  }
}

void FaultInjector::set_observer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_) {
    track_ = tracer_->intern("fault-injector");
    ev_inject_ = tracer_->intern("fault.inject");
  }
}

void FaultInjector::apply(const FaultSpec& spec) {
  switch (spec.kind) {
    case FaultKind::kDiskFailure:
    case FaultKind::kSpinUpFlake:
    case FaultKind::kLatentReadErrors: {
      disk::DiskModel* d =
          targets_.disk_of
              ? targets_.disk_of(spec.node, spec.buffer_disk, spec.disk)
              : nullptr;
      if (d == nullptr) {
        ++faults_misaddressed_;
        return;
      }
      if (spec.kind == FaultKind::kDiskFailure) {
        d->fail();
      } else if (spec.kind == FaultKind::kSpinUpFlake) {
        d->inject_spin_up_flakes(static_cast<std::uint32_t>(spec.param));
      } else {
        d->inject_read_errors(spec.param);
      }
      break;
    }
    case FaultKind::kNodeCrash:
      if (!targets_.crash_node) {
        ++faults_misaddressed_;
        return;
      }
      targets_.crash_node(spec.node);
      break;
    case FaultKind::kNodeRestart:
      if (!targets_.restart_node) {
        ++faults_misaddressed_;
        return;
      }
      targets_.restart_node(spec.node);
      break;
  }
  ++faults_injected_;
  ++injected_by_kind_[static_cast<std::size_t>(spec.kind)];
  if (tracer_ && tracer_->wants(obs::kCatFault)) {
    tracer_->instant(sim_.now(), obs::kCatFault, obs::TraceLevel::kInfo,
                     ev_inject_, track_, tracer_->intern(to_string(spec.kind)),
                     static_cast<std::int64_t>(spec.node),
                     static_cast<std::int64_t>(spec.param));
  }
}

}  // namespace eevfs::fault
