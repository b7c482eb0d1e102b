// Regenerates Table I: the testbed configuration — printed from the
// model parameters, then *validated* by measuring the modelled disks and
// NICs inside the simulator (achieved bandwidth must match the rated
// figures the paper lists).
#include <cstdio>

#include "disk/disk_model.hpp"
#include "harness.hpp"
#include "net/network.hpp"
#include "sim/engine.hpp"

using namespace eevfs;

namespace {

/// Streams 64 x 16 MB sequential reads through a DiskModel and reports
/// the achieved MB/s (transfer-dominated, like a dd run).
double measure_disk_bandwidth(const disk::DiskProfile& profile) {
  sim::Simulator sim;
  disk::DiskModel d(sim, profile, "probe");
  constexpr Bytes kChunk = 16 * kMB;
  constexpr int kChunks = 64;
  for (int i = 0; i < kChunks; ++i) {
    disk::DiskRequest req;
    req.bytes = kChunk;
    req.sequential = true;
    d.submit(std::move(req));
  }
  sim.run();
  return static_cast<double>(kChunk) * kChunks /
         ticks_to_seconds(sim.now()) / static_cast<double>(kMB);
}

double measure_nic_bandwidth(double mbps) {
  sim::Simulator sim;
  net::NetworkFabric net(sim);
  const auto a = net.add_endpoint("a", net::mbps_to_bytes_per_sec(mbps));
  const auto b = net.add_endpoint("b", net::mbps_to_bytes_per_sec(mbps));
  Tick done = 0;
  net.send(a, b, 100 * kMB, [&](Tick t) { done = t; });
  sim.run();
  return 100.0 * static_cast<double>(kMB) / ticks_to_seconds(done) * 8.0 /
         static_cast<double>(kMB);  // Mb/s
}

void print_profile(const char* role, const disk::DiskProfile& p,
                   double nic_mbps) {
  std::printf("%-22s %-10s %6.0f GB %10.1f MB/s (measured %.1f) %9.0f Mb/s "
              "(measured %.0f)\n",
              role, p.name.substr(0, 7).c_str(),
              bytes_to_gb(p.capacity),
              p.bandwidth_bytes_per_sec / static_cast<double>(kMB), measure_disk_bandwidth(p),
              nic_mbps, measure_nic_bandwidth(nic_mbps));
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  bench::banner("Table I", "testbed configuration (modelled vs measured)",
                "");
  std::printf("%-22s %-10s %9s %28s %24s\n", "node", "disk", "capacity",
              "disk bandwidth", "NIC");
  const core::ClusterConfig cfg = bench::paper_config();
  print_profile("storage server", disk::DiskProfile::sata_server(),
                core::kServerNicMbps);
  print_profile("storage node type 1", disk::DiskProfile::ata133_fast(),
                core::kType1NicMbps);
  print_profile("storage node type 2", disk::DiskProfile::ata133_slow(),
                core::kType2NicMbps);

  std::printf("\npower model (calibrated; the paper metered wall power):\n");
  const disk::DiskProfile p = disk::DiskProfile::ata133_fast();
  std::printf("  disk: active %.1f W, idle %.1f W, standby %.1f W\n",
              p.active_watts, p.idle_watts, p.standby_watts);
  std::printf("  transitions: spin-up %.1f W x %.1f s, spin-down %.1f W x "
              "%.1f s => %.1f J per cycle\n",
              p.spin_up_watts, ticks_to_seconds(p.spin_up_time),
              p.spin_down_watts, ticks_to_seconds(p.spin_down_time),
              p.transition_energy());
  std::printf("  break-even idle window: %.1f s (idle threshold: %.1f s)\n",
              p.break_even_seconds(), cfg.idle_threshold_sec);
  std::printf("  node base power: %.1f W; %zu nodes x (%zu data + 1 "
              "buffer disks)\n",
              cfg.node_base_watts, cfg.num_storage_nodes,
              cfg.data_disks_per_node);
  std::printf("  spin-up time matches the paper's quoted ~2 s average "
              "(§VI-C)\n");

  // Service-time sanity: the response-time floor for a 10 MB request.
  std::printf("\nservice-time model for one 10 MB request:\n");
  const disk::DiskProfile fast = disk::DiskProfile::ata133_fast();
  const disk::DiskProfile slow = disk::DiskProfile::ata133_slow();
  std::printf("  type 1: disk %.0f ms + 1 Gb/s transfer %.0f ms\n",
              ticks_to_seconds(fast.service_time(10 * kMB, false)) * kMillisPerSecond,
              10.0 * static_cast<double>(kMB) /
                  (net::mbps_to_bytes_per_sec(core::kType1NicMbps) * cfg.nic_efficiency) *
                  kMillisPerSecond);
  std::printf("  type 2: disk %.0f ms + 100 Mb/s transfer %.0f ms\n",
              ticks_to_seconds(slow.service_time(10 * kMB, false)) * kMillisPerSecond,
              10.0 * static_cast<double>(kMB) /
                  (net::mbps_to_bytes_per_sec(core::kType2NicMbps) * cfg.nic_efficiency) *
                  kMillisPerSecond);
  return 0;
}
