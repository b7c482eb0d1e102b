// Multi-tier extension bench: the three-tier ablation (RAM cache over
// the buffer disk over the data disks), sweeping RAM size x policy.
//
// The paper's energy argument (§III) is that absorbing popular reads on
// a buffer disk opens standby windows on the data disks.  A RAM tier
// pushes the same argument one level up: every read served from memory
// touches no spindle at all, so the power manager sees longer gaps and
// the data disks sleep longer than the buffer disk alone can arrange.
// This bench quantifies that claim against the two-tier baseline
// (ram=0, bit-identical to the pre-RAM system) and hard-gates on it:
// at least one RAM cell must show strictly more data-disk standby time
// at equal-or-better availability, or the bench exits non-zero.
#include <cstdio>

#include "harness.hpp"
#include "util/string_util.hpp"

using namespace eevfs;

namespace {

/// Total data-disk standby time across the cluster (per-node field; the
/// cluster scalars do not aggregate it).
Tick total_standby(const core::RunMetrics& m) {
  Tick t = 0;
  for (const core::NodeMetrics& nm : m.per_node) t += nm.data_disk_standby_ticks;
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "tiered_cache",
      {"policy", "ram_mb", "joules", "dj_vs_two_tier", "standby_s",
       "d_standby_s", "resp_ms", "ram_hit_rate", "absorbed", "writebacks",
       "evictions", "lost", "availability"});
  bench::banner("Three-tier cache ablation (extension)",
                "RAM size x admission policy vs energy, sleep time, response",
                "MU=1000, K=70, inter-arrival=700ms, writes=30%; "
                "pin fraction 0.5, flush interval 1s; baseline ram=0");

  const auto w = bench::with_writes(bench::paper_workload(), 0.3);
  std::printf("%-12s %-8s %14s %12s %11s %9s %8s %9s %6s %9s\n", "policy",
              "ram_mb", "joules", "dJ", "standby(s)", "resp(ms)", "hit%",
              "absorbed", "lost", "avail");

  struct Cell {
    core::RamCachePolicy policy;
    Bytes ram_bytes;
  };
  std::vector<Cell> cells;
  cells.push_back({core::RamCachePolicy::kLru, 0});  // two-tier baseline
  for (const core::RamCachePolicy policy :
       {core::RamCachePolicy::kLru, core::RamCachePolicy::kPopularity,
        core::RamCachePolicy::kTinyLfu}) {
    for (const Bytes mb : {64u, 256u}) {
      cells.push_back({policy, mb * kMB});
    }
  }
  const auto results = bench::run_cells(cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    core::ClusterConfig cfg = bench::paper_config();
    cfg.ram_cache_bytes = cell.ram_bytes;
    cfg.ram_cache_policy = cell.policy;
    core::Cluster c(cfg);
    return c.run(w);
  });

  const core::RunMetrics& base = results[0];
  const Tick base_standby = total_standby(base);
  const double base_avail = base.availability();
  bool sleep_claim_holds = false;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const core::RunMetrics& m = results[i];
    const char* policy =
        cell.ram_bytes == 0 ? "two-tier" : core::to_string(cell.policy);
    const std::uint64_t ram_mb = cell.ram_bytes / kMB;
    const Tick standby = total_standby(m);
    const double avail = m.availability();
    // m.ram reads zero without a RAM tier; the counts it does not carry
    // are looked up by name, and the two-tier baseline registers none.
    const auto ram = [&](const char* name) -> std::uint64_t {
      return cell.ram_bytes > 0 ? m.count(name) : 0;
    };
    const std::uint64_t lost = ram("ramcache.lost_writes.count");
    const double dj = m.total_joules - base.total_joules;
    if (cell.ram_bytes > 0 && standby > base_standby &&
        avail >= base_avail) {
      sleep_claim_holds = true;
    }
    std::printf("%-12s %-8llu %14.4e %12.3e %11.1f %9.2f %8s %9llu %6llu "
                "%9s\n",
                policy, static_cast<unsigned long long>(ram_mb),
                m.total_joules, dj, ticks_to_seconds(standby),
                m.response_time_sec.mean() * kMillisPerSecond,
                bench::pct(m.ram.hit_rate()).c_str(),
                static_cast<unsigned long long>(m.ram.writes_absorbed),
                static_cast<unsigned long long>(lost),
                bench::pct(avail).c_str());
    const std::string label =
        cell.ram_bytes == 0
            ? std::string("two-tier")
            : format("%s/ram=%llumb", policy,
                     static_cast<unsigned long long>(ram_mb));
    out->add_run(label, m);
    out->row({policy, CsvWriter::cell(ram_mb),
              CsvWriter::cell(m.total_joules), CsvWriter::cell(dj),
              CsvWriter::cell(ticks_to_seconds(standby)),
              CsvWriter::cell(ticks_to_seconds(standby - base_standby)),
              CsvWriter::cell(m.response_time_sec.mean() * kMillisPerSecond),
              CsvWriter::cell(m.ram.hit_rate()),
              CsvWriter::cell(m.ram.writes_absorbed),
              CsvWriter::cell(ram("ramcache.writebacks.count")),
              CsvWriter::cell(m.ram.evictions),
              CsvWriter::cell(lost), CsvWriter::cell(avail)});
  }
  std::printf(
      "\nexpected shape: RAM hits bypass every spindle, so the standby\n"
      "column grows with RAM size while response time falls (memory is\n"
      "faster than the buffer disk).  The policy column matters most at\n"
      "64 MB/node, where the pin budget covers only part of the hot set\n"
      "and admission decides which residuals hit; at 256 MB/node the\n"
      "pinned hot set covers the popular mass and the policies converge.\n"
      "dJ captures the energy of longer sleep minus the flush-back\n"
      "traffic of absorbed writes.\n");
  out->finish();
  if (!sleep_claim_holds) {
    std::fprintf(stderr,
                 "FAIL: no RAM cell beat the two-tier baseline's data-disk "
                 "standby time at equal-or-better availability\n");
    return 1;
  }
  return 0;
}
