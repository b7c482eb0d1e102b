// Extension bench: scalability (paper §VII future work — "we intend to
// investigate the performance of EEVFS in a large-scale distributed
// environment", and §I claims scalability because the server only holds
// coarse metadata).  Two modes:
//
//  * default: scales storage nodes 1 -> 64 with the offered load and
//    file count held proportional, and checks that the energy gain and
//    response time hold (materialized workloads, as in the paper).
//  * --datacenter: scales 64 -> 1024 nodes with the request count held
//    proportional (the 1024-node cell replays >= 1M requests) over the
//    STREAMING workload path — requests are generated lazily and the
//    replay reads ahead only to the next record of the client that needs
//    one, about clients x ln(requests) records, so the per-cell memory
//    grows with the client count, not with the requests replayed.  Each
//    cell reports its peak resident record count and the bench fails if
//    any cell exceeds the budget.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <vector>

#include "harness.hpp"
#include "util/string_util.hpp"
#include "workload/stream.hpp"

using namespace eevfs;

namespace {

/// Hard ceiling on replay records resident at once in any datacenter
/// cell (records read ahead into the per-client queues).  The 1024-node
/// cell replays >= 1M requests; holding the full trace would blow this
/// by >16x, so the cap is what certifies that the streaming path reads
/// ahead only about clients x ln(requests) records (7,589 at 1024
/// nodes).
constexpr std::size_t kResidentBudget = 1u << 16;

struct DcCell {
  core::PfNpfComparison cmp;
  std::size_t requests = 0;
  std::size_t peak_resident = 0;
};

int run_datacenter() {
  auto out = bench::open_output(
      "scalability_datacenter",
      {"nodes", "requests", "pf_j_per_node", "npf_j_per_node", "gain",
       "pf_resp_s", "npf_resp_s", "peak_resident"});
  bench::banner("Scalability, datacenter scale (extension)",
                "64 -> 1024 storage nodes, streaming replay, 1024 "
                "requests per node",
                "10MB files, MU scaled with file count, K = 70 per 8 "
                "nodes, replay reads ahead on demand");

  std::printf("%-7s %10s %14s %14s %8s %10s %10s %14s\n", "nodes",
              "requests", "PF (J/node)", "NPF (J/node)", "gain", "PF resp",
              "NPF resp", "peak resident");
  const std::size_t node_counts[] = {64u, 128u, 256u, 512u, 1024u};
  const auto results =
      bench::run_cells(std::size(node_counts), [&](std::size_t i) {
        const std::size_t nodes = node_counts[i];
        const double scale = static_cast<double>(nodes) / 8.0;
        workload::SyntheticConfig wcfg;
        wcfg.num_files = nodes * 125;
        wcfg.num_requests = nodes * 1024;  // 1024 nodes -> 1,048,576
        wcfg.mean_data_size_mb = 10.0;
        wcfg.mu = 1000.0 * scale + 1.0;
        // Keep the per-node arrival rate constant.
        wcfg.inter_arrival_ms = 700.0 / scale;
        core::ClusterConfig cfg =
            bench::paper_config(static_cast<std::size_t>(70 * scale) + 1);
        cfg.num_storage_nodes = nodes;
        cfg.num_clients = nodes / 2;
        wcfg.num_clients = cfg.num_clients;
        const workload::StreamingWorkload w =
            workload::make_synthetic_stream(wcfg);
        DcCell cell;
        cell.requests = w.num_requests;
        {
          core::ClusterConfig pf = cfg;
          pf.enable_prefetch = true;
          core::Cluster c(pf);
          cell.cmp.pf = c.run_stream(w);
          cell.peak_resident = c.stream_peak_resident_records();
        }
        {
          // Same NPF modeling as run_pf_npf: no prefetch plan means no
          // marked sleep points, so power management is off.
          core::ClusterConfig npf = cfg;
          npf.enable_prefetch = false;
          npf.power_policy = core::PowerPolicy::kNone;
          core::Cluster c(npf);
          cell.cmp.npf = c.run_stream(w);
          cell.peak_resident =
              std::max(cell.peak_resident, c.stream_peak_resident_records());
        }
        return cell;
      });
  bool within_budget = true;
  for (std::size_t i = 0; i < std::size(node_counts); ++i) {
    const std::size_t nodes = node_counts[i];
    const DcCell& cell = results[i];
    const double dn = static_cast<double>(nodes);
    std::printf("%-7zu %10zu %14.4e %14.4e %8s %10.3f %10.3f %14zu\n",
                nodes, cell.requests, cell.cmp.pf.total_joules / dn,
                cell.cmp.npf.total_joules / dn,
                bench::pct(cell.cmp.energy_gain()).c_str(),
                cell.cmp.pf.response_time_sec.mean(),
                cell.cmp.npf.response_time_sec.mean(), cell.peak_resident);
    within_budget = within_budget && cell.peak_resident <= kResidentBudget;
    out->add_comparison(format("nodes=%zu", nodes), cell.cmp);
    out->row({CsvWriter::cell(static_cast<std::uint64_t>(nodes)),
              CsvWriter::cell(static_cast<std::uint64_t>(cell.requests)),
              CsvWriter::cell(cell.cmp.pf.total_joules / dn),
              CsvWriter::cell(cell.cmp.npf.total_joules / dn),
              CsvWriter::cell(cell.cmp.energy_gain()),
              CsvWriter::cell(cell.cmp.pf.response_time_sec.mean()),
              CsvWriter::cell(cell.cmp.npf.response_time_sec.mean()),
              CsvWriter::cell(static_cast<std::uint64_t>(
                  cell.peak_resident))});
  }
  std::printf("\nexpected shape: per-node energy and response time are "
              "flat with node count\n(each node manages its own disks; "
              "the server only routes), and the resident\nrecord count "
              "grows like clients x ln(requests) — far below the trace "
              "length.\n");
  if (!within_budget) {
    std::printf("FAIL: a cell exceeded the resident-record budget "
                "(%zu)\n", kResidentBudget);
  }
  out->finish();
  return within_budget ? 0 : 1;
}

int run_paper_scale() {
  auto out = bench::open_output(
      "scalability", {"nodes", "pf_joules", "npf_joules", "gain",
                      "pf_resp_s", "npf_resp_s", "pf_transitions"});
  bench::banner("Scalability (extension)",
                "1 -> 64 storage nodes, load scaled proportionally",
                "10MB files, MU scaled with file count, K = 70 per 8 nodes");

  std::printf("%-7s %14s %14s %8s %10s %10s %12s\n", "nodes", "PF (J)",
              "NPF (J)", "gain", "PF resp", "NPF resp", "transitions");
  const std::size_t node_counts[] = {1u, 2u, 4u, 8u, 16u, 32u, 64u};
  // Workload generation scales with the node count, so it happens inside
  // the cell (it is seeded and self-contained — still deterministic).
  const auto results =
      bench::run_cells(std::size(node_counts), [&](std::size_t i) {
        const std::size_t nodes = node_counts[i];
        const double scale = static_cast<double>(nodes) / 8.0;
        workload::SyntheticConfig wcfg;
        wcfg.num_files = static_cast<std::size_t>(1000 * scale) + 8;
        wcfg.num_requests = static_cast<std::size_t>(1000 * scale) + 8;
        wcfg.mean_data_size_mb = 10.0;
        wcfg.mu = 1000.0 * scale + 1.0;
        // Keep the per-node arrival rate constant.
        wcfg.inter_arrival_ms = 700.0 / scale;
        core::ClusterConfig cfg = bench::paper_config(
            static_cast<std::size_t>(70 * scale) + 1);
        cfg.num_storage_nodes = nodes;
        cfg.num_clients = std::max<std::size_t>(1, nodes / 2);
        return core::run_pf_npf(cfg, workload::generate_synthetic(wcfg));
      });
  for (std::size_t i = 0; i < std::size(node_counts); ++i) {
    const std::size_t nodes = node_counts[i];
    const core::PfNpfComparison& cmp = results[i];
    std::printf("%-7zu %14.4e %14.4e %8s %10.3f %10.3f %12llu\n", nodes,
                cmp.pf.total_joules, cmp.npf.total_joules,
                bench::pct(cmp.energy_gain()).c_str(),
                cmp.pf.response_time_sec.mean(),
                cmp.npf.response_time_sec.mean(),
                static_cast<unsigned long long>(cmp.pf.power_transitions));
    out->add_comparison(format("nodes=%zu", nodes), cmp);
    out->row({CsvWriter::cell(static_cast<std::uint64_t>(nodes)),
              CsvWriter::cell(cmp.pf.total_joules),
              CsvWriter::cell(cmp.npf.total_joules),
              CsvWriter::cell(cmp.energy_gain()),
              CsvWriter::cell(cmp.pf.response_time_sec.mean()),
              CsvWriter::cell(cmp.npf.response_time_sec.mean()),
              CsvWriter::cell(cmp.pf.power_transitions)});
  }
  std::printf("\nexpected shape: the relative gain is stable with node "
              "count (each node\nmanages its own disks; the server only "
              "routes), supporting the paper's\nscalability claim.\n");
  out->finish();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip the mode flag before the shared-flag parser sees it.
  bool datacenter = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--datacenter") == 0) {
      datacenter = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  bench::init(static_cast<int>(args.size()), args.data());
  return datacenter ? run_datacenter() : run_paper_scale();
}
