// Robustness extension bench: the three-way durability Pareto study —
// no redundancy vs 2-replication vs (4,2) erasure coding under node
// outages.
//
// The paper's evaluation (§V) is fault-free, but its energy mechanism is
// exactly what a failure stresses: the buffer disk concentrates the hot
// set and the data disks sleep, so redundancy buys availability with the
// very watts the prefetcher saved.  This bench injects whole-node
// outages — one, then two OVERLAPPING (fail_node_pair, the case a single
// spare copy cannot mask when the pair shares files) — against the three
// placement modes and reports the Pareto frontier over:
//
//   * energy       — absolute joules plus dJ vs the same mode fault-free
//                    (redundant copies/chunks cost standing spindle work)
//   * availability — fraction of requests served after retry/failover
//   * response     — mean client-observed latency (erasure pays fork-join
//                    and decode; replication pays failover hops)
//   * durability   — lost acked writes (journal=commit everywhere, so a
//                    loss here is a placement gap, not a buffer gap)
//
// Durability gate (hard): the (4,2) cells tolerate n - k = 2 simultaneous
// node losses, which covers every outage injected here — an erasure cell
// that loses an acked write or fails a read means the k-of-n fan-out or
// the chunk repair path is broken, and the bench exits non-zero.
#include <cstdio>

#include "fault/fault_injector.hpp"
#include "harness.hpp"
#include "util/string_util.hpp"

using namespace eevfs;

namespace {

enum class Mode { kNone, kReplication, kErasure };

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kNone: return "none";
    case Mode::kReplication: return "repl2";
    case Mode::kErasure: return "ec4_2";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "fault_tolerance",
      {"mode", "faults", "joules", "dj_vs_fault_free", "availability",
       "resp_mean_s", "failed", "rerouted", "degraded_reads",
       "reconstructions", "stragglers", "lost_acked", "mttr_s"});
  bench::banner("Fault tolerance (extension)",
                "none vs replication vs erasure under node outages — "
                "energy / availability / response Pareto",
                "MU=1000, K=70, inter-arrival=700ms, writes=25%, "
                "journal=commit; outage at 150s (downtime 30s), pair "
                "overlaps on adjacent nodes; heartbeat 1s");

  const auto w = bench::with_writes(bench::paper_workload(), 0.25);
  std::printf("%-7s %-7s %14s %12s %7s %9s %7s %9s %9s %9s %6s\n", "mode",
              "faults", "joules", "dJ", "avail", "resp(s)", "failed",
              "rerouted", "degraded", "straggle", "lost");

  // One cell per (mode, outage count); faults=0 doubles as the fault-free
  // energy reference of its mode.  Outages hit adjacent nodes 2 and 3 —
  // under the (primary + j) mod N placement those two share files at
  // replication degree 2, so the overlapping pair is exactly the case a
  // single spare copy cannot mask while n - k = 2 erasure can.
  struct Cell {
    Mode mode;
    std::size_t faults;
  };
  std::vector<Cell> cells;
  for (const Mode mode : {Mode::kNone, Mode::kReplication, Mode::kErasure}) {
    for (const std::size_t faults : {0u, 1u, 2u}) {
      cells.push_back({mode, faults});
    }
  }
  const auto results = bench::run_cells(cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    core::ClusterConfig cfg = bench::paper_config();
    cfg.journal_mode = disk::JournalMode::kCommit;
    switch (cell.mode) {
      case Mode::kNone:
        cfg.replication_degree = 1;
        break;
      case Mode::kReplication:
        cfg.replication_degree = 2;
        break;
      case Mode::kErasure:
        cfg.ec_n = 4;
        cfg.ec_k = 2;
        break;
    }
    if (cell.faults == 1) {
      cfg.fault_plan.crash_node(150.0, 2).restart_node(180.0, 2);
    } else if (cell.faults == 2) {
      cfg.fault_plan.fail_node_pair(150.0, 2, 3, 30.0);
    }
    core::Cluster c(cfg);
    return c.run(w);
  });

  bool gate_violated = false;
  Joules base_joules = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const core::RunMetrics& m = results[i];
    const std::uint64_t failed = m.count("client.failed_requests.count");
    const std::uint64_t rerouted = m.count("server.requests_rerouted.count");
    const std::uint64_t degraded = m.count("ec.degraded_reads.count");
    const std::uint64_t stragglers = m.count("ec.straggler_chunks.count");
    const std::uint64_t lost = m.count("fault.lost_acked_writes.count");
    if (cell.faults == 0) base_joules = m.total_joules;
    const double dj = m.total_joules - base_joules;
    // The durability gate: erasure masks up to n - k = 2 node losses, so
    // every erasure cell here must serve every read (degraded counts as
    // served) and lose no acked write.
    if (cell.mode == Mode::kErasure && (failed > 0 || lost > 0)) {
      gate_violated = true;
    }
    std::printf("%-7s %-7zu %14.4e %12.3e %7s %9.3f %7llu %9llu %9llu "
                "%9llu %6llu\n",
                to_string(cell.mode), cell.faults, m.total_joules, dj,
                bench::pct(m.availability()).c_str(),
                m.response_time_sec.mean(),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(rerouted),
                static_cast<unsigned long long>(degraded),
                static_cast<unsigned long long>(stragglers),
                static_cast<unsigned long long>(lost));
    out->add_run(format("%s/faults=%zu", to_string(cell.mode), cell.faults),
                 m);
    out->row({to_string(cell.mode),
              CsvWriter::cell(static_cast<std::uint64_t>(cell.faults)),
              CsvWriter::cell(m.total_joules), CsvWriter::cell(dj),
              CsvWriter::cell(m.availability()),
              CsvWriter::cell(m.response_time_sec.mean()),
              CsvWriter::cell(failed), CsvWriter::cell(rerouted),
              CsvWriter::cell(degraded),
              CsvWriter::cell(m.count("ec.reconstructions.count")),
              CsvWriter::cell(stragglers), CsvWriter::cell(lost),
              CsvWriter::cell(m.heartbeat_mttr_sec())});
  }
  std::printf(
      "\nexpected shape: mode=none rides the energy frontier but craters\n"
      "on availability the moment any owning node is out.  repl2 masks\n"
      "one outage for ~2x storage spindle work, and the overlapping pair\n"
      "defeats it for files shared by both nodes.  ec4_2 masks both\n"
      "outages at 2x (n/k) storage overhead: reads join any 2 of 4\n"
      "chunks (degraded via parity when a holder is down, paying decode\n"
      "time and extra spindle energy), and the recovery manager rebuilds\n"
      "lost chunks from survivors on restart.\n");
  out->finish();
  if (gate_violated) {
    std::fprintf(stderr,
                 "FAIL: erasure cell with n-k >= injected faults failed a "
                 "read or lost an acked write\n");
    return 1;
  }
  return 0;
}
