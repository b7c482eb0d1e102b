// Robustness extension bench: energy vs MTTR vs durability under
// whole-node crash-stop failures.
//
// The paper's evaluation (§V) is fault-free, and its write-buffer story
// (§III-C) quietly assumes the buffer disk's RAM-side bookkeeping never
// disappears.  A crash-stop drops exactly that: acknowledged writes that
// are still parked on the buffer disk lose their destage bookkeeping and
// are gone unless the write-ahead journal can reconstruct the queue on
// restart.  This bench sweeps the journal mode against the number of
// crash/restart events on a write-mixed workload and reports the
// three-way trade-off:
//
//   * durability — lost acked writes must be 0 whenever the journal is
//     on; journal=off quantifies the loss the journal exists to prevent
//   * MTTR       — mean crash-to-recovered time (replay + resync +
//     prefetch re-warm), from the RecoveryManager's episode accounting
//   * energy     — dJ vs the crash-free run of the same journal mode
//     (journal appends cost buffer-disk I/O even with no crash)
#include <cstdio>

#include "fault/fault_injector.hpp"
#include "harness.hpp"
#include "util/string_util.hpp"

using namespace eevfs;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "crash_recovery",
      {"journal", "crashes", "joules", "dj_vs_crash_free", "mttr_s",
       "lost_acked", "replayed", "resynced", "rewarmed", "stranded",
       "failed", "availability"});
  bench::banner("Crash recovery (extension)",
                "node crash/restart vs energy, MTTR, and durability",
                "MU=1000, K=70, inter-arrival=700ms, writes=25%, repl=2; "
                "crashes uniform in (0, 600s), downtime 30s; heartbeat 1s");

  const auto w = bench::with_writes(bench::paper_workload(), 0.25);
  std::printf("%-11s %-8s %14s %12s %8s %6s %9s %9s %9s %9s\n", "journal",
              "crashes", "joules", "dJ", "mttr(s)", "lost", "replayed",
              "resynced", "rewarmed", "avail");

  // One cell per (journal mode, crash count) point, plus the crash-free
  // reference run of each journal mode (isolates the journal's standing
  // append cost from the crash response).  Cells are independent
  // simulations, so the whole grid fans out across the runner.
  struct Cell {
    disk::JournalMode journal;
    std::size_t crashes;
    bool is_base;  // crash-free reference (reported, not tabulated)
  };
  std::vector<Cell> cells;
  for (const disk::JournalMode mode :
       {disk::JournalMode::kOff, disk::JournalMode::kCommit,
        disk::JournalMode::kCheckpoint}) {
    cells.push_back({mode, 0, /*is_base=*/true});
    for (const std::size_t crashes : {1u, 2u, 4u}) {
      cells.push_back({mode, crashes, /*is_base=*/false});
    }
  }
  const auto results = bench::run_cells(cells.size(), [&](std::size_t i) {
    const Cell& cell = cells[i];
    core::ClusterConfig cfg = bench::paper_config();
    cfg.replication_degree = 2;
    cfg.journal_mode = cell.journal;
    if (!cell.is_base) {
      cfg.fault_plan = fault::random_crash_schedule(
          /*seed=*/2026, /*horizon_sec=*/600.0, cfg.num_storage_nodes,
          cell.crashes, /*downtime_sec=*/30.0);
    }
    core::Cluster c(cfg);
    return c.run(w);
  });

  bool durability_violated = false;
  Joules base_joules = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const core::RunMetrics& m = results[i];
    const std::string mode = disk::to_string(cell.journal);
    if (cell.is_base) {
      base_joules = m.total_joules;
      out->add_run(format("journal=%s/crash-free", mode.c_str()), m);
      continue;
    }
    const std::uint64_t lost = m.count("fault.lost_acked_writes.count");
    const std::uint64_t replayed = m.count("recovery.replayed_writes.count");
    const std::uint64_t resynced = m.count("recovery.resynced_files.count");
    const std::uint64_t rewarmed = m.count("recovery.rewarmed_files.count");
    const double dj = m.total_joules - base_joules;
    if (cell.journal != disk::JournalMode::kOff && lost > 0) {
      durability_violated = true;
    }
    std::printf("%-11s %-8zu %14.4e %12.3e %8.3f %6llu %9llu %9llu %9llu "
                "%9s\n",
                mode.c_str(), cell.crashes, m.total_joules, dj,
                m.recovery_mttr_sec(), static_cast<unsigned long long>(lost),
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(resynced),
                static_cast<unsigned long long>(rewarmed),
                bench::pct(m.availability()).c_str());
    out->add_run(format("journal=%s/crashes=%zu", mode.c_str(),
                        cell.crashes),
                 m);
    out->row({mode, CsvWriter::cell(static_cast<std::uint64_t>(cell.crashes)),
              CsvWriter::cell(m.total_joules), CsvWriter::cell(dj),
              CsvWriter::cell(m.recovery_mttr_sec()), CsvWriter::cell(lost),
              CsvWriter::cell(replayed), CsvWriter::cell(resynced),
              CsvWriter::cell(rewarmed),
              CsvWriter::cell(m.count("buffer.writes_stranded.count")),
              CsvWriter::cell(m.count("client.failed_requests.count")),
              CsvWriter::cell(m.availability())});
  }
  std::printf(
      "\nexpected shape: journal=off loses every acked-but-undestaged\n"
      "write a crash catches on the buffer disk — the lost column grows\n"
      "with the crash count while energy barely moves.  commit mode pays\n"
      "a small standing append cost (dJ of the crash-free base) and\n"
      "replays the parked writes on restart: lost stays 0 and MTTR buys\n"
      "the difference.  checkpoint mode adds periodic checkpoint I/O to\n"
      "shrink the replay scan; with these queue depths the MTTR gap to\n"
      "commit is small.\n");
  out->finish();
  if (durability_violated) {
    std::fprintf(stderr,
                 "FAIL: journaled cell reported lost acked writes\n");
    return 1;
  }
  return 0;
}
