// HPC checkpoint scenario: a parallel application periodically dumps
// checkpoint files (bursts of large writes) and occasionally restarts
// (reads back the latest checkpoint).  Exercises the buffer disk's write
// buffer (§III-C): writes land on the always-on buffer disk log and are
// destaged when the data disks spin anyway, so checkpoints do not wake
// sleeping disks.
//
//   $ ./hpc_checkpoint [num_rounds]
#include <cstdio>
#include <cstdlib>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "workload/synthetic.hpp"

namespace {

/// Builds a checkpoint-style trace: every `period` seconds each of
/// `ranks` application ranks writes one 25 MB checkpoint file; every 5th
/// round the app also reads the previous round's files back (restart
/// validation).
eevfs::workload::Workload make_checkpoint_workload(std::size_t rounds,
                                                   std::size_t ranks) {
  using namespace eevfs;
  workload::Workload w;
  w.name = "hpc_checkpoint";
  const Bytes ckpt = 25 * kMB;
  const std::size_t files = ranks * 2;  // double-buffered checkpoints
  w.file_sizes.assign(files, ckpt);
  const Tick period = seconds_to_ticks(60.0);
  for (std::size_t round = 0; round < rounds; ++round) {
    const Tick t0 = static_cast<Tick>(round) * period;
    const auto slot = static_cast<trace::FileId>(round % 2);
    for (std::size_t r = 0; r < ranks; ++r) {
      trace::TraceRecord rec;
      rec.arrival = t0 + milliseconds_to_ticks(static_cast<double>(r) * 50.0);
      rec.file = static_cast<trace::FileId>(r * 2) + slot;
      rec.bytes = ckpt;
      rec.op = trace::Op::kWrite;
      rec.client = static_cast<trace::ClientId>(r % 4);
      w.requests.append(rec);
    }
    if (round % 5 == 4) {
      const auto prev = static_cast<trace::FileId>((round + 1) % 2);
      for (std::size_t r = 0; r < ranks; ++r) {
        trace::TraceRecord rec;
        rec.arrival = t0 + seconds_to_ticks(30.0) +
                      milliseconds_to_ticks(static_cast<double>(r) * 50.0);
        rec.file = static_cast<trace::FileId>(r * 2) + prev;
        rec.bytes = ckpt;
        rec.op = trace::Op::kRead;
        rec.client = static_cast<trace::ClientId>(r % 4);
        w.requests.append(rec);
      }
    }
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace eevfs;
  const std::size_t rounds =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 20;
  const workload::Workload w = make_checkpoint_workload(rounds, 32);
  std::printf("checkpoint workload: %zu requests (%zu rounds x 32 ranks)\n\n",
              w.requests.size(), rounds);

  for (const bool buffering : {true, false}) {
    core::ClusterConfig cfg = baseline::eevfs_pf();
    cfg.cache_policy = core::CachePolicy::kNone;  // write-dominated
    cfg.write_buffering = buffering;
    core::Cluster cluster(cfg);
    const core::RunMetrics m = cluster.run(w);
    const std::uint64_t buffered = m.count("buffer.writes_buffered.count");
    const std::uint64_t direct = m.count("buffer.writes_direct.count");
    std::printf("write buffering %-3s: energy %.4g J, transitions %llu, "
                "ack mean %.3f s (p95 %.3f s), buffered/direct %llu/%llu\n",
                buffering ? "ON" : "OFF", m.total_joules,
                static_cast<unsigned long long>(m.power_transitions),
                m.response_time_sec.mean(), m.response_p95_sec,
                static_cast<unsigned long long>(buffered),
                static_cast<unsigned long long>(direct));
  }
  std::printf("\nWith buffering ON, checkpoint bursts append to the "
              "buffer-disk log;\nthe data disks sleep through the compute "
              "phase and absorb destages\nwhen they spin for reads.\n");
  return 0;
}
