// Extension bench: write buffering on the buffer disk (paper §III-C's
// "free space should be used as a write buffer area" + the authors' own
// ICPP'09 write-buffer-disk study [13]).  Sweeps the write fraction of a
// skewed workload with buffering on/off.
#include <cstdio>

#include "harness.hpp"
#include "util/string_util.hpp"

using namespace eevfs;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "write_buffer",
      {"write_fraction", "buffering", "joules", "transitions", "wakeups",
       "resp_mean_s", "writes_buffered", "writes_direct"});
  bench::banner("Write buffering (extension, ref [13])",
                "energy and latency vs write fraction",
                "data=10MB, MU=1000, K=70, inter-arrival=700ms");

  std::printf("%-10s %-9s %14s %12s %8s %10s %10s\n", "writes", "buffer",
              "energy (J)", "transitions", "wakes", "resp (s)",
              "buffered");
  const auto base = bench::paper_workload();
  for (const double frac : {0.1, 0.25, 0.5}) {
    const auto w = bench::with_writes(base, frac);
    for (const bool buffering : {true, false}) {
      core::ClusterConfig cfg = bench::paper_config();
      cfg.write_buffering = buffering;
      core::Cluster c(cfg);
      const core::RunMetrics m = c.run(w);
      const std::uint64_t buffered = m.count("buffer.writes_buffered.count");
      const std::uint64_t direct = m.count("buffer.writes_direct.count");
      std::printf("%-10s %-9s %14.4e %12llu %8llu %10.3f %6llu/%llu\n",
                  bench::pct(frac).c_str(), buffering ? "on" : "off",
                  m.total_joules,
                  static_cast<unsigned long long>(m.power_transitions),
                  static_cast<unsigned long long>(m.wakeups_on_demand),
                  m.response_time_sec.mean(),
                  static_cast<unsigned long long>(buffered),
                  static_cast<unsigned long long>(direct));
      out->add_run(format("writes=%.2f/buffering=%s", frac,
                          buffering ? "on" : "off"),
                   m);
      out->row({CsvWriter::cell(frac), buffering ? "on" : "off",
                CsvWriter::cell(m.total_joules),
                CsvWriter::cell(m.power_transitions),
                CsvWriter::cell(m.wakeups_on_demand),
                CsvWriter::cell(m.response_time_sec.mean()),
                CsvWriter::cell(buffered), CsvWriter::cell(direct)});
    }
  }
  std::printf("\nexpected shape: buffering absorbs writes that would "
              "otherwise wake\nsleeping data disks — fewer transitions and "
              "wake-ups as the write\nfraction grows.\n");
  out->finish();
  return 0;
}
