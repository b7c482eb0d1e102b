// Regenerates Fig. 5: file-request response time, PF vs NPF, for the
// same four sweeps.
//
// Paper reference points (§VI-C):
//   (a) penalties shrink as data size grows: 121 % at 1 MB (120 ms ->
//       265 ms) down to 4 % at 25 MB; 50 MB omitted (server queueing);
//   (b) ~no penalty for MU <= 100 (disks sleep whole trace, responses
//       come from the buffer disk); visible penalty at MU = 1000;
//   (c) 31 % at 0 ms, a 37 % anomaly at 700 ms, 16 % at 1000 ms;
//   (d) penalty tracks the number of transitions (largest near K=10).
//
// bench::run_table2_figure runs all 15 sweep points through the
// parallel cell runner; output order is deterministic and
// byte-identical to --serial.
#include <cstdio>
#include <functional>

#include "harness.hpp"

using namespace eevfs;

namespace {

void print_header() {
  std::printf("%-12s %10s %10s %10s %10s %14s\n", "x", "PF (s)", "NPF (s)",
              "PF p95", "penalty", "paper penalty");
}

void print_point(bench::BenchOutput& out, const std::string& panel,
                 const bench::SweepPoint& point,
                 const core::PfNpfComparison& cmp) {
  std::printf("%-12s %10.3f %10.3f %10.3f %10s %14s\n", point.x.c_str(),
              cmp.pf.response_time_sec.mean(),
              cmp.npf.response_time_sec.mean(), cmp.pf.response_p95_sec,
              bench::pct(cmp.response_penalty()).c_str(), point.paper_note);
  out.row({panel, point.x, CsvWriter::cell(cmp.pf.response_time_sec.mean()),
           CsvWriter::cell(cmp.npf.response_time_sec.mean()),
           CsvWriter::cell(cmp.pf.response_p95_sec),
           CsvWriter::cell(cmp.response_penalty()), point.paper_note});
  out.add_comparison(panel + "/" + point.x, cmp);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "fig5_response", {"panel", "x", "pf_mean_s", "npf_mean_s", "pf_p95_s",
                        "penalty", "paper"});
  // Panel (a) lists three paper values: the 50 MB point is not run.
  bench::run_table2_figure(
      {{{"Fig. 5(a)", "response time vs data size (MB)",
         "MU=1000, K=70, inter-arrival=700ms; paper omits 50MB",
         {"121%", "~40%", "4%"}},
        {"Fig. 5(b)", "response time vs popularity rate (MU)",
         "data=10MB, K=70, inter-arrival=700ms",
         {"~0%", "~0%", "~0%", "~13%"}},
        {"Fig. 5(c)", "response time vs inter-arrival delay (ms)",
         "data=10MB, K=70, MU=1000", {"31%", "~25%", "37% (anomaly)", "16%"}},
        {"Fig. 5(d)", "response time vs number of files to prefetch",
         "data=10MB, MU=1000, inter-arrival=700ms",
         {"large (447 trans)", "~30%", "~35%", "~20%"}}}},
      print_header, std::bind_front(print_point, std::ref(*out)));
  out->finish();
  return 0;
}
