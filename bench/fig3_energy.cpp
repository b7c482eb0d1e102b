// Regenerates Fig. 3 of the paper: energy consumption of the cluster as
// a function of (a) data size, (b) popularity rate MU, (c) inter-arrival
// delay, and (d) number of files to prefetch — EEVFS with prefetching
// (PF) vs without (NPF).
//
// Paper reference points (§VI-A):
//   (a) gains grow with data size: 11 % at 1 MB -> 15 % at 50 MB, and at
//       50 MB the absolute totals balloon (the 700 ms inter-arrival can
//       no longer drain the queue).
//   (b) gains equal for MU <= 100 (prefetch covers the whole working
//       set; disks sleep for the entire trace) and smaller at MU = 1000.
//   (c) gains grow with inter-arrival delay and level off around 700 ms,
//       with a small dip at 1000 ms.
//   (d) 3 % at K=10; significant savings once K >= 40.
//
// bench::run_table2_figure runs all 16 sweep points in parallel (one
// self-contained simulator pair per point); output order is
// deterministic.
#include <cstdio>
#include <functional>

#include "harness.hpp"

using namespace eevfs;

namespace {

void print_header() {
  std::printf("%-12s %14s %14s %9s %12s\n", "x", "PF (J)", "NPF (J)",
              "gain", "paper gain");
}

void print_point(bench::BenchOutput& out, const std::string& panel,
                 const bench::SweepPoint& point,
                 const core::PfNpfComparison& cmp) {
  std::printf("%-12s %14.4e %14.4e %9s %12s\n", point.x.c_str(),
              cmp.pf.total_joules, cmp.npf.total_joules,
              bench::pct(cmp.energy_gain()).c_str(), point.paper_note);
  out.row({panel, point.x, CsvWriter::cell(cmp.pf.total_joules),
           CsvWriter::cell(cmp.npf.total_joules),
           CsvWriter::cell(cmp.energy_gain()), point.paper_note});
  out.add_comparison(panel + "/" + point.x, cmp);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "fig3_energy",
      {"panel", "x", "pf_joules", "npf_joules", "gain", "paper_gain"});
  bench::run_table2_figure(
      {{{"Fig. 3(a)", "energy vs data size (MB)",
         "MU=1000, K=70, inter-arrival=700ms, 1000 requests",
         {"11%", "~13%", "~14%", "15%"}},
        {"Fig. 3(b)", "energy vs popularity rate (MU)",
         "data=10MB, K=70, inter-arrival=700ms",
         {"~15%", "~15%", "~15%", "~12%"}},
        {"Fig. 3(c)", "energy vs inter-arrival delay (ms)",
         "data=10MB, K=70, MU=1000", {"small", "~10%", "~13%", "~12%"}},
        {"Fig. 3(d)", "energy vs number of files to prefetch",
         "data=10MB, MU=1000, inter-arrival=700ms",
         {"3%", "significant", "~13%", "~14%"}}}},
      print_header, std::bind_front(print_point, std::ref(*out)));
  out->finish();
  return 0;
}
