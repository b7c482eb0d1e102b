// Regenerates Fig. 4: total number of power state transitions (spin-ups
// + spin-downs over all data disks) for the PF runs of the same four
// sweeps as Fig. 3.
//
// Paper reference points (§VI-B):
//   (a) transitions decrease as data size grows (longer service keeps a
//       woken disk busy; consecutive buffer hits open longer windows);
//   (b) tiny for MU <= 100 (disks sleep once, for the whole trace),
//       hundreds at MU = 1000;
//   (c) transitions decrease as inter-arrival delay grows;
//   (d) K=10 produces the maximum of all tests — 447 — matching its
//       minimal 3 % energy gain; few transitions at K >= 40.
//
// bench::run_table2_figure runs all 16 sweep points through the
// parallel cell runner (one self-contained simulator pair per point);
// output order is deterministic and byte-identical to --serial.
#include <cstdio>
#include <functional>

#include "harness.hpp"

using namespace eevfs;

namespace {

void print_header() {
  std::printf("%-12s %12s %12s %10s %14s\n", "x", "PF trans", "NPF trans",
              "PF wakes", "paper (PF)");
}

void print_point(bench::BenchOutput& out, const std::string& panel,
                 const bench::SweepPoint& point,
                 const core::PfNpfComparison& cmp) {
  std::printf("%-12s %12llu %12llu %10llu %14s\n", point.x.c_str(),
              static_cast<unsigned long long>(cmp.pf.power_transitions),
              static_cast<unsigned long long>(cmp.npf.power_transitions),
              static_cast<unsigned long long>(cmp.pf.wakeups_on_demand),
              point.paper_note);
  out.row({panel, point.x, CsvWriter::cell(cmp.pf.power_transitions),
           CsvWriter::cell(cmp.npf.power_transitions),
           CsvWriter::cell(cmp.pf.wakeups_on_demand), point.paper_note});
  out.add_comparison(panel + "/" + point.x, cmp);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "fig4_transitions",
      {"panel", "x", "pf_transitions", "npf_transitions",
       "pf_wakeups_on_demand", "paper"});
  bench::run_table2_figure(
      {{{"Fig. 4(a)", "power state transitions vs data size (MB)",
         "MU=1000, K=70, inter-arrival=700ms",
         {"~300", "~250", "~150", "~50"}},
        {"Fig. 4(b)", "transitions vs popularity rate (MU)",
         "data=10MB, K=70, inter-arrival=700ms",
         {"~16 (whole trace)", "~16 (whole trace)", "~16 (whole trace)",
          "~250"}},
        {"Fig. 4(c)", "transitions vs inter-arrival delay (ms)",
         "data=10MB, K=70, MU=1000", {"~250", "~200", "~150", "~100"}},
        {"Fig. 4(d)", "transitions vs number of files to prefetch",
         "data=10MB, MU=1000, inter-arrival=700ms",
         {"447 (maximum)", "~100", "~250", "~50"}}}},
      print_header, std::bind_front(print_point, std::ref(*out)));
  out->finish();
  return 0;
}
