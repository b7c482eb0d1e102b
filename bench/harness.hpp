// Shared scaffolding for the figure/table reproduction benches.
//
// Every bench prints a self-contained table: the sweep axis, our measured
// values (PF and NPF where applicable), and the paper's reported value or
// trend for the same cell, so paper-vs-measured comparison needs no
// external notes.  Each bench also drops a CSV under bench_results/ for
// re-plotting.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/cluster.hpp"
#include "core/run_report.hpp"
#include "util/csv.hpp"
#include "util/thread_pool.hpp"
#include "workload/synthetic.hpp"
#include "workload/webtrace.hpp"

namespace eevfs::bench {

/// How run_cells() executes a sweep.  Every bench accepts the same two
/// flags (parsed by init()):
///   --serial   run cells in order on the calling thread (the reference
///              path the parallel runner must match byte for byte)
///   --jobs N   worker-thread count for the parallel path
///              (default 0 = one per hardware thread)
struct RunnerOptions {
  bool serial = false;
  std::size_t jobs = 0;
};

/// The process-wide runner options (defaults until init() parses argv).
const RunnerOptions& runner_options();

/// Parses the shared bench flags from argv (see RunnerOptions); prints
/// usage and exits on anything unrecognised.  Call first in main().
void init(int argc, char** argv);

/// Table II defaults (§V-B): 1000 files, 1000 requests, 10 MB files,
/// MU = 1000, 700 ms inter-arrival, prefetch 70, 5 s idle threshold.
struct Defaults {
  static constexpr double kDataMb = 10.0;
  static constexpr double kMu = 1000.0;
  static constexpr double kInterArrivalMs = 700.0;
  static constexpr std::size_t kPrefetch = 70;
  static constexpr std::size_t kRequests = 1000;
};

/// Synthetic workload with the paper's defaults; override per sweep.
workload::Workload paper_workload(double data_mb = Defaults::kDataMb,
                                  double mu = Defaults::kMu,
                                  double inter_arrival_ms =
                                      Defaults::kInterArrivalMs,
                                  std::size_t requests = Defaults::kRequests);

/// `base` with every ⌊1/write_fraction⌋-th request turned into a write,
/// in place (0.3 makes every third request a write, 0.25 every fourth;
/// 0 none) — the shared write-mixed workload of write_buffer,
/// crash_recovery, tiered_cache and fault_tolerance.  Throws
/// std::invalid_argument unless 0 <= write_fraction <= 1.
workload::Workload with_writes(workload::Workload base,
                               double write_fraction);

/// The paper's testbed cluster (8 nodes, 2 data + 1 buffer disk each).
core::ClusterConfig paper_config(std::size_t prefetch_count =
                                     Defaults::kPrefetch);

/// Prints the bench banner: what figure/table it regenerates and the
/// workload/parameter fine print.
void banner(const std::string& figure, const std::string& what,
            const std::string& fixed_params);

/// "12.3%" (or "-" when the baseline is zero).
std::string pct(double fraction);

/// The one output path every bench shares: a CSV of the printed table
/// (bench_results/<name>.csv) plus the schema-versioned run report
/// (bench_results/<name>.run_report.json) carrying the full metric
/// registry of every run.  Call row() for each table line, add_run()
/// for each RunMetrics behind it, and finish() once at the end.
class BenchOutput {
 public:
  /// Opens both files under bench_results/ (created on demand).
  BenchOutput(const std::string& name, std::vector<std::string> header);

  /// Appends one CSV row (cell count must match the header).
  void row(const std::vector<std::string>& cells) { csv_.row(cells); }

  /// Adds one run to the report; `label` must be unique per report
  /// (sweep-axis value plus variant, e.g. "mu=100/pf").
  void add_run(const std::string& label, const core::RunMetrics& m) {
    report_.add_run({.name = label, .config = config_note_}, m);
  }

  /// Adds both sides of a PF/NPF comparison as "<label>/pf" and
  /// "<label>/npf".
  void add_comparison(const std::string& label,
                      const core::PfNpfComparison& cmp) {
    add_run(label + "/pf", cmp.pf);
    add_run(label + "/npf", cmp.npf);
  }

  /// One-line config description stamped into subsequent add_run calls.
  void set_config_note(std::string note) { config_note_ = std::move(note); }

  /// Writes the run report and prints both output paths.  Idempotent;
  /// called by the destructor if the bench forgets.
  void finish();

  ~BenchOutput();
  BenchOutput(const BenchOutput&) = delete;
  BenchOutput& operator=(const BenchOutput&) = delete;

  const std::string& csv_path() const { return csv_.path(); }
  const std::string& report_path() const { return report_path_; }

 private:
  CsvWriter csv_;
  core::RunReportWriter report_;
  std::string report_path_;
  std::string config_note_;
  bool finished_ = false;
};

/// Opens the bench's outputs (CSV + run report) under bench_results/.
std::unique_ptr<BenchOutput> open_output(const std::string& name,
                                         std::vector<std::string> header);

/// One point of a PF/NPF sweep.
struct SweepPoint {
  std::string x;
  core::ClusterConfig config;
  workload::Workload workload;
  const char* paper_note = "";
};

/// The parallel scenario runner: executes `fn(cell)` for every cell
/// index in [0, n) and returns the results ordered by cell index.  Each
/// cell must be a self-contained simulation (one Simulator per cell, no
/// shared mutable state), which makes the sweep embarrassingly parallel
/// across the fixed-size util::ThreadPool.  Under --serial the cells run
/// in index order on the calling thread; because results are collected
/// before anything is printed or written, CSV and run-report output are
/// byte-identical between the two paths (enforced by the bench_det_*
/// ctest comparisons).
template <typename Fn>
auto run_cells(std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using R = std::invoke_result_t<Fn&, std::size_t>;
  const RunnerOptions& opt = runner_options();
  if (opt.serial || opt.jobs == 1 || n <= 1) {
    std::vector<R> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) out.push_back(fn(i));
    return out;
  }
  ThreadPool pool(opt.jobs);
  return pool.map_indexed(n, fn);
}

/// Runs every point's PF and NPF clusters through run_cells() and
/// returns the comparisons in input order.  Deterministic: results are
/// identical to a serial run.
std::vector<core::PfNpfComparison> run_sweep(
    const std::vector<SweepPoint>& points);

}  // namespace eevfs::bench
