#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#include "util/string_util.hpp"

namespace eevfs::bench {

namespace {
RunnerOptions g_runner_options;

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--serial] [--jobs N]\n"
               "  --serial   run sweep cells in order on one thread\n"
               "  --jobs N   parallel worker count (default: one per "
               "hardware thread)\n",
               argv0);
  std::exit(2);
}
}  // namespace

const RunnerOptions& runner_options() { return g_runner_options; }

void init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--serial") == 0) {
      g_runner_options.serial = true;
    } else if (std::strcmp(arg, "--jobs") == 0 && i + 1 < argc) {
      char* end = nullptr;
      const unsigned long jobs = std::strtoul(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0') usage_and_exit(argv[0]);
      g_runner_options.jobs = static_cast<std::size_t>(jobs);
    } else {
      usage_and_exit(argv[0]);
    }
  }
}

workload::Workload paper_workload(double data_mb, double mu,
                                  double inter_arrival_ms,
                                  std::size_t requests) {
  workload::SyntheticConfig cfg;
  cfg.num_files = 1000;
  cfg.num_requests = requests;
  cfg.mean_data_size_mb = data_mb;
  cfg.mu = mu;
  cfg.inter_arrival_ms = inter_arrival_ms;
  cfg.seed = 42;
  return workload::generate_synthetic(cfg);
}

workload::Workload with_writes(workload::Workload base,
                               double write_fraction) {
  if (!(write_fraction >= 0.0 && write_fraction <= 1.0)) {
    throw std::invalid_argument(
        format("with_writes: write fraction %g is outside [0, 1]",
               write_fraction));
  }
  base.name += "+writes";
  const std::size_t n = base.requests.size();
  // A period past the trace length marks nothing (and would not fit a
  // size_t for a tiny fraction).
  if (write_fraction > 0.0 &&
      1.0 / write_fraction < static_cast<double>(n) + 1.0) {
    const auto period = static_cast<std::size_t>(1.0 / write_fraction);
    for (std::size_t i = period; i <= n; i += period) {
      base.requests.set_op(i - 1, trace::Op::kWrite);
    }
  }
  return base;
}

core::ClusterConfig paper_config(std::size_t prefetch_count) {
  core::ClusterConfig cfg;  // defaults model Table I
  cfg.prefetch_file_count = prefetch_count;
  return cfg;
}

void banner(const std::string& figure, const std::string& what,
            const std::string& fixed_params) {
  std::printf("\n================================================================\n");
  std::printf("%s — %s\n", figure.c_str(), what.c_str());
  if (!fixed_params.empty()) {
    std::printf("fixed: %s\n", fixed_params.c_str());
  }
  std::printf("================================================================\n");
}

std::string pct(double fraction) {
  return format("%.1f%%", 100.0 * fraction);
}

std::vector<core::PfNpfComparison> run_sweep(
    const std::vector<SweepPoint>& points) {
  return run_cells(points.size(), [&](std::size_t i) {
    return core::run_pf_npf(points[i].config, points[i].workload);
  });
}

namespace {
std::string results_path(const std::string& file) {
  std::filesystem::create_directories("bench_results");
  return "bench_results/" + file;
}
}  // namespace

BenchOutput::BenchOutput(const std::string& name,
                         std::vector<std::string> header)
    : csv_(results_path(name + ".csv"), std::move(header)),
      report_(name),
      report_path_(results_path(name + ".run_report.json")) {}

void BenchOutput::finish() {
  if (finished_) return;
  finished_ = true;
  report_.write(report_path_);
  std::printf("\nCSV: %s\nrun report: %s (schema v%lld, %zu runs)\n",
              csv_.path().c_str(), report_path_.c_str(),
              static_cast<long long>(core::kRunReportSchemaVersion),
              report_.runs());
}

BenchOutput::~BenchOutput() {
  try {
    finish();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run report: %s\n", e.what());
  }
}

std::unique_ptr<BenchOutput> open_output(const std::string& name,
                                         std::vector<std::string> header) {
  return std::make_unique<BenchOutput>(name, std::move(header));
}

}  // namespace eevfs::bench
