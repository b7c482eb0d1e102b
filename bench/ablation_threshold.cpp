// Ablation: disk idle threshold (Table II fixes it at 5 s; §VI-B
// suggests raising it to avoid low-value transitions).  Sweeps the
// threshold and the predictive profit margin.
#include <cstdio>

#include "harness.hpp"
#include "util/string_util.hpp"

using namespace eevfs;

int main(int argc, char** argv) {
  bench::init(argc, argv);
  auto out = bench::open_output(
      "ablation_threshold",
      {"axis", "value", "pf_joules", "gain_vs_npf", "transitions",
       "wakeups", "resp_mean_s"});
  bench::banner("Ablation", "idle threshold and sleep margin",
                "data=10MB, MU=1000, K=70, inter-arrival=700ms");

  const auto w = bench::paper_workload();
  core::RunMetrics npf;
  {
    core::Cluster c(bench::paper_config());
    core::ClusterConfig cfg = bench::paper_config();
    cfg.cache_policy = core::CachePolicy::kNone;
    core::Cluster n(cfg);
    npf = n.run(w);
  }
  out->add_run("npf", npf);

  std::printf("%-10s %8s %14s %8s %12s %8s %10s\n", "axis", "value",
              "PF (J)", "gain", "transitions", "wakes", "resp (s)");
  for (const double threshold : {1.0, 2.0, 5.0, 10.0, 30.0, 60.0}) {
    core::ClusterConfig cfg = bench::paper_config();
    cfg.idle_threshold_sec = threshold;
    core::Cluster c(cfg);
    const core::RunMetrics m = c.run(w);
    std::printf("%-10s %8.0f %14.4e %8s %12llu %8llu %10.3f\n", "threshold",
                threshold, m.total_joules,
                bench::pct(m.energy_gain_vs(npf)).c_str(),
                static_cast<unsigned long long>(m.power_transitions),
                static_cast<unsigned long long>(m.wakeups_on_demand),
                m.response_time_sec.mean());
    out->row({"threshold_s", CsvWriter::cell(threshold),
              CsvWriter::cell(m.total_joules),
              CsvWriter::cell(m.energy_gain_vs(npf)),
              CsvWriter::cell(m.power_transitions),
              CsvWriter::cell(m.wakeups_on_demand),
              CsvWriter::cell(m.response_time_sec.mean())});
    out->add_run(format("threshold=%.0fs", threshold), m);
  }
  for (const double margin : {1.0, 1.4, 1.8, 2.5, 4.0}) {
    core::ClusterConfig cfg = bench::paper_config();
    cfg.sleep_margin = margin;
    core::Cluster c(cfg);
    const core::RunMetrics m = c.run(w);
    std::printf("%-10s %8.1f %14.4e %8s %12llu %8llu %10.3f\n", "margin",
                margin, m.total_joules,
                bench::pct(m.energy_gain_vs(npf)).c_str(),
                static_cast<unsigned long long>(m.power_transitions),
                static_cast<unsigned long long>(m.wakeups_on_demand),
                m.response_time_sec.mean());
    out->row({"sleep_margin", CsvWriter::cell(margin),
              CsvWriter::cell(m.total_joules),
              CsvWriter::cell(m.energy_gain_vs(npf)),
              CsvWriter::cell(m.power_transitions),
              CsvWriter::cell(m.wakeups_on_demand),
              CsvWriter::cell(m.response_time_sec.mean())});
    out->add_run(format("margin=%.1f", margin), m);
  }
  std::printf("\nexpected shape: small thresholds buy more standby time at "
              "the price of\ntransitions and wake penalties; very large "
              "thresholds approach NPF.\n");
  out->finish();
  return 0;
}
