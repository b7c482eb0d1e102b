// End-to-end observability smoke (`cmake --build build --target
// run_report_smoke`): runs a 1-node traced scenario, writes both trace
// sinks plus run_report.json, checks that the JSONL file holds one line
// per event the tracer holds, validates the report file against schema
// v3 with core::validate_run_report, and cross-checks that
// docs/observability.md documents every counter name the registry
// emitted — so the doc cannot silently rot out of sync with the code.
//
//   run_report_smoke_bin <output-dir> <path/to/docs/observability.md>
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "core/run_report.hpp"
#include "workload/synthetic.hpp"

namespace {

using namespace eevfs;

int fail(const std::string& what) {
  std::fprintf(stderr, "run_report_smoke: FAIL — %s\n", what.c_str());
  return 1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr,
                 "usage: %s <output-dir> <path/to/docs/observability.md>\n",
                 argv[0]);
    return 2;
  }
  const std::filesystem::path out_dir = argv[1];
  const std::string docs_path = argv[2];

  try {
    std::filesystem::create_directories(out_dir);

    // The scenario: one storage node, tracing on, default PF preset.
    workload::SyntheticConfig wcfg;
    wcfg.num_requests = 300;
    const workload::Workload w = workload::generate_synthetic(wcfg);

    core::ClusterConfig cfg = baseline::eevfs_pf();
    cfg.num_storage_nodes = 1;
    cfg.trace.enabled = true;

    core::Cluster cluster(cfg);
    const core::RunMetrics m = cluster.run(w);
    const obs::Tracer& tracer = cluster.tracer();
    if (tracer.recorded() == 0) {
      return fail("traced run recorded zero events");
    }
    if (m.counters.empty()) {
      return fail("RunMetrics::counters snapshot is empty");
    }

    // Every sink must write cleanly.
    const struct {
      const char* name;
      void (obs::Tracer::*write)(std::ostream&) const;
    } sinks[] = {{"smoke.trace.jsonl", &obs::Tracer::write_jsonl},
                 {"smoke.trace.json", &obs::Tracer::write_chrome_trace}};
    for (const auto& sink : sinks) {
      const std::string path = (out_dir / sink.name).string();
      std::ofstream out(path, std::ios::binary);
      (tracer.*sink.write)(out);
      out.flush();
      if (!out) return fail("cannot write " + path);
    }

    // The event log on disk is complete: one JSONL line per event.
    const std::string jsonl = slurp((out_dir / "smoke.trace.jsonl").string());
    const auto lines =
        static_cast<std::size_t>(std::count(jsonl.begin(), jsonl.end(), '\n'));
    if (lines != tracer.events().size()) {
      return fail("smoke.trace.jsonl holds " + std::to_string(lines) +
                  " lines for " + std::to_string(tracer.events().size()) +
                  " events");
    }

    // Write the report, then validate WHAT IS ON DISK (not the in-memory
    // string) so a broken write path cannot pass.
    core::RunReportWriter report("run_report_smoke");
    report.add_run({.name = "pf/1-node",
                    .config = "synthetic, 300 requests, 1 storage node",
                    .wall_seconds = cluster.wall_seconds()},
                   m, &tracer);
    const std::string report_path = (out_dir / "run_report.json").string();
    report.write(report_path);

    std::string error;
    if (!core::validate_run_report(slurp(report_path), &error)) {
      return fail("run_report.json fails schema validation: " + error);
    }

    // Doc coverage: every counter name in the snapshot must appear in
    // docs/observability.md verbatim.
    const std::string docs = slurp(docs_path);
    std::vector<std::string> missing;
    for (const obs::Sample& s : m.counters) {
      if (docs.find(s.name) == std::string::npos) missing.push_back(s.name);
    }
    if (!missing.empty()) {
      std::string list;
      for (const auto& name : missing) list += "\n  " + name;
      return fail("counters missing from " + docs_path + ":" + list);
    }

    std::printf(
        "run_report_smoke: PASS — %zu events traced, %zu counters "
        "(all documented), report at %s\n",
        tracer.recorded(), m.counters.size(), report_path.c_str());
  } catch (const std::exception& e) {
    return fail(e.what());
  }
  return 0;
}
