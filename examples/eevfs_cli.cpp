// eevfs_cli — run any EEVFS configuration from the command line.
//
//   $ ./eevfs_cli --workload web --requests 2000 --system eevfs_pf
//   $ ./eevfs_cli --workload synthetic --mu 100 --size-mb 25
//         --system eevfs_pf --compare eevfs_npf   (one line)
//   $ ./eevfs_cli --trace /path/to/trace.txt --system maid
//   $ ./eevfs_cli --trace-out /tmp/run --report /tmp/run_report.json
//   $ ./eevfs_cli --chaos-seed 7 --replication 2 --journal commit
//   $ ./eevfs_cli --chaos-plan examples/chaos_plan.txt --journal off
//         --request-timeout 3   (one line; the plan drops messages)
//
// Systems: eevfs_pf, eevfs_npf, maid, pdc, drpm, always_on, oracle.
//
// Observability (docs/observability.md): --trace-out <prefix> records the
// event timeline and writes <prefix>.trace.jsonl (grep) and
// <prefix>.trace.json (load in https://ui.perfetto.dev); --report <path>
// writes the schema-versioned run report.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "baseline/presets.hpp"
#include "core/cluster.hpp"
#include "core/run_report.hpp"
#include "fault/fault_injector.hpp"
#include "trace/io.hpp"
#include "util/cli.hpp"
#include "workload/synthetic.hpp"
#include "workload/webtrace.hpp"

namespace {

using namespace eevfs;

std::optional<core::ClusterConfig> config_by_name(const std::string& name) {
  for (auto& [preset_name, config] : baseline::all_presets()) {
    if (name == preset_name) return config;
  }
  return std::nullopt;
}

void apply_overrides(const CliParser& cli, core::ClusterConfig& cfg) {
  cfg.num_storage_nodes = static_cast<std::size_t>(
      cli.get_int("nodes", static_cast<std::int64_t>(cfg.num_storage_nodes)));
  cfg.data_disks_per_node = static_cast<std::size_t>(cli.get_int(
      "data-disks", static_cast<std::int64_t>(cfg.data_disks_per_node)));
  cfg.prefetch_file_count = static_cast<std::size_t>(cli.get_int(
      "prefetch", static_cast<std::int64_t>(cfg.prefetch_file_count)));
  cfg.idle_threshold_sec =
      cli.get_double("idle-threshold", cfg.idle_threshold_sec);
  cfg.stripe_width = static_cast<std::size_t>(
      cli.get_int("stripe", static_cast<std::int64_t>(cfg.stripe_width)));
  cfg.online_popularity = cli.get_bool("online", cfg.online_popularity);
  cfg.refresh_interval_sec =
      cli.get_double("refresh-interval", cfg.refresh_interval_sec);
  cfg.seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(cfg.seed)));
  cfg.journal_mode =
      disk::parse_journal_mode(cli.get_or("journal", to_string(
                                                         cfg.journal_mode)));
  cfg.replication_degree = static_cast<std::size_t>(cli.get_int(
      "replication", static_cast<std::int64_t>(cfg.replication_degree)));
  cfg.request_timeout_sec =
      cli.get_double("request-timeout", cfg.request_timeout_sec);
  if (const auto ec = cli.get("ec")) {
    // --ec n,k : erasure-coded placement (mutually exclusive with
    // --replication > 1; ClusterConfig::validate enforces that).
    const auto comma = ec->find(',');
    if (comma == std::string::npos) {
      throw std::invalid_argument("--ec expects n,k (e.g. --ec 4,2)");
    }
    cfg.ec_n = static_cast<std::size_t>(std::stoull(ec->substr(0, comma)));
    cfg.ec_k = static_cast<std::size_t>(std::stoull(ec->substr(comma + 1)));
  }
  cfg.ec_hedge_ms = cli.get_double("ec-hedge-ms", cfg.ec_hedge_ms);
}

// Chaos flags: --chaos-plan replays an explicit fault schedule from a
// text file (see fault::parse_fault_plan for the grammar); --chaos-seed
// derives a random crash/restart schedule over the workload's duration.
// Both runs stay fully deterministic — same plan/seed, same timeline.
void apply_chaos(const CliParser& cli, core::ClusterConfig& cfg,
                 double horizon_sec) {
  if (const auto path = cli.get("chaos-plan")) {
    std::ifstream in(*path);
    if (!in) {
      throw std::invalid_argument("cannot open chaos plan: " + *path);
    }
    std::ostringstream text;
    text << in.rdbuf();
    cfg.fault_plan = fault::parse_fault_plan(text.str());
    return;
  }
  if (const auto seed = cli.get("chaos-seed")) {
    cfg.fault_plan = fault::random_crash_schedule(
        static_cast<std::uint64_t>(std::stoull(*seed)), horizon_sec,
        cfg.num_storage_nodes,
        static_cast<std::size_t>(cli.get_int("chaos-crashes", 2)),
        cli.get_double("chaos-downtime", 30.0));
  }
}

workload::Workload build_workload(const CliParser& cli) {
  if (const auto path = cli.get("trace")) {
    const trace::Trace t = trace::read_trace_file(*path);
    workload::Workload w;
    w.name = *path;
    // Derive file sizes from the largest transfer each file sees.
    trace::FileId max_id = 0;
    for (const auto& r : t.records()) max_id = std::max(max_id, r.file);
    w.file_sizes.assign(max_id + 1, 1);
    for (const auto& r : t.records()) {
      w.file_sizes[r.file] = std::max(w.file_sizes[r.file], r.bytes);
    }
    w.requests = t;
    return w;
  }
  const auto requests =
      static_cast<std::size_t>(cli.get_int("requests", 1000));
  if (cli.get_or("workload", "synthetic") == "web") {
    workload::WebTraceConfig cfg;
    cfg.num_requests = requests;
    cfg.data_size_mb = cli.get_double("size-mb", cfg.data_size_mb);
    cfg.working_set = static_cast<std::size_t>(
        cli.get_int("working-set", static_cast<std::int64_t>(cfg.working_set)));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
    return workload::generate_webtrace(cfg);
  }
  workload::SyntheticConfig cfg;
  cfg.num_requests = requests;
  cfg.mean_data_size_mb = cli.get_double("size-mb", cfg.mean_data_size_mb);
  cfg.mu = cli.get_double("mu", cfg.mu);
  cfg.inter_arrival_ms = cli.get_double("ia-ms", cfg.inter_arrival_ms);
  cfg.num_files = static_cast<std::size_t>(cli.get_int("files", 1000));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  return workload::generate_synthetic(cfg);
}

void print_run(const char* name, const core::RunMetrics& m,
               const core::RunMetrics* baseline,
               std::size_t num_data_disks) {
  std::printf("%-12s energy %.4e J", name, m.total_joules);
  if (baseline && baseline->total_joules > 0) {
    std::printf(" (%+.1f%% vs baseline)", -100.0 * m.energy_gain_vs(*baseline));
  }
  std::printf("\n  transitions %llu (on-demand wakes %llu), hit rate %.1f%%\n",
              static_cast<unsigned long long>(m.power_transitions),
              static_cast<unsigned long long>(m.wakeups_on_demand),
              100.0 * m.buffer_hit_rate());
  std::printf("  response mean %.3f s, p95 %.3f s, p99 %.3f s\n",
              m.response_time_sec.mean(), m.response_p95_sec,
              m.response_p99_sec);
  std::printf("  makespan %.1f s, duty cycles %.2f per disk-hour\n",
              ticks_to_seconds(m.makespan),
              m.duty_cycles_per_disk_hour(num_data_disks));
  const std::uint64_t failed = m.count("client.failed_requests.count");
  if (failed > 0 || m.count("fault.injected.count") > 0) {
    std::printf("  requests %llu, failed %llu, availability %.4f\n",
                static_cast<unsigned long long>(m.requests),
                static_cast<unsigned long long>(failed), m.availability());
  }
  const std::uint64_t episodes = m.count("recovery.episodes.count");
  const std::uint64_t lost = m.count("fault.lost_acked_writes.count");
  if (episodes > 0 || lost > 0) {
    std::printf("  recoveries %llu, mttr %.3f s, replayed %llu, "
                "lost acked %llu\n",
                static_cast<unsigned long long>(episodes),
                m.recovery_mttr_sec(),
                static_cast<unsigned long long>(
                    m.count("recovery.replayed_writes.count")),
                static_cast<unsigned long long>(lost));
  }
  const std::uint64_t ec_reads = m.count("ec.reads.count");
  const std::uint64_t repaired = m.count("ec.repaired_chunks.count");
  if (ec_reads > 0 || repaired > 0) {
    std::printf("  ec reads %llu (degraded %llu), stragglers %llu, "
                "repaired chunks %llu\n",
                static_cast<unsigned long long>(ec_reads),
                static_cast<unsigned long long>(
                    m.count("ec.degraded_reads.count")),
                static_cast<unsigned long long>(
                    m.count("ec.straggler_chunks.count")),
                static_cast<unsigned long long>(repaired));
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("eevfs_cli — drive the EEVFS simulator from the shell");
  cli.add_flag("workload", "synthetic | web", "synthetic");
  cli.add_flag("trace", "replay a #eevfs-trace v1 file instead");
  cli.add_flag("requests", "number of requests", "1000");
  cli.add_flag("files", "number of files (synthetic)", "1000");
  cli.add_flag("size-mb", "mean data size in MB", "10");
  cli.add_flag("mu", "popularity MU value (synthetic)", "1000");
  cli.add_flag("ia-ms", "inter-arrival delay in ms", "700");
  cli.add_flag("working-set", "hot-file count (web)", "60");
  cli.add_flag("system", "preset to run (see header)", "eevfs_pf");
  cli.add_flag("compare", "second preset to run as baseline");
  cli.add_flag("nodes", "storage nodes", "8");
  cli.add_flag("data-disks", "data disks per node", "2");
  cli.add_flag("prefetch", "files to prefetch (K)", "70");
  cli.add_flag("idle-threshold", "disk idle threshold seconds", "5");
  cli.add_flag("stripe", "stripe width", "1");
  cli.add_flag("online", "learn popularity online (bool)", "false");
  cli.add_flag("refresh-interval", "online refresh seconds", "60");
  cli.add_flag("seed", "workload seed", "42");
  cli.add_flag("journal", "write journal: off | commit | checkpoint");
  cli.add_flag("replication", "copies of every file", "1");
  cli.add_flag("request-timeout",
               "client deadline per attempt in seconds (0 = none; a plan "
               "with drop_prob needs one)",
               "0");
  cli.add_flag("ec", "erasure coding as n,k (e.g. 4,2); excludes --replication");
  cli.add_flag("ec-hedge-ms", "erasure hedge stagger in ms", "250");
  cli.add_flag("chaos-seed", "random node crash/restart schedule seed");
  cli.add_flag("chaos-crashes", "crash count with --chaos-seed", "2");
  cli.add_flag("chaos-downtime", "seconds down with --chaos-seed", "30");
  cli.add_flag("chaos-plan", "fault schedule file (overrides --chaos-seed)");
  cli.add_flag("trace-out", "record events; write <prefix>.trace.{jsonl,json}");
  cli.add_flag("trace-cats", "trace category filter (e.g. disk,power)", "all");
  cli.add_flag("report", "write a run_report.json to this path");

  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", cli.error().c_str(),
                 cli.usage(argv[0]).c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.usage(argv[0]).c_str());
    return 0;
  }

  try {
    const workload::Workload w = build_workload(cli);
    std::printf("workload: %s — %zu requests, %zu files, %.1f s\n\n",
                w.name.c_str(), w.requests.size(), w.num_files(),
                ticks_to_seconds(w.requests.duration()));

    const std::string system = cli.get_or("system", "eevfs_pf");
    auto cfg = config_by_name(system);
    if (!cfg) {
      std::fprintf(stderr, "error: unknown system '%s'\n", system.c_str());
      return 2;
    }
    apply_overrides(cli, *cfg);
    apply_chaos(cli, *cfg, ticks_to_seconds(w.requests.duration()));
    const auto trace_out = cli.get("trace-out");
    if (trace_out) {
      cfg->trace.enabled = true;
      cfg->trace.category_mask =
          obs::parse_category_mask(cli.get_or("trace-cats", "all"));
    }

    core::RunMetrics baseline;
    bool have_baseline = false;
    if (const auto cmp = cli.get("compare")) {
      auto base_cfg = config_by_name(*cmp);
      if (!base_cfg) {
        std::fprintf(stderr, "error: unknown system '%s'\n", cmp->c_str());
        return 2;
      }
      apply_overrides(cli, *base_cfg);
      apply_chaos(cli, *base_cfg, ticks_to_seconds(w.requests.duration()));
      core::Cluster cluster(*base_cfg);
      baseline = cluster.run(w);
      have_baseline = true;
      print_run(cmp->c_str(), baseline, nullptr,
                base_cfg->num_storage_nodes * base_cfg->data_disks_per_node);
    }

    core::Cluster cluster(*cfg);
    const core::RunMetrics m = cluster.run(w);
    print_run(system.c_str(), m, have_baseline ? &baseline : nullptr,
              cfg->num_storage_nodes * cfg->data_disks_per_node);

    if (trace_out) {
      const obs::Tracer& tracer = cluster.tracer();
      const struct {
        const char* suffix;
        void (obs::Tracer::*write)(std::ostream&) const;
      } sinks[] = {{".trace.jsonl", &obs::Tracer::write_jsonl},
                   {".trace.json", &obs::Tracer::write_chrome_trace}};
      for (const auto& sink : sinks) {
        const std::string path = *trace_out + sink.suffix;
        std::ofstream out(path, std::ios::binary);
        if (!out) {
          std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
          return 1;
        }
        (tracer.*sink.write)(out);
      }
      std::printf("\ntrace: %s.trace.{jsonl,json} — %zu events "
                  "(%llu dropped); open the .json in ui.perfetto.dev\n",
                  trace_out->c_str(), tracer.recorded(),
                  static_cast<unsigned long long>(tracer.dropped()));
    }
    if (const auto report_path = cli.get("report")) {
      core::RunReportWriter report("eevfs_cli");
      if (have_baseline) {
        report.add_run({.name = cli.get_or("compare", "baseline"),
                        .config = w.name},
                       baseline);
      }
      report.add_run({.name = system,
                      .config = w.name,
                      .wall_seconds = cluster.wall_seconds()},
                     m, &cluster.tracer());
      report.write(*report_path);
      std::printf("run report: %s (schema v%lld)\n", report_path->c_str(),
                  static_cast<long long>(core::kRunReportSchemaVersion));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
