// The repository benchmark: one workload per process, single-threaded.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>]
//
// Measured runs: the workload's inputs are generated from --seed, a
// core::Cluster is built and run with tracing off, and this repeats until
// --seconds have passed (at least kMinRuns times).  Host-time metrics are
// read at the fast end of those runs (see fast_end).  Simulated metrics
// repeat exactly: every run must produce the same RunMetrics digest.
//
// Traced run: one more run with the program's tracer on for the `client`
// category, wrapped in spans recorded here around each call into the
// program (workload::, core::Cluster, trace::/core::place_files, obs::).
// It supplies the exact response-time percentiles and the per-layer span
// timings, and its RunMetrics must equal the untraced runs'.
//
// Every line of stdout but the last is human-readable (one metric per
// line, with its unit).  The last line is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics under
// --trace 0, the per-layer metrics under --trace 1.  A failed correctness
// check prints correct=false and exits 1; bad arguments exit 2.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.hpp"
#include "core/cluster.hpp"
#include "core/placement.hpp"
#include "core/run_report.hpp"
#include "fault/fault_injector.hpp"
#include "harness.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "workload/stream.hpp"
#include "workload/synthetic.hpp"
#include "workload/webtrace.hpp"

using namespace eevfs;

namespace {

/// Measured runs per invocation, whatever --seconds says.
constexpr std::size_t kMinRuns = 3;
/// Set-up is also timed on its own until at least this many samples and
/// this much set-up time were collected, so short set-ups still get a
/// fast end over many samples.
constexpr std::size_t kMinSetupSamples = 7;
constexpr double kMinSetupSeconds = 0.5;
constexpr std::size_t kMaxSetupSamples = 1000;
/// Replay records resident at once on the streaming path; the budget
/// bench/scalability enforces for its datacenter cells.
constexpr std::size_t kResidentBudget = std::size_t{1} << 16;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Host times are read at the fast end of the window: the nearest-rank
/// 5th percentile of the samples.  Other tenants of a shared machine slow
/// every run down by up to 1.8x in regimes that last about ten seconds;
/// the fast end of many short runs stays within a few percent from one
/// process to the next, while the median moves with the regimes.
double fast_end(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[(v.size() + 19) / 20 - 1];
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- workloads ------------------------------------------------------------

/// One workload's generated input: a materialized trace or a lazy stream.
struct Input {
  std::optional<workload::Workload> trace;
  std::optional<workload::StreamingWorkload> stream;

  std::size_t requests() const {
    return trace ? trace->requests.size() : stream->num_requests;
  }
  const std::vector<Bytes>& file_sizes() const {
    return trace ? trace->file_sizes : stream->file_sizes;
  }
};

struct Workload {
  std::string name;
  core::ClusterConfig config;
  std::function<Input()> generate;
};

/// Lognormal sigma of every workload's file sizes around the paper's
/// 10 MB.  With equal sizes the simulated service times are a handful of
/// fixed values, so the median response time would read the same for
/// every seed; a 2% dispersion makes it depend on the drawn input.
constexpr double kSizeSigma = 0.02;

/// bench::paper_workload's Table II settings, seeded from the command
/// line, with kSizeSigma size dispersion.
workload::SyntheticConfig paper_synthetic(std::uint64_t seed,
                                          std::size_t requests) {
  workload::SyntheticConfig cfg;
  cfg.num_files = 1000;
  cfg.num_requests = requests;
  cfg.mean_data_size_mb = bench::Defaults::kDataMb;
  cfg.size_sigma = kSizeSigma;
  cfg.mu = bench::Defaults::kMu;
  cfg.inter_arrival_ms = bench::Defaults::kInterArrivalMs;
  cfg.seed = seed;
  return cfg;
}

/// `w` with every file's size redrawn from a lognormal around its old
/// size (the web-trace generator has no size dispersion of its own).
workload::Workload with_lognormal_sizes(const workload::Workload& w,
                                        std::uint64_t seed, double sigma) {
  workload::Workload out;
  out.name = w.name + "+lognormal";
  Rng rng = Rng(seed).fork(0x5123);
  for (const Bytes size : w.file_sizes) {
    const double drawn =
        rng.lognormal_with_mean(static_cast<double>(size), sigma);
    out.file_sizes.push_back(static_cast<Bytes>(std::max(1.0, drawn)));
  }
  for (trace::TraceRecord r : w.requests.records()) {
    r.bytes = out.file_sizes.at(r.file);
    out.requests.append(r);
  }
  return out;
}

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.config = bench::paper_config();
  if (name == "paper_pf") {
    w.generate = [seed] {
      Input in;
      in.trace = workload::generate_synthetic(paper_synthetic(seed, 200'000));
      return in;
    };
  } else if (name == "hot_read_ram") {
    w.config.ram_cache_bytes = 256 * kMB;
    w.config.ram_cache_policy = core::RamCachePolicy::kTinyLfu;
    w.generate = [seed] {
      workload::WebTraceConfig cfg;
      cfg.num_requests = 200'000;
      cfg.working_set = 60;
      cfg.seed = seed;
      Input in;
      in.trace = with_lognormal_sizes(workload::generate_webtrace(cfg), seed,
                                      kSizeSigma);
      return in;
    };
  } else if (name == "ec_write_crash") {
    constexpr std::size_t kRequests = 200'000;
    constexpr std::size_t kCrashes = 5;
    constexpr double kDowntimeSec = 30.0;
    w.config.ec_n = 4;
    w.config.ec_k = 2;
    w.config.journal_mode = disk::JournalMode::kCommit;
    const double horizon_sec = static_cast<double>(kRequests) *
                               bench::Defaults::kInterArrivalMs / 1000.0;
    w.config.fault_plan = fault::random_crash_schedule(
        seed, horizon_sec, w.config.num_storage_nodes, kCrashes, kDowntimeSec);
    w.generate = [seed] {
      Input in;
      in.trace = bench::with_writes(
          workload::generate_synthetic(paper_synthetic(seed, kRequests)), 0.3);
      return in;
    };
  } else if (name == "dc_stream_1024") {
    // The 1024-node PF cell of `scalability --datacenter`.
    constexpr std::size_t kNodes = 1024;
    constexpr double kScale = static_cast<double>(kNodes) / 8.0;
    w.config = bench::paper_config(static_cast<std::size_t>(70 * kScale) + 1);
    w.config.num_storage_nodes = kNodes;
    w.config.num_clients = kNodes / 2;
    w.generate = [seed] {
      workload::SyntheticConfig cfg;
      cfg.num_files = kNodes * 125;
      cfg.num_requests = kNodes * 200;
      cfg.mean_data_size_mb = bench::Defaults::kDataMb;
      cfg.size_sigma = kSizeSigma;
      cfg.mu = bench::Defaults::kMu * kScale + 1.0;
      cfg.inter_arrival_ms = bench::Defaults::kInterArrivalMs / kScale;
      cfg.num_clients = kNodes / 2;
      cfg.seed = seed;
      Input in;
      in.stream = workload::make_synthetic_stream(cfg);
      return in;
    };
  } else {
    return std::nullopt;
  }
  return w;
}

core::RunMetrics run_cluster(core::Cluster& cluster, const Input& in) {
  return in.stream ? cluster.run_stream(*in.stream) : cluster.run(*in.trace);
}

// --- spans ----------------------------------------------------------------

/// In-memory spans around the calls into the program, written out at exit.
class SpanLog {
 public:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  explicit SpanLog(std::string run_id) : run_id_(std::move(run_id)) {}

  std::size_t begin(std::string name, std::size_t parent) {
    spans_.push_back({std::move(name), parent, now_s(), 0.0});
    return spans_.size() - 1;
  }
  void end(std::size_t id) { spans_.at(id).end = now_s(); }

  /// Duration of the first span called `name` (0 when absent).
  double seconds(std::string_view name) const {
    for (const Span& s : spans_) {
      if (s.name == name) return s.end - s.start;
    }
    return 0.0;
  }

  /// One JSON object per span; times in seconds from the first span.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[512];
      std::snprintf(line, sizeof line,
                    "{\"run\":\"%s\",\"id\":%zu,\"name\":\"%s\","
                    "\"parent\":%s,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                    run_id_.c_str(), i, s.name.c_str(),
                    s.parent == kRoot ? "null"
                                      : std::to_string(s.parent).c_str(),
                    s.start - origin, s.end - origin);
      out << line;
    }
  }

 private:
  struct Span {
    std::string name;
    std::size_t parent;
    double start;
    double end;
  };
  std::string run_id_;
  std::vector<Span> spans_;
};

// --- correctness ------------------------------------------------------------

class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (ok) return;
    failed_ = true;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  bool ok() const { return !failed_; }

 private:
  bool failed_ = false;
};

/// FNV-1a over the paper metrics and the counter snapshot.  Equal digests
/// mean every simulated statistic of the run is the same.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ b[i]) * 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t digest(const core::RunMetrics& m) {
  Fnv1a h;
  h.f64(m.total_joules);
  h.u64(m.power_transitions);
  h.u64(m.response_time_sec.count());
  h.f64(m.response_time_sec.sum());
  h.f64(m.response_time_sec.mean());
  h.f64(m.response_time_sec.min());
  h.f64(m.response_time_sec.max());
  h.f64(m.response_p95_sec);
  h.f64(m.response_p99_sec);
  h.u64(m.requests);
  h.u64(static_cast<std::uint64_t>(m.makespan));
  h.u64(static_cast<std::uint64_t>(m.prefetch_duration));
  for (const obs::Sample& s : m.counters) {
    h.str(s.name);
    h.u64(static_cast<std::uint64_t>(s.kind));
    h.f64(s.value);
    h.u64(s.count);
    for (const double v : {s.mean, s.p50, s.p95, s.p99, s.min, s.max}) {
      h.f64(v);
    }
  }
  return h.value();
}

const obs::Sample* find_sample(const core::RunMetrics& m,
                               std::string_view name) {
  for (const obs::Sample& s : m.counters) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

// --- runs -------------------------------------------------------------------

struct RunResult {
  core::RunMetrics metrics;
  std::size_t requests = 0;
  double setup_s = 0.0;  // input generation + Cluster construction
  double call_s = 0.0;   // the Cluster::run / run_stream call
  perfbench::AllocCounts allocs;
  std::size_t peak_resident = 0;
};

/// One untraced run: set-up, then the timed call with allocations counted.
RunResult measured_run(const Workload& w) {
  RunResult r;
  const double t0 = now_s();
  const Input in = w.generate();
  core::Cluster cluster(w.config);
  const double t1 = now_s();
  perfbench::start_alloc_count();
  r.metrics = run_cluster(cluster, in);
  r.allocs = perfbench::stop_alloc_count();
  const double t2 = now_s();
  r.requests = in.requests();
  r.setup_s = t1 - t0;
  r.call_s = t2 - t1;
  r.peak_resident = cluster.stream_peak_resident_records();
  return r;
}

/// Set-up alone (input generation + Cluster construction), timed.
double setup_only(const Workload& w) {
  const double t0 = now_s();
  const Input in = w.generate();
  const core::Cluster cluster(w.config);
  return now_s() - t0;
}

/// Folds one pass of a stream into the per-file summaries that
/// Cluster::run_stream hands the popularity analyzer.
trace::PopularityAnalyzer stream_popularity(
    const workload::StreamingWorkload& s) {
  std::vector<trace::FilePopularity> pop(s.num_files());
  std::vector<Tick> prev(s.num_files(), 0);
  std::vector<Tick> gap_sum(s.num_files(), 0);
  std::size_t total = 0;
  auto pass = s.open();
  trace::TraceRecord r;
  while (pass->next(&r)) {
    trace::FilePopularity& p = pop.at(r.file);
    if (p.accesses == 0) {
      p.file = r.file;
      p.first_access = r.arrival;
    } else {
      gap_sum[r.file] += r.arrival - prev[r.file];
    }
    ++p.accesses;
    p.bytes += r.bytes;
    p.last_access = r.arrival;
    prev[r.file] = r.arrival;
    ++total;
  }
  for (std::size_t f = 0; f < pop.size(); ++f) {
    if (pop[f].accesses > 1) {
      pop[f].mean_gap = gap_sum[f] / static_cast<Tick>(pop[f].accesses - 1);
    }
  }
  return trace::PopularityAnalyzer(std::move(pop), total);
}

struct TracedResult {
  core::RunMetrics metrics;
  double call_s = 0.0;
  std::vector<Tick> ok_latency;  // sorted, one per successful request
  double ok_latency_sum_s = 0.0;
  std::uint64_t dropped = 0;
  std::size_t num_files = 0;
  std::size_t placed_files = 0;
};

/// The traced run, with a span around each call into the program.
TracedResult traced_run(const Workload& w, SpanLog& spans,
                        const std::string& report_path) {
  TracedResult r;
  const std::size_t root = spans.begin("run", SpanLog::kRoot);

  std::size_t s = spans.begin("workload.generate", root);
  const Input in = w.generate();
  spans.end(s);

  core::ClusterConfig cfg = w.config;
  cfg.trace.enabled = true;
  cfg.trace.category_mask = obs::kCatClient;
  cfg.trace.min_level = obs::TraceLevel::kInfo;
  // One client.request event per attempt: room for every retry the
  // client is allowed.
  cfg.trace.capacity = in.requests() * (cfg.max_request_retries + 1);
  s = spans.begin("core.cluster_construct", root);
  core::Cluster cluster(cfg);
  spans.end(s);

  s = spans.begin("core.cluster_run", root);
  const double t0 = now_s();
  r.metrics = run_cluster(cluster, in);
  r.call_s = now_s() - t0;
  spans.end(s);

  s = spans.begin("obs.tracer_events", root);
  const obs::Tracer& tracer = cluster.tracer();
  r.dropped = tracer.dropped();
  r.ok_latency.reserve(r.metrics.response_time_sec.count());
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (tracer.lookup(ev.detail) == "ok") {
      r.ok_latency.push_back(ev.dur);
      r.ok_latency_sum_s += ticks_to_seconds(ev.dur);
    }
  }
  std::sort(r.ok_latency.begin(), r.ok_latency.end());
  spans.end(s);

  // The public functions Cluster::run calls during set-up, called
  // standalone so their cost shows as a span of its own.
  s = spans.begin("trace.popularity", root);
  const trace::PopularityAnalyzer popularity =
      in.trace ? trace::PopularityAnalyzer(in.trace->requests)
               : stream_popularity(*in.stream);
  spans.end(s);

  s = spans.begin("core.place_files", root);
  Rng rng(cfg.seed);
  const core::PlacementMap placement = core::place_files(
      cfg.placement, cfg.num_storage_nodes, in.file_sizes().size(),
      popularity, in.file_sizes(), rng, cfg.replication_degree, cfg.ec_n,
      cfg.ec_k);
  r.num_files = in.file_sizes().size();
  r.placed_files = placement.node_of.size();
  spans.end(s);

  s = spans.begin("obs.report_write", root);
  core::RunReportWriter report("perfbench");
  report.add_run({.name = w.name,
                  .config = "perfbench workload " + w.name,
                  .wall_seconds = cluster.wall_seconds()},
                 r.metrics, &tracer);
  report.write(report_path);
  spans.end(s);

  spans.end(root);
  return r;
}

/// Nearest-rank percentile of a sorted sample: the ceil(q*n)-th value,
/// with q = num/den given exactly.
Tick nearest_rank(const std::vector<Tick>& sorted, std::uint64_t num,
                  std::uint64_t den) {
  if (sorted.empty()) return 0;
  const std::uint64_t n = sorted.size();
  const std::uint64_t rank = std::max<std::uint64_t>(1, (n * num + den - 1) / den);
  return sorted[static_cast<std::size_t>(rank - 1)];
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload "
               "<paper_pf|hot_read_ram|ec_write_crash|dc_stream_1024>\n"
               "          [--seed N] [--seconds S] [--trace 0|1] "
               "[--out-dir DIR]\n",
               argv0);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, &end);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
      if (!a.trace && std::strcmp(v, "0") != 0) usage(argv[0]);
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      usage(argv[0]);
    }
    if (end != nullptr && *end != '\0') usage(argv[0]);
  }
  if (a.workload.empty() || !(a.seconds > 0.0)) usage(argv[0]);
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Fixed malloc thresholds.  glibc otherwise raises them as large blocks
  // are freed, and peak RSS then moved by 8% from one seed to the next.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
  const std::optional<Workload> wl = make_workload(args.workload, args.seed);
  if (!wl) usage(argv[0]);
  const Workload& w = *wl;
  Checks checks;

  // Measured runs, tracing off.
  std::vector<RunResult> runs;
  const double start = now_s();
  double last_run_s = 0.0;
  double peak_rss_mb = 0.0;
  while (runs.size() < kMinRuns || now_s() - start + last_run_s < args.seconds) {
    const double t = now_s();
    runs.push_back(measured_run(w));
    last_run_s = now_s() - t;
    if (runs.size() == 1) {
      // The high-water mark of one set-up and run; later runs raise it by
      // an amount that varies from one process to the next.
      rusage usage_now{};
      getrusage(RUSAGE_SELF, &usage_now);
      peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;
    }
  }
  std::vector<double> setups;
  double setup_total = 0.0;
  for (const RunResult& r : runs) {
    setups.push_back(r.setup_s);
    setup_total += r.setup_s;
  }
  while (setups.size() < kMaxSetupSamples &&
         (setups.size() < kMinSetupSamples || setup_total < kMinSetupSeconds)) {
    setups.push_back(setup_only(w));
    setup_total += setups.back();
  }
  const std::string run_id =
      w.name + "/seed=" + std::to_string(args.seed) + "/traced";
  SpanLog spans(run_id);
  std::filesystem::create_directories(args.out_dir);
  const std::string stem =
      args.out_dir + "/" + w.name + "-seed" + std::to_string(args.seed);
  const TracedResult traced =
      traced_run(w, spans, stem + ".run_report.json");
  spans.write_jsonl(stem + ".spans.jsonl");

  // --- correctness ------------------------------------------------------
  const RunResult& ref = runs.front();
  const core::RunMetrics& m = ref.metrics;
  const std::uint64_t ref_digest = digest(m);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    checks.expect(digest(runs[i].metrics) == ref_digest,
                  "measured run " + std::to_string(i) +
                      " differs from run 0 (RunMetrics digest)");
  }
  checks.expect(digest(traced.metrics) == ref_digest,
                "traced RunMetrics differ from the untraced run's");
  // Allocation counts must repeat exactly to be citable as counts.
  for (std::size_t i = 1; i < runs.size(); ++i) {
    checks.expect(runs[i].allocs.count == ref.allocs.count &&
                      runs[i].allocs.bytes == ref.allocs.bytes,
                  "alloc counts of measured run " + std::to_string(i) +
                      " differ from run 0");
  }

  const obs::Sample missing{};
  auto sample = [&](std::string_view name) -> const obs::Sample& {
    const obs::Sample* s = find_sample(m, name);
    checks.expect(s != nullptr, "metric " + std::string(name) + " missing");
    return s ? *s : missing;
  };
  auto value = [&](std::string_view name) { return sample(name).value; };

  const auto requests = static_cast<double>(ref.requests);
  const double failed = value("client.failed_requests.count");
  const auto ok = static_cast<double>(m.response_time_sec.count());
  checks.expect(ok + failed == requests,
                "requests resolved (ok + failed) != requests issued");
  checks.expect(traced.dropped == 0, "tracer dropped client events");
  checks.expect(traced.ok_latency.size() == m.response_time_sec.count(),
                "traced ok events != successful requests");
  checks.expect(std::fabs(traced.ok_latency_sum_s - m.response_time_sec.sum()) <=
                    1e-9 * m.response_time_sec.sum(),
                "traced latencies do not sum to the recorded response time");
  checks.expect(traced.placed_files == traced.num_files,
                "place_files did not place every file");

  const bool ram_on = w.config.ram_cache_bytes > 0;
  bool ram_names = false;
  for (const obs::Sample& s : m.counters) {
    ram_names = ram_names || s.name.rfind("ramcache.", 0) == 0;
  }
  checks.expect(ram_names == ram_on,
                ram_on ? "ramcache.* counters missing with the RAM tier on"
                       : "ramcache.* counters present with the RAM tier off");
  if (ram_on) {
    checks.expect(m.ram.hit_rate() >= 0.99, "RAM hit ratio below 0.99");
  }
  // Every workload journals its write buffer (the default commit mode).
  checks.expect(value("fault.lost_acked_writes.count") == 0.0,
                "journaled run lost acked writes");
  checks.expect(ref.peak_resident <= kResidentBudget,
                "streaming replay exceeded the resident-record budget");

  // --- metrics ----------------------------------------------------------
  std::vector<double> call_s;
  for (const RunResult& r : runs) call_s.push_back(r.call_s);
  const double call_fast = fast_end(call_s);
  const double events = value("sim.events_executed.count");

  // Host throughput, like every host time, swings with the machine's
  // other tenants by more than any bound an end-to-end metric may carry,
  // so it is reported per layer (README.md, "Host noise").
  const Metric req_per_s{"req_per_s", requests / call_fast, "1/s"};
  std::vector<Metric> out;
  if (!args.trace) {
    out = {
        {"setup_s", fast_end(setups), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
        {"energy_kj", m.total_joules / 1000.0, "kJ"},
        {"transitions", static_cast<double>(m.power_transitions), "count"},
        {"resp_mean_ms", m.response_time_sec.mean() * 1000.0, "ms"},
        {"resp_p50_ms",
         ticks_to_seconds(nearest_rank(traced.ok_latency, 1, 2)) * 1000.0,
         "ms"},
        {"resp_p9999_ms",
         ticks_to_seconds(nearest_rank(traced.ok_latency, 9999, 10000)) *
             1000.0,
         "ms"},
        {"ok_frac", ratio(ok, requests), "ratio"},
    };
  } else {
    const double ec_reads = value("ec.reads.count");
    out = {
        req_per_s,
        {"sim.events_executed.count", events, "count"},
        {"sim.events_per_req", ratio(events, requests), "events/req"},
        {"sim.queue_depth_peak.count", value("sim.queue_depth_peak.count"),
         "count"},
        {"sim.host_ns_per_event", ratio(call_fast * 1e9, events), "ns"},
        {"alloc.count_per_req",
         ratio(static_cast<double>(ref.allocs.count), requests), "allocs/req"},
        {"alloc.bytes_per_req",
         ratio(static_cast<double>(ref.allocs.bytes), requests), "bytes/req"},
        {"workload.generate_s", spans.seconds("workload.generate"), "s"},
        {"disk.requests_completed.count",
         value("disk.requests_completed.count"), "count"},
        {"disk.bytes_transferred.bytes", value("disk.bytes_transferred.bytes"),
         "bytes"},
        {"disk.queue_wait.us", sample("disk.queue_wait.us").mean, "us"},
        {"disk.requests_failed.count", value("disk.requests_failed.count"),
         "count"},
        {"disk.spin_ups.count", value("disk.spin_ups.count"), "count"},
        {"disk.demand_spin_ups.count", value("disk.demand_spin_ups.count"),
         "count"},
        {"power.sleeps_initiated.count", value("power.sleeps_initiated.count"),
         "count"},
        {"power.wakeups_on_demand.count",
         value("power.wakeups_on_demand.count"), "count"},
        {"prefetch.buffer_hit.ratio", m.buffer_hit_rate(), "ratio"},
        {"prefetch.bytes_prefetched.bytes",
         value("prefetch.bytes_prefetched.bytes"), "bytes"},
        {"prefetch.evictions.count", value("prefetch.evictions.count"),
         "count"},
        {"buffer.writes_buffered.count", value("buffer.writes_buffered.count"),
         "count"},
        {"buffer.destages.count", value("buffer.destages.count"), "count"},
        {"ramcache.hit.ratio", m.ram.hit_rate(), "ratio"},
        {"ramcache.evictions.count", static_cast<double>(m.ram.evictions),
         "count"},
        {"ramcache.writes_absorbed.count",
         static_cast<double>(m.ram.writes_absorbed), "count"},
        {"net.messages_sent.count", value("net.messages_sent.count"), "count"},
        {"net.bytes_sent.bytes", value("net.bytes_sent.bytes"), "bytes"},
        {"server.requests_routed.count", value("server.requests_routed.count"),
         "count"},
        {"server.failovers.count", value("server.failovers.count"), "count"},
        {"ec.reads.count", ec_reads, "count"},
        {"ec.degraded_reads.count", value("ec.degraded_reads.count"), "count"},
        {"ec.hedges_per_read", ratio(value("ec.hedges_launched.count"), ec_reads),
         "hedges/read"},
        {"journal.appends.count", value("journal.appends.count"), "count"},
        {"recovery.episodes.count", value("recovery.episodes.count"), "count"},
        {"fault.injected.count", value("fault.injected.count"), "count"},
        {"client.retries.count", value("client.retries.count"), "count"},
        {"client.timeouts.count", value("client.timeouts.count"), "count"},
        {"trace.popularity_s", spans.seconds("trace.popularity"), "s"},
        {"core.place_files_s", spans.seconds("core.place_files"), "s"},
        {"obs.report_write_s", spans.seconds("obs.report_write"), "s"},
        {"obs.trace_overhead.ratio", traced.call_s / call_fast - 1.0,
         "ratio"},
    };
  }

  std::printf("workload %s seed %llu: %zu measured runs, %zu set-up samples\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              runs.size(), setups.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    std::printf("  run %2zu: set-up %.4f s, call %.4f s, %.0f req/s\n", i,
                runs[i].setup_s, runs[i].call_s, requests / runs[i].call_s);
  }
  std::printf("  traced: call %.4f s\n", traced.call_s);
  std::printf("digest %016llx (FNV-1a over RunMetrics + counter snapshot)\n",
              static_cast<unsigned long long>(ref_digest));
  auto print_metric = [](const Metric& mt) {
    std::printf("  %-34s %18.6f %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str());
  };
  for (const Metric& mt : out) print_metric(mt);
  if (!args.trace) {
    print_metric(req_per_s);
    print_metric({"failed_frac", ratio(failed, requests), "ratio"});
  }

  // Every run replays the same requests with the same outcome (the
  // digests above), so the traced run counts like a measured one.
  const std::uint64_t run_count = runs.size() + 1;
  print_result(checks.ok(), run_count * ref.requests,
               run_count * static_cast<std::uint64_t>(failed), out);
  return checks.ok() ? 0 : 1;
}
