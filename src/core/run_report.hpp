// The run report: one schema-versioned JSON document per bench (or CLI)
// invocation that carries everything needed to regenerate a figure —
// the paper metrics and the full registry snapshot for every run.
// docs/observability.md documents the schema; validate_run_report()
// enforces its structure and is what the run_report_smoke target (and
// tests/test_obs.cpp) run against real output.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/metrics.hpp"
#include "obs/json.hpp"
#include "obs/tracer.hpp"

namespace eevfs::core {

/// Bump when the document layout changes; consumers hard-fail on a
/// version they do not know (additive-only changes still bump it).
/// v3: the "availability" and "ram" objects are gone — their numbers
/// are registry counters, reported once in "counters" — and histogram
/// entries carry their exact "sum".
inline constexpr std::int64_t kRunReportSchemaVersion = 3;

/// Caller-supplied metadata for one run inside a report.
struct RunReportInfo {
  /// Run label, unique within the report (e.g. "mu=100/pf").
  std::string name;
  /// Free-form one-line configuration description.
  std::string config;
  /// Event-loop wall time (Cluster::wall_seconds()); diagnostic meta
  /// only — it lives outside the metrics object because it is the one
  /// number that is NOT reproducible across machines.
  double wall_seconds = 0.0;
};

/// Accumulates runs and renders the report document.  Usage:
///
///   RunReportWriter report("fig3_energy");
///   report.add_run({.name = "pf"}, metrics);
///   report.write("bench_results/fig3_energy.run_report.json");
class RunReportWriter {
 public:
  explicit RunReportWriter(std::string bench) : bench_(std::move(bench)) {}

  /// Adds one run.  `tracer` (optional) contributes the trace meta
  /// block (events recorded/dropped); pass the cluster's tracer when
  /// the Cluster object is still alive.
  void add_run(RunReportInfo info, const RunMetrics& m,
               const obs::Tracer* tracer = nullptr);

  std::size_t runs() const { return entries_.size(); }

  /// The full document.
  std::string json() const;

  /// Writes json() to `path`; throws std::runtime_error on I/O failure.
  void write(const std::string& path) const;

 private:
  struct Entry {
    RunReportInfo info;
    RunMetrics metrics;
    bool traced = false;
    std::uint64_t trace_recorded = 0;
    std::uint64_t trace_dropped = 0;
  };

  std::string bench_;
  std::vector<Entry> entries_;
};

/// Appends the report object for one run to `w` (the building block of
/// RunReportWriter::json(), exposed for embedding runs in other
/// documents).
void append_run_report_object(obs::JsonWriter& w, const RunReportInfo& info,
                              const RunMetrics& m,
                              const obs::Tracer* tracer = nullptr);

/// Structural validation of a report document against schema v3: parses
/// the JSON and checks every required key and type (top-level
/// schema_version/bench/runs; per run name/metrics/counters; per counter
/// name/kind and the kind-specific value fields).  Returns
/// false and fills `*error` (when non-null) with a human-readable reason
/// on the first violation.
bool validate_run_report(std::string_view json, std::string* error = nullptr);

}  // namespace eevfs::core
