// eevfs-lint: project-invariant static analysis for the EEVFS tree.
//
// A deliberately small, dependency-free checker (own lexer and symbol
// index, no libclang): it enforces the handful of invariants the
// reproduction's bit-for-bit determinism and energy-accounting claims
// rest on, which generic tooling cannot know about.  Seven rule
// families, run in two passes — pass 1 builds a symbol index over the
// headers in src/ (tools/eevfs_lint/index.hpp), pass 2 lints every TU
// against it:
//
//   D  determinism   — no wall clocks, no ambient RNG, no unordered-
//                      container iteration in files that emit results
//   L  layering      — #include edges must follow the module DAG
//                      (util -> {obs,sim,trace} -> {disk,net,workload}
//                       -> fault -> core -> baseline)
//   O  observability — metric-name literals follow `component.metric.unit`
//                      and are documented in docs/observability.md
//   H  header hygiene— #pragma once, no `using namespace` in headers,
//                      a .cpp includes its own header first
//   U  units hygiene — quantity declarations use the units.hpp aliases
//                      (Tick/Bytes/Joules/Watts) with unit-stating name
//                      suffixes; bare conversion constants (1e6, 86400,
//                      ...) are banned outside src/util/units.hpp
//   I  include-what-you-use — a module-qualified include none of whose
//                      declared symbols the TU references is dead; a
//                      symbol reached only through transitive includes
//                      must be included directly
//   E  event-handle lifecycle — the EventHandle returned by
//                      Simulator::schedule_at/schedule_after must be
//                      bound, returned, or explicitly (void)-discarded
//
// Findings are suppressible in source with
//   // eevfs-lint: allow(<rule>[,<rule>...])
// on the offending line, or alone on the line directly above it.  A rule
// token is a full id ("D1"), a family letter ("D"), or "all".
//
// See docs/static_analysis.md for the rule catalogue and rationale.
#pragma once

#include <cstddef>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "index.hpp"

namespace eevfs::lint {

/// One rule violation at a source location.
struct Finding {
  std::string file;     ///< path as passed in (not canonicalised)
  int line = 0;         ///< 1-based
  std::string rule;     ///< "D1", "L2", ...
  std::string message;  ///< human-readable, names the replacement
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Stable catalogue of every rule the linter can emit, for --list-rules
/// and the documentation.
const std::vector<RuleInfo>& rule_catalogue();

struct Options {
  /// When true, metric names must appear in `documented_metrics` (rule
  /// O2).  Grammar (rule O1) is checked regardless.
  bool check_docs = false;
  std::set<std::string> documented_metrics;
  /// Cross-TU symbol index (pass 1); when set, the I rule family runs.
  /// The index must outlive every lint_file/lint_paths call using it.
  const SymbolIndex* index = nullptr;
};

/// Extracts every backtick-quoted `component.metric.unit` name from a
/// markdown metrics reference (docs/observability.md).  Throws
/// std::runtime_error if the file cannot be read.
std::set<std::string> parse_metrics_doc(const std::filesystem::path& doc);

/// Module a path belongs to for layering purposes: the component after
/// the last `src/` in the path ("util", "core", ...), or "" for
/// application-level files (tests/, bench/, examples/, tools/), which may
/// include anything.
std::string module_of(const std::filesystem::path& file);

/// The module DAG rule L1 enforces: module -> set of modules it may
/// #include (self is always allowed).  Single source of truth, exposed
/// so tools/docs_check.py's DOC3 drift check and the tests can compare
/// against docs/architecture.md.
const std::map<std::string, std::set<std::string>>& layer_deps();

/// Lints a single file; returns findings sorted by line then rule id.
/// Suppressed findings are dropped.  Throws std::runtime_error if the
/// file cannot be read.
std::vector<Finding> lint_file(const std::filesystem::path& file,
                               const Options& opt);

/// Recursively lints every .cpp/.cc/.hpp/.h under each path, in sorted
/// (deterministic) order.  Directories named `lint_fixtures` are skipped
/// during recursion; files passed explicitly are always linted.
/// `files_scanned` (optional) receives the number of files examined.
std::vector<Finding> lint_paths(
    const std::vector<std::filesystem::path>& paths, const Options& opt,
    std::size_t* files_scanned = nullptr);

}  // namespace eevfs::lint
