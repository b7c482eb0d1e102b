// Tests for tools/eevfs_lint: each rule family (D/L/O/H/U/I/E) has a
// known-bad fixture under tests/lint_fixtures/ that must produce exact
// rule IDs at exact file:line positions, a clean fixture that must
// produce nothing, and a suppression fixture proving
// `// eevfs-lint: allow(<rule>)` works.  The cross-TU I family runs
// against a symbol index built over the fixture headers, and a final
// invariant test proves the real tree is lint-clean.
//
// The fixtures live under lint_fixtures/src/<module>/ so that module
// derivation (the component after the last `src/`) behaves exactly as it
// does in the real tree.  The directory is skipped by whole-tree scans.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace {

using eevfs::lint::Finding;
using eevfs::lint::Options;

const std::string kFixtures = LINT_FIXTURE_DIR;

std::vector<std::pair<int, std::string>> lines_and_rules(
    const std::vector<Finding>& findings) {
  std::vector<std::pair<int, std::string>> out;
  out.reserve(findings.size());
  for (const auto& f : findings) out.emplace_back(f.line, f.rule);
  return out;
}

Options doc_options() {
  Options opt;
  opt.check_docs = true;
  opt.documented_metrics =
      eevfs::lint::parse_metrics_doc(kFixtures + "/metrics_doc.md");
  return opt;
}

// ------------------------------------------------------------- plumbing

TEST(Lint, RuleCatalogueCoversAllSevenFamilies) {
  std::string families;
  for (const auto& r : eevfs::lint::rule_catalogue()) {
    families += r.id[0];
  }
  for (const char f : {'D', 'L', 'O', 'H', 'U', 'I', 'E'}) {
    EXPECT_NE(families.find(f), std::string::npos) << "family " << f;
  }
}

TEST(Lint, LayerDepsExposesTheModuleDag) {
  const auto& deps = eevfs::lint::layer_deps();
  ASSERT_NE(deps.find("util"), deps.end());
  EXPECT_TRUE(deps.at("util").empty());
  EXPECT_EQ(deps.at("sim"), std::set<std::string>{"util"});
  EXPECT_NE(deps.at("core").count("disk"), 0u);
  EXPECT_NE(deps.at("baseline").count("core"), 0u);
  EXPECT_EQ(deps.at("fault").count("core"), 0u);  // fault sits below core
}

TEST(Lint, ModuleOfFindsComponentAfterLastSrc) {
  EXPECT_EQ(eevfs::lint::module_of("src/core/cluster.cpp"), "core");
  EXPECT_EQ(eevfs::lint::module_of("/repo/src/util/rng.hpp"), "util");
  EXPECT_EQ(eevfs::lint::module_of("tests/lint_fixtures/src/sim/x.cpp"),
            "sim");
  EXPECT_EQ(eevfs::lint::module_of("tests/test_obs.cpp"), "");
  EXPECT_EQ(eevfs::lint::module_of("bench/harness.cpp"), "");
}

TEST(Lint, MetricsDocParserExtractsOnlyWellFormedNames) {
  const auto names =
      eevfs::lint::parse_metrics_doc(kFixtures + "/metrics_doc.md");
  EXPECT_EQ(names, std::set<std::string>{"ok.metric.count"});
}

TEST(Lint, UnreadableInputsThrow) {
  EXPECT_THROW(eevfs::lint::parse_metrics_doc(kFixtures + "/nope.md"),
               std::runtime_error);
  EXPECT_THROW(eevfs::lint::lint_file(kFixtures + "/nope.cpp", Options{}),
               std::runtime_error);
}

// ------------------------------------------------------- rule family D

TEST(Lint, DeterminismFixtureFiresExactRulesAndLines) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/sim/bad_determinism.cpp", Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {2, "D1"},   // #include <ctime>
      {3, "D3"},   // #include <random>
      {7, "D2"},   // unordered_map in a result-emitting file
      {8, "D1"},   // rand()
      {9, "D1"},   // srand()
      {10, "D1"},  // system_clock
      {11, "D1"},  // steady_clock
      {12, "D1"},  // std::time(nullptr)
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
  for (const auto& f : findings) {
    EXPECT_EQ(f.file, kFixtures + "/src/sim/bad_determinism.cpp");
  }
}

// ------------------------------------------------------- rule family L

TEST(Lint, LayeringFixtureRejectsUpwardAndUnqualifiedIncludes) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/util/bad_layering.cpp", Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {4, "L1"},  // util -> core (upward)
      {5, "L1"},  // util -> sim (upward)
      {6, "L2"},  // unqualified project include
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
  EXPECT_NE(findings[0].message.find("'util' must not include 'core'"),
            std::string::npos)
      << findings[0].message;
}

// ------------------------------------------------------- rule family O

TEST(Lint, ObservabilityFixtureChecksGrammarAndDocCoverage) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/core/bad_observability.cpp", doc_options());
  const std::vector<std::pair<int, std::string>> expected = {
      {3, "O1"},  // "BadName": uppercase, one segment
      {4, "O1"},  // two segments only
      {5, "O2"},  // well-formed but undocumented
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
}

TEST(Lint, ObservabilityDocCheckIsOptIn) {
  Options no_doc;  // check_docs = false: O1 still applies, O2 does not
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/core/bad_observability.cpp", no_doc);
  const std::vector<std::pair<int, std::string>> expected = {
      {3, "O1"},
      {4, "O1"},
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
}

// ------------------------------------------------------- rule family H

TEST(Lint, HeaderFixtureFiresPragmaOnceAndUsingNamespace) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/core/bad_header.hpp", Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {1, "H1"},  // missing #pragma once (reported at the top)
      {3, "H2"},  // using namespace std
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
}

TEST(Lint, OwnHeaderMustBeFirstInclude) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/core/own_header.cpp", Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {2, "H3"},  // <vector> before "core/own_header.hpp"
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
}

// ------------------------------------------------------- rule family U

TEST(Lint, UnitsFixtureFiresSuffixTypeAndConstantRules) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/disk/bad_units.cpp", Options{});
  const std::vector<std::pair<int, std::string>> expected = {
      {8, "U2"},   // double idle_watts
      {9, "U2"},   // int64_t spin_up_ms
      {10, "U2"},  // Tick deadline_ms (mislabelled microseconds)
      {11, "U3"},  // double response_time
      {18, "U1"},  // bare 1e6 (the suppressed copy at 20 is waived)
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
  EXPECT_NE(findings[0].message.find("Watts"), std::string::npos)
      << findings[0].message;
}

// ------------------------------------------------------- rule family E

TEST(Lint, EventFixtureFlagsOnlyTheDroppedHandle) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/disk/bad_event.cpp", Options{});
  // Bound, returned, (void)-discarded, and suppressed calls are all ok;
  // only the naked statement at line 11 is a drop.
  const std::vector<std::pair<int, std::string>> expected = {
      {11, "E1"},
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
  EXPECT_NE(findings[0].message.find("EventHandle"), std::string::npos);
}

// ------------------------------------------------------- rule family I

eevfs::lint::SymbolIndex fixture_index() {
  return eevfs::lint::build_symbol_index(kFixtures + "/src");
}

TEST(Lint, SymbolIndexRecordsDeclarationsIncludesAndOwnership) {
  const auto idx = fixture_index();
  ASSERT_NE(idx.headers.find("util/widget.hpp"), idx.headers.end());
  EXPECT_NE(idx.headers.at("util/widget.hpp").declared.count("Widget"), 0u);
  // chain.hpp reaches widget.hpp transitively (and itself).
  const auto& chain = idx.headers.at("util/chain.hpp");
  EXPECT_NE(chain.reach.count("util/widget.hpp"), 0u);
  EXPECT_NE(chain.reach.count("util/chain.hpp"), 0u);
  // Widget is declared by exactly one header.
  ASSERT_NE(idx.unique_owner.find("Widget"), idx.unique_owner.end());
  EXPECT_EQ(idx.unique_owner.at("Widget"), "util/widget.hpp");
}

TEST(Lint, DeclaredSymbolsHandlesTheCommonDeclarationShapes) {
  const auto syms = eevfs::lint::declared_symbols({
      "#define FIXTURE_FLAG 1",
      "namespace n {",
      "struct Record { int field = 0; };",
      "enum class Color { kRed, kGreen };",
      "using Alias = Record;",
      "Record make_record(int unrelated);",
      "}  // namespace n",
  });
  for (const char* s : {"FIXTURE_FLAG", "Record", "field", "Color", "kRed",
                        "kGreen", "Alias", "make_record"}) {
    EXPECT_NE(syms.count(s), 0u) << s;
  }
  EXPECT_EQ(syms.count("unrelated"), 0u);  // parameter, not a declaration
}

TEST(Lint, IncludeFixtureFlagsDeadAndTransitiveOnlyIncludes) {
  const auto idx = fixture_index();
  Options opt;
  opt.index = &idx;
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/core/bad_include.cpp", opt);
  const std::vector<std::pair<int, std::string>> expected = {
      {3, "I1"},   // obs/gadget.hpp: nothing it declares is used
      {10, "I2"},  // Widget comes via chain.hpp only
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
  EXPECT_NE(findings[1].message.find("'Widget'"), std::string::npos)
      << findings[1].message;
  EXPECT_NE(findings[1].message.find("util/widget.hpp"), std::string::npos);
}

TEST(Lint, IncludeRulesAreOffWithoutAnIndex) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/core/bad_include.cpp", Options{});
  EXPECT_TRUE(findings.empty());
}

TEST(Lint, IncludeSuppressionsWaiveBothRules) {
  const auto idx = fixture_index();
  Options opt;
  opt.index = &idx;
  EXPECT_TRUE(eevfs::lint::lint_file(
                  kFixtures + "/src/core/suppressed_include.cpp", opt)
                  .empty());
}

// -------------------------------------------------------- suppressions

TEST(Lint, SuppressionsWaiveFindingsOnlyForMatchingRules) {
  const auto findings = eevfs::lint::lint_file(
      kFixtures + "/src/core/suppressed.cpp", Options{});
  // Everything is allowed except the negative control: a D1 violation
  // carrying an L-family token must still be reported.
  const std::vector<std::pair<int, std::string>> expected = {
      {10, "D1"},
  };
  EXPECT_EQ(lines_and_rules(findings), expected);
}

// --------------------------------------------------------- clean files

TEST(Lint, CleanFixturesProduceZeroFindings) {
  EXPECT_TRUE(
      eevfs::lint::lint_file(kFixtures + "/src/core/clean.hpp", doc_options())
          .empty());
  EXPECT_TRUE(
      eevfs::lint::lint_file(kFixtures + "/src/core/clean.cpp", doc_options())
          .empty());
}

// ------------------------------------------------------ directory walk

TEST(Lint, DirectoryWalkIsDeterministicAndAggregatesAllFixtures) {
  const auto idx = fixture_index();
  Options opt = doc_options();
  opt.index = &idx;
  std::size_t scanned = 0;
  const auto findings =
      eevfs::lint::lint_paths({kFixtures + "/src"}, opt, &scanned);
  EXPECT_EQ(scanned, 17u);  // every .cpp/.hpp fixture, not metrics_doc.md
  // 8 (D) + 3 (L) + 3 (O) + 2 (H) + 1 (H3) + 1 (suppression control)
  // + 5 (U) + 1 (E) + 2 (I).
  EXPECT_EQ(findings.size(), 26u);
  // Deterministic order: sorted by path, then line, then rule.
  auto sorted = findings;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Finding& a, const Finding& b) {
                     return std::tie(a.file, a.line, a.rule) <
                            std::tie(b.file, b.line, b.rule);
                   });
  for (std::size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ(findings[i].file, sorted[i].file);
    EXPECT_EQ(findings[i].line, sorted[i].line);
  }
  // A second run returns the identical result.
  const auto again =
      eevfs::lint::lint_paths({kFixtures + "/src"}, opt, nullptr);
  ASSERT_EQ(again.size(), findings.size());
  for (std::size_t i = 0; i < findings.size(); ++i) {
    EXPECT_EQ(again[i].file, findings[i].file);
    EXPECT_EQ(again[i].line, findings[i].line);
    EXPECT_EQ(again[i].rule, findings[i].rule);
    EXPECT_EQ(again[i].message, findings[i].message);
  }
}

// ------------------------------------------------- whole-tree invariant

// The real tree must stay lint-clean under every rule family, with the
// same configuration lint_tree uses (docs check + symbol index).  Any
// new violation needs either a fix or an explicit, justified
// `// eevfs-lint: allow(<rule>)` waiver — never a file exemption.
TEST(Lint, RealTreeIsCleanUnderAllRuleFamilies) {
  const std::string root = EEVFS_SOURCE_ROOT;
  const auto idx = eevfs::lint::build_symbol_index(root + "/src");
  ASSERT_FALSE(idx.empty());
  Options opt;
  opt.check_docs = true;
  opt.documented_metrics =
      eevfs::lint::parse_metrics_doc(root + "/docs/observability.md");
  opt.index = &idx;
  std::size_t scanned = 0;
  const auto findings = eevfs::lint::lint_paths(
      {root + "/src", root + "/bench", root + "/examples", root + "/tests",
       root + "/tools"},
      opt, &scanned);
  EXPECT_GT(scanned, 100u);  // sanity: the walk really covered the tree
  for (const auto& f : findings) {
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;
  }
}

}  // namespace
