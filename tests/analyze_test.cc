// src/lint/analyze.h: pandia_lint's cross-file rules on synthetic
// multi-file trees — every drift rule fires in both directions with the
// right anchor line. The final test analyzes the real repo and requires
// zero findings, so the in-tree ctest and this unit suite can never drift
// apart.
//
// Fixture sources live in string literals, which the shared lexer blanks
// out of the code buffer — so this file being indexed by the real
// pandia_lint run cannot leak fixture facts into the repo's own inventory.
#include "src/lint/analyze.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace pandia {
namespace lint {
namespace {

std::vector<Finding> RunAnalyzer(const std::vector<SourceFile>& files) {
  return AnalyzeFiles(files).findings;
}

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

TEST(AnalyzerRegistry, ListsEveryCrossFileRule) {
  const std::vector<RuleInfo>& rules = AnalyzerRules();
  ASSERT_EQ(rules.size(), 2u);
  EXPECT_EQ(rules[0].name, "wire-verb-drift");
  EXPECT_EQ(rules[1].name, "metric-drift");
  for (const RuleInfo& rule : rules) EXPECT_FALSE(rule.summary.empty());
}

// --- wire-verb-drift -----------------------------------------------------

SourceFile WireHeader() {
  return {"src/serialize/wire.h",
          "inline constexpr std::string_view kVerbs[] = {\n"    // 1
          "    \"PING\", \"STATS\",\n"                          // 2
          "};\n"                                                // 3
          "inline constexpr std::string_view kJournalRecordVerbs[] = {\n"  // 4
          "    \"NOTED\",\n"                                    // 5
          "};\n"};                                              // 6
}

SourceFile ServiceDispatchingAll() {
  return {"src/serve/service.cc",
          "void Dispatch(const Request& request) {\n"
          "  if (request.verb == \"PING\") { return; }\n"
          "  if (request.verb == \"STATS\") { return; }\n"
          "}\n"
          "void Replay(const Record& record) {\n"
          "  if (record.verb == \"NOTED\") { return; }\n"
          "}\n"};
}

SourceFile FleetDispatching(const std::string& body) {
  return {"src/serve/fleet_service.cc",
          "void Dispatch(const Request& request) {\n" + body + "}\n"};
}

SourceFile DesignDocumenting(const std::string& text) {
  return {"DESIGN.md", text};
}

TEST(WireVerbDrift, DeclaredVerbMissingFromOneDispatcher) {
  const std::vector<Finding> findings = RunAnalyzer(
      {WireHeader(), ServiceDispatchingAll(),
       FleetDispatching("  if (request.verb == \"PING\") { return; }\n"),
       DesignDocumenting("Verbs: PING, STATS; journal records: NOTED.\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/serialize/wire.h");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "wire-verb-drift");
  EXPECT_TRUE(Contains(findings[0].message,
                       "verb STATS declared in the wire inventory but never "
                       "dispatched by src/serve/fleet_service.cc"))
      << findings[0].message;
}

TEST(WireVerbDrift, DispatchedVerbMissingFromTheInventory) {
  const std::vector<Finding> findings = RunAnalyzer(
      {WireHeader(), ServiceDispatchingAll(),
       FleetDispatching("  if (request.verb == \"PING\") { return; }\n"
                        "  if (request.verb == \"STATS\") { return; }\n"
                        "  if (request.verb == \"BOGUS\") { return; }\n"),
       DesignDocumenting("Verbs: PING, STATS; journal records: NOTED.\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/serve/fleet_service.cc");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_TRUE(Contains(findings[0].message,
                       "verb BOGUS dispatched by src/serve/fleet_service.cc "
                       "but missing from the wire.h verb inventory"))
      << findings[0].message;
}

TEST(WireVerbDrift, JournalVerbMustBeReplayedByTheService) {
  const std::vector<Finding> findings = RunAnalyzer(
      {WireHeader(),
       {"src/serve/service.cc",
        "void Dispatch(const Request& request) {\n"
        "  if (request.verb == \"PING\") { return; }\n"
        "  if (request.verb == \"STATS\") { return; }\n"
        "}\n"},  // no NOTED replay
       FleetDispatching("  if (request.verb == \"PING\") { return; }\n"
                        "  if (request.verb == \"STATS\") { return; }\n"),
       DesignDocumenting("Verbs: PING, STATS; journal records: NOTED.\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 5);  // NOTED's inventory line
  EXPECT_TRUE(Contains(findings[0].message,
                       "journal record verb NOTED declared in the wire "
                       "inventory but never replayed by src/serve/service.cc"))
      << findings[0].message;
}

TEST(WireVerbDrift, UndocumentedVerbOnlyWhenDesignPresent) {
  const std::vector<SourceFile> tree = {
      WireHeader(), ServiceDispatchingAll(),
      FleetDispatching("  if (request.verb == \"PING\") { return; }\n"
                       "  if (request.verb == \"STATS\") { return; }\n")};

  // Without DESIGN.md, no documentation findings.
  EXPECT_TRUE(RunAnalyzer(tree).empty());

  // With DESIGN.md missing STATS, exactly the documentation finding fires.
  std::vector<SourceFile> documented = tree;
  documented.push_back(DesignDocumenting("Verbs: PING; records: NOTED.\n"));
  const std::vector<Finding> findings = RunAnalyzer(documented);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/serialize/wire.h");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_TRUE(
      Contains(findings[0].message, "verb STATS is not documented in DESIGN.md"))
      << findings[0].message;
}

// --- metric-drift --------------------------------------------------------

TEST(MetricDrift, OneNameTwoInstrumentTypes) {
  const std::vector<Finding> findings = RunAnalyzer(
      {{"src/a/a.cc",
        "void A(Registry& r) { r.counter(\"dup.name\").Increment(); }\n"},
       {"src/b/b.cc",
        "void B(Registry& r) { r.gauge(\"dup.name\").Set(1.0); }\n"},
       DesignDocumenting("| `dup.name` | a metric |\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/b/b.cc");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[0].rule, "metric-drift");
  EXPECT_TRUE(Contains(findings[0].message,
                       "metric 'dup.name' registered as gauge here but as "
                       "counter at src/a/a.cc:1"))
      << findings[0].message;
}

TEST(MetricDrift, UndocumentedMetricFiresOnlyForSrcSites) {
  const std::vector<Finding> findings = RunAnalyzer(
      {{"src/a/a.cc",
        "void A(Registry& r) { r.counter(\"only.here\").Increment(); }\n"},
       {"tests/t.cc",
        "void T(Registry& r) { r.counter(\"test.only\").Increment(); }\n"},
       // allow() on the anchor line suppresses the finding.
       {"src/b/b.cc",
        "void B(Registry& r) { r.counter(\"b.quiet\").Increment(); }  "
        "// pandia-lint: allow(metric-drift) private debug counter\n"},
       DesignDocumenting("no inventory\n")});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].path, "src/a/a.cc");
  EXPECT_TRUE(Contains(findings[0].message,
                       "metric 'only.here' is registered but missing from "
                       "DESIGN.md's metric inventory"))
      << findings[0].message;
}

TEST(MetricDrift, NoDesignMeansNoDocumentationFindings) {
  EXPECT_TRUE(
      RunAnalyzer({{"src/a/a.cc",
            "void A(Registry& r) { r.counter(\"only.here\").Increment(); }\n"}})
          .empty());
}

// --- the real repo -------------------------------------------------------

#ifdef PANDIA_SOURCE_DIR

// The tree must analyze clean — the same invariant the pandia_lint ctest
// enforces, exercised here through the library API so the engine tests and
// the in-tree gate cannot drift apart.
TEST(WholeRepo, AnalyzesCleanWithSaneFacts) {
  namespace fs = std::filesystem;
  const fs::path root(PANDIA_SOURCE_DIR);
  std::vector<SourceFile> files;
  for (const char* dir : {"src", "tests", "tools"}) {
    for (fs::recursive_directory_iterator it(root / dir), end; it != end;
         ++it) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext != ".h" && ext != ".cc") continue;
      std::ifstream in(it->path(), std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      files.push_back(
          SourceFile{fs::relative(it->path(), root).generic_string(),
                     buffer.str()});
    }
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  {
    std::ifstream in(root / "DESIGN.md", std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    files.push_back(SourceFile{"DESIGN.md", buffer.str()});
  }

  const AnalyzeResult result = AnalyzeFiles(files);
  for (const Finding& finding : result.findings) {
    ADD_FAILURE() << FormatFinding(finding);
  }

  // Sanity on the fact index: the repo's protocol is 10 verbs, the journal
  // has record verbs, and src/ registers metrics.
  EXPECT_EQ(result.facts.declared_verbs.size(), 10u);
  EXPECT_FALSE(result.facts.journal_verbs.empty());
  EXPECT_FALSE(result.facts.metric_sites.empty());
}

#endif  // PANDIA_SOURCE_DIR

}  // namespace
}  // namespace lint
}  // namespace pandia
