// The cross-file rules of pandia_lint.
//
// Where the per-line rules (src/lint/lint.h) judge one line of one file at a
// time, these rules compare facts gathered from the whole tree. Every file
// is lexed with the shared lexer (src/lint/lexer.h) and distilled into
// RepoFacts:
//   - the wire-verb inventory (wire::kVerbs / wire::kJournalRecordVerbs)
//     vs. the verbs each dispatcher actually compares against;
//   - metric-name literals at counter(/gauge(/histogram( call sites;
//   - the raw text of DESIGN.md, when present, as the documented protocol
//     and metric inventory.
// Then the rules run over the facts:
//     wire-verb-drift   a wire verb the front door (serve/fleet_service.cc)
//                       does not dispatch, a journal record verb the shard
//                       (serve/service.cc) does not replay, a verb either
//                       compares against but nobody declared, or a verb
//                       undocumented in DESIGN.md.
//     metric-drift      one metric name under two instrument types, or
//                       registered but missing from DESIGN.md's inventory.
//
// Findings reuse lint::Finding and the per-line escape hatch:
//   // pandia-lint: allow(<rule>) <why>
// on the anchor line of a finding suppresses it.
//
// The engine is file-content-driven (no filesystem access) so tests feed it
// synthetic multi-file trees; tools/pandia_lint.cc walks the real repo.
#ifndef PANDIA_SRC_LINT_ANALYZE_H_
#define PANDIA_SRC_LINT_ANALYZE_H_

#include <map>
#include <string>
#include <vector>

#include "src/lint/lint.h"

namespace pandia {
namespace lint {

// One input file: repo-relative forward-slash path + full content. Paths
// matter: rules scope by them (e.g. which file is a dispatcher).
struct SourceFile {
  std::string path;
  std::string content;
};

// A wire-verb literal: either an inventory entry in wire.h or a dispatch
// comparison (`request.verb == "ADMIT"`) in a service.
struct VerbSite {
  std::string verb;
  std::string file;
  int line = 0;
};

// A metric registration: a name literal at a counter(/gauge(/histogram(
// call site.
struct MetricSite {
  std::string name;
  std::string instrument;  // "counter", "gauge", or "histogram"
  std::string file;
  int line = 0;
};

// Everything the cross-file rules know about the tree.
struct RepoFacts {
  std::vector<VerbSite> declared_verbs;        // wire::kVerbs
  std::vector<VerbSite> journal_verbs;         // wire::kJournalRecordVerbs
  std::map<std::string, std::vector<VerbSite>> dispatched_verbs;  // by file
  std::vector<MetricSite> metric_sites;
  std::string design_text;  // raw DESIGN.md; empty when absent
  bool has_design = false;
};

// The cross-file rules (names accepted by allow()).
const std::vector<RuleInfo>& AnalyzerRules();

struct AnalyzeResult {
  RepoFacts facts;
  std::vector<Finding> findings;  // sorted by (file, line)
};

// Indexes the tree and runs the cross-file rules. A file whose path ends in
// "DESIGN.md" is taken as the documentation inventory; .h/.cc files are
// lexed; anything else is ignored.
AnalyzeResult AnalyzeFiles(const std::vector<SourceFile>& files);

}  // namespace lint
}  // namespace pandia

#endif  // PANDIA_SRC_LINT_ANALYZE_H_
