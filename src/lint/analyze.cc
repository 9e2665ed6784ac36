#include "src/lint/analyze.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/lint/lexer.h"

namespace pandia {
namespace lint {
namespace {

// ---------------------------------------------------------------------------
// Small text utilities over the blanked `code` buffer.

bool IsBlank(char c) { return c == ' ' || c == '\t' || c == '\n' || c == '\r'; }

// Last non-blank position strictly before `pos`, or npos.
size_t PrevNonBlank(std::string_view text, size_t pos) {
  while (pos > 0) {
    --pos;
    if (!IsBlank(text[pos])) return pos;
  }
  return std::string_view::npos;
}

// The identifier ending at `end` (inclusive); empty if text[end] is not an
// identifier character.
std::string_view IdentEndingAt(std::string_view text, size_t end) {
  if (end == std::string_view::npos || !IsIdentChar(text[end])) return {};
  size_t start = end;
  while (start > 0 && IsIdentChar(text[start - 1])) --start;
  return text.substr(start, end - start + 1);
}

// Position of the delimiter matching the opener at `open` ('(' / '{' / '<'),
// or npos. Operates on the blanked code buffer, so delimiters inside strings
// and comments cannot confuse the count.
size_t MatchDelim(std::string_view text, size_t open, char open_c, char close_c) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == open_c) ++depth;
    if (text[i] == close_c && --depth == 0) return i;
  }
  return std::string_view::npos;
}

bool IsUpperVerb(std::string_view text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (!((c >= 'A' && c <= 'Z') || c == '-')) return false;
  }
  return true;
}

// Whole-token occurrence of `token` anywhere in free text (used against
// DESIGN.md prose).
bool TextHasToken(std::string_view text, std::string_view token) {
  return FindToken(text, token, 0) != std::string_view::npos;
}

// ---------------------------------------------------------------------------
// Indexed file: one lex per file, shared by fact extraction and the rules.

struct IndexedFile {
  const SourceFile* source = nullptr;
  SeparatedSource sep;
  std::map<int, std::set<std::string>> allows;

  explicit IndexedFile(const SourceFile& file)
      : source(&file), sep(Separate(file.content)) {
    allows = CollectAllows(SplitLines(sep.comments));
  }

  std::string_view path() const { return source->path; }
  std::string_view code() const { return sep.code; }
};

std::vector<IndexedFile> BuildIndex(const std::vector<SourceFile>& files) {
  std::vector<IndexedFile> indexed;
  indexed.reserve(files.size());
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, ".h") || EndsWith(file.path, ".cc")) {
      indexed.emplace_back(file);
    }
  }
  return indexed;
}

// ---------------------------------------------------------------------------
// Fact extraction.

// Wire-verb facts: the kVerbs / kJournalRecordVerbs inventory arrays, and
// every `<chain>.verb == "X"` / `!= "X"` dispatch comparison.
void IndexVerbs(const IndexedFile& file, RepoFacts* facts) {
  std::string_view code = file.code();
  struct ArraySpec {
    std::string_view token;
    std::vector<VerbSite>* out;
  };
  ArraySpec arrays[] = {{"kVerbs", &facts->declared_verbs},
                        {"kJournalRecordVerbs", &facts->journal_verbs}};
  for (const ArraySpec& spec : arrays) {
    for (size_t pos = FindToken(code, spec.token, 0);
         pos != std::string_view::npos;
         pos = FindToken(code, spec.token, pos + 1)) {
      // `kVerbs[] = {` — accept any run of `[`, `]`, `=`, blanks between the
      // name and the brace, stopping at anything else (e.g. a use site).
      size_t p = pos + spec.token.size();
      while (p < code.size() &&
             (IsBlank(code[p]) || code[p] == '[' || code[p] == ']' ||
              code[p] == '=')) {
        ++p;
      }
      if (p >= code.size() || code[p] != '{') continue;
      size_t close = MatchDelim(code, p, '{', '}');
      if (close == std::string_view::npos) continue;
      for (const Literal& lit : file.sep.literals) {
        if (lit.offset > p && lit.offset < close && IsUpperVerb(lit.text)) {
          spec.out->push_back(
              VerbSite{lit.text, std::string(file.path()), lit.line});
        }
      }
    }
  }

  for (const Literal& lit : file.sep.literals) {
    if (!IsUpperVerb(lit.text)) continue;
    size_t p = PrevNonBlank(code, lit.offset);
    if (p == std::string_view::npos || p == 0 || code[p] != '=') continue;
    if (code[p - 1] != '=' && code[p - 1] != '!') continue;
    std::string_view lhs = IdentEndingAt(code, PrevNonBlank(code, p - 1));
    if (lhs != "verb") continue;
    facts->dispatched_verbs[std::string(file.path())].push_back(
        VerbSite{lit.text, std::string(file.path()), lit.line});
  }
}

// Metric registrations: a string literal directly inside counter(/gauge(/
// histogram(.
void IndexMetrics(const IndexedFile& file, RepoFacts* facts) {
  std::string_view code = file.code();
  for (const Literal& lit : file.sep.literals) {
    size_t p = PrevNonBlank(code, lit.offset);
    if (p == std::string_view::npos || code[p] != '(') continue;
    std::string_view call = IdentEndingAt(code, PrevNonBlank(code, p));
    if (call != "counter" && call != "gauge" && call != "histogram") continue;
    facts->metric_sites.push_back(MetricSite{
        lit.text, std::string(call), std::string(file.path()), lit.line});
  }
}

// ---------------------------------------------------------------------------
// Rules.

class FindingSink {
 public:
  explicit FindingSink(const std::vector<IndexedFile>& files) {
    for (const IndexedFile& file : files) {
      allows_[std::string(file.path())] = &file.allows;
    }
  }

  void Report(std::string_view file, int line, std::string_view rule,
              std::string message) {
    auto fit = allows_.find(std::string(file));
    if (fit != allows_.end()) {
      auto lit = fit->second->find(line);
      if (lit != fit->second->end() &&
          lit->second.count(std::string(rule)) > 0) {
        return;
      }
    }
    findings_.push_back(
        Finding{std::string(file), line, std::string(rule), std::move(message)});
  }

  std::vector<Finding> Take() {
    std::stable_sort(findings_.begin(), findings_.end(),
                     [](const Finding& a, const Finding& b) {
                       if (a.path != b.path) return a.path < b.path;
                       if (a.line != b.line) return a.line < b.line;
                       return a.rule < b.rule;
                     });
    return std::move(findings_);
  }

 private:
  // path -> line -> allowed rules (borrowed from the indexed files)
  std::map<std::string, const std::map<int, std::set<std::string>>*> allows_;
  std::vector<Finding> findings_;
};

void CheckWireVerbDrift(const std::vector<IndexedFile>& files,
                        const RepoFacts& facts, FindingSink* sink) {
  if (facts.declared_verbs.empty()) return;

  auto find_file = [&](std::string_view suffix) -> std::string {
    for (const IndexedFile& file : files) {
      if (EndsWith(file.path(), suffix)) return std::string(file.path());
    }
    return {};
  };
  const std::string service = find_file("serve/service.cc");
  const std::string fleet = find_file("serve/fleet_service.cc");

  auto dispatched_in = [&](const std::string& path, std::string_view verb) {
    auto it = facts.dispatched_verbs.find(path);
    if (it == facts.dispatched_verbs.end()) return false;
    for (const VerbSite& site : it->second) {
      if (site.verb == verb) return true;
    }
    return false;
  };

  // Clients reach every wire verb through the one front door; the shard
  // behind it replays the journal record verbs.
  for (const VerbSite& verb : facts.declared_verbs) {
    if (!fleet.empty() && !dispatched_in(fleet, verb.verb)) {
      sink->Report(verb.file, verb.line, "wire-verb-drift",
                   "verb " + verb.verb +
                       " declared in the wire inventory but never "
                       "dispatched by " +
                       fleet);
    }
  }
  for (const VerbSite& verb : facts.journal_verbs) {
    if (!service.empty() && !dispatched_in(service, verb.verb)) {
      sink->Report(verb.file, verb.line, "wire-verb-drift",
                   "journal record verb " + verb.verb +
                       " declared in the wire inventory but never replayed "
                       "by " +
                       service);
    }
  }

  auto declared = [&](std::string_view verb) {
    for (const VerbSite& site : facts.declared_verbs) {
      if (site.verb == verb) return true;
    }
    for (const VerbSite& site : facts.journal_verbs) {
      if (site.verb == verb) return true;
    }
    return false;
  };
  for (const std::string& dispatcher : {service, fleet}) {
    if (dispatcher.empty()) continue;
    auto it = facts.dispatched_verbs.find(dispatcher);
    if (it == facts.dispatched_verbs.end()) continue;
    std::set<std::string> reported;
    for (const VerbSite& site : it->second) {
      if (declared(site.verb) || !reported.insert(site.verb).second) continue;
      sink->Report(site.file, site.line, "wire-verb-drift",
                   "verb " + site.verb + " dispatched by " + dispatcher +
                       " but missing from the wire.h verb inventory");
    }
  }

  if (facts.has_design) {
    for (const std::vector<VerbSite>* inventory :
         {&facts.declared_verbs, &facts.journal_verbs}) {
      for (const VerbSite& verb : *inventory) {
        if (!TextHasToken(facts.design_text, verb.verb)) {
          sink->Report(verb.file, verb.line, "wire-verb-drift",
                       "verb " + verb.verb +
                           " is not documented in DESIGN.md");
        }
      }
    }
  }
}

void CheckMetricDrift(const RepoFacts& facts, FindingSink* sink) {
  std::map<std::string, std::vector<const MetricSite*>> by_name;
  for (const MetricSite& site : facts.metric_sites) {
    if (!StartsWith(site.file, "src/")) continue;  // fixtures/tests exempt
    by_name[site.name].push_back(&site);
  }
  for (const auto& [name, sites] : by_name) {
    const MetricSite* first = sites.front();
    for (const MetricSite* site : sites) {
      if (site->instrument != first->instrument) {
        sink->Report(site->file, site->line, "metric-drift",
                     "metric '" + name + "' registered as " +
                         site->instrument + " here but as " +
                         first->instrument + " at " + first->file + ":" +
                         std::to_string(first->line) +
                         "; one name, one instrument type");
        break;
      }
    }
    if (facts.has_design &&
        facts.design_text.find(name) == std::string::npos) {
      sink->Report(first->file, first->line, "metric-drift",
                   "metric '" + name +
                       "' is registered but missing from DESIGN.md's metric "
                       "inventory");
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& AnalyzerRules() {
  static const std::vector<RuleInfo>* rules = new std::vector<RuleInfo>{
      {"wire-verb-drift",
       "wire.h's verb inventory, the front door, the journal replay, and "
       "DESIGN.md must agree"},
      {"metric-drift",
       "each metric name has one instrument type and a DESIGN.md inventory "
       "row"},
  };
  return *rules;
}

AnalyzeResult AnalyzeFiles(const std::vector<SourceFile>& files) {
  AnalyzeResult result;
  for (const SourceFile& file : files) {
    if (EndsWith(file.path, "DESIGN.md")) {
      result.facts.design_text = file.content;
      result.facts.has_design = true;
    }
  }
  const std::vector<IndexedFile> indexed = BuildIndex(files);
  for (const IndexedFile& file : indexed) {
    IndexVerbs(file, &result.facts);
    IndexMetrics(file, &result.facts);
  }
  FindingSink sink(indexed);
  CheckWireVerbDrift(indexed, result.facts, &sink);
  CheckMetricDrift(result.facts, &sink);
  result.findings = sink.Take();
  return result;
}

}  // namespace lint
}  // namespace pandia
