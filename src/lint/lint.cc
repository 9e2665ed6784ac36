#include "src/lint/lint.h"

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

// True for time(nullptr) / time(NULL) — the classic unseeded-clock seed.
bool HasTimeNullCall(std::string_view line) {
  for (size_t pos = FindToken(line, "time", 0); pos != std::string_view::npos;
       pos = FindToken(line, "time", pos + 1)) {
    size_t after = pos + 4;
    auto skip_ws = [&] {
      while (after < line.size() && (line[after] == ' ' || line[after] == '\t')) {
        ++after;
      }
    };
    skip_ws();
    if (after >= line.size() || line[after] != '(') continue;
    ++after;
    skip_ws();
    std::string_view rest = line.substr(after);
    std::string_view arg;
    if (StartsWith(rest, "nullptr")) {
      arg = "nullptr";
    } else if (StartsWith(rest, "NULL")) {
      arg = "NULL";
    } else {
      continue;
    }
    after += arg.size();
    skip_ws();
    if (after < line.size() && line[after] == ')') return true;
  }
  return false;
}

struct Sink {
  std::string_view path;
  const std::map<int, std::set<std::string>>* allows;
  std::vector<Finding>* findings;

  void Report(int line, std::string_view rule, std::string message) const {
    auto it = allows->find(line);
    if (it != allows->end() && it->second.count(std::string(rule)) > 0) return;
    findings->push_back(Finding{std::string(path), line, std::string(rule),
                                std::move(message)});
  }
};

// naked-mutex — raw standard-library locking primitives anywhere but the one
// wrapper header that owns them.
void CheckNakedMutex(const Sink& sink,
                     const std::vector<std::string_view>& code_lines) {
  if (EndsWith(sink.path, "util/mutex.h")) return;
  static constexpr std::string_view kTypes[] = {
      "mutex",          "timed_mutex", "recursive_mutex", "shared_mutex",
      "lock_guard",     "unique_lock", "scoped_lock",     "condition_variable",
      "condition_variable_any",
  };
  static constexpr std::string_view kIncludes[] = {
      "<mutex>", "<condition_variable>", "<shared_mutex>"};
  for (size_t li = 0; li < code_lines.size(); ++li) {
    std::string_view line = code_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    for (std::string_view type : kTypes) {
      // Only the std:: spellings are banned; pandia::util::Mutex is the
      // replacement and unrelated identifiers may reuse these words.
      size_t pos = line.find("std::");
      bool hit = false;
      for (; pos != std::string_view::npos && !hit;
           pos = line.find("std::", pos + 1)) {
        std::string_view after = line.substr(pos + 5);
        if (StartsWith(after, type) &&
            (after.size() == type.size() || !IsIdentChar(after[type.size()]))) {
          hit = true;
        }
      }
      if (hit) {
        sink.Report(lineno, "naked-mutex",
                    "std::" + std::string(type) +
                        " outside src/util/mutex.h; use the annotated "
                        "pandia::util::Mutex/MutexLock/CondVar so thread-safety "
                        "analysis sees the acquisition");
      }
    }
    for (std::string_view inc : kIncludes) {
      if (line.find(inc) != std::string_view::npos) {
        sink.Report(lineno, "naked-mutex",
                    "#include " + std::string(inc) +
                        " outside src/util/mutex.h; include "
                        "\"src/util/mutex.h\" instead");
      }
    }
  }
}

// no-abort — library code reports Status; it does not kill the process or
// throw past the API boundary.
void CheckNoAbort(const Sink& sink,
                  const std::vector<std::string_view>& code_lines) {
  if (!StartsWith(sink.path, "src/")) return;
  for (size_t li = 0; li < code_lines.size(); ++li) {
    std::string_view line = code_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    if (HasCall(line, "abort")) {
      sink.Report(lineno, "no-abort",
                  "abort() in library code; return a pandia::Status "
                  "(or use PANDIA_CHECK for contract violations)");
    }
    if (HasCall(line, "exit")) {
      sink.Report(lineno, "no-abort",
                  "exit() in library code; only tool main()s may choose the "
                  "process exit code");
    }
    if (HasToken(line, "throw")) {
      sink.Report(lineno, "no-abort",
                  "throw in library code; the Pandia libraries are "
                  "exception-free and propagate errors via Status");
    }
  }
}

// unseeded-rand — all randomness flows through the seeded src/util/rng so
// runs are reproducible.
void CheckUnseededRand(const Sink& sink,
                       const std::vector<std::string_view>& code_lines) {
  if (sink.path.find("src/util/rng") != std::string_view::npos) return;
  for (size_t li = 0; li < code_lines.size(); ++li) {
    std::string_view line = code_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    if (HasCall(line, "rand") || HasCall(line, "srand")) {
      sink.Report(lineno, "unseeded-rand",
                  "rand()/srand(); use the seeded pandia::Rng "
                  "(src/util/rng.h) so runs are reproducible");
    }
    if (HasToken(line, "random_device")) {
      sink.Report(lineno, "unseeded-rand",
                  "std::random_device is non-deterministic; seed a "
                  "pandia::Rng explicitly");
    }
    if (HasTimeNullCall(line)) {
      sink.Report(lineno, "unseeded-rand",
                  "time(nullptr) seeding breaks reproducibility; thread an "
                  "explicit seed through options");
    }
  }
}

// unordered-wire — serialization and service output iterate ordered
// containers only, so wire bytes and STATUS text never depend on hash order.
void CheckUnorderedWire(const Sink& sink,
                        const std::vector<std::string_view>& code_lines) {
  if (!StartsWith(sink.path, "src/serialize/") &&
      !StartsWith(sink.path, "src/serve/")) {
    return;
  }
  static constexpr std::string_view kContainers[] = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  for (size_t li = 0; li < code_lines.size(); ++li) {
    std::string_view line = code_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    for (std::string_view container : kContainers) {
      if (HasToken(line, container)) {
        sink.Report(lineno, "unordered-wire",
                    std::string(container) +
                        " in a serialization/wire path; iteration order feeds "
                        "output bytes — use std::map/std::set or sort first");
      }
    }
  }
}

// subsystem.dotted_lowercase: two or more dot-separated segments, each
// [a-z][a-z0-9_]*.
bool IsValidMetricName(std::string_view name) {
  int segments = 0;
  size_t start = 0;
  while (start <= name.size()) {
    const size_t dot = name.find('.', start);
    const std::string_view segment = dot == std::string_view::npos
                                         ? name.substr(start)
                                         : name.substr(start, dot - start);
    if (segment.empty() || segment.front() < 'a' || segment.front() > 'z') {
      return false;
    }
    for (char c : segment) {
      if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_')) {
        return false;
      }
    }
    ++segments;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  return segments >= 2;
}

// metric-name — instrument names registered at counter( / gauge( /
// histogram( call sites follow the subsystem.dotted_lowercase convention.
// The code buffer has literals blanked, so the call structure is located in
// `code_lines` and the name itself read back from the raw source at the
// same byte offsets. Only complete single-literal arguments are checked:
// concatenations and variables (dynamic names) are out of this rule's
// reach, as are literals wrapped onto the next line.
void CheckMetricName(const Sink& sink,
                     const std::vector<std::string_view>& code_lines,
                     const std::vector<std::string_view>& raw_lines) {
  static constexpr std::string_view kCalls[] = {"counter", "gauge", "histogram"};
  for (size_t li = 0; li < code_lines.size() && li < raw_lines.size(); ++li) {
    std::string_view code = code_lines[li];
    std::string_view raw = raw_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    for (std::string_view call : kCalls) {
      for (size_t pos = FindToken(code, call, 0); pos != std::string_view::npos;
           pos = FindToken(code, call, pos + 1)) {
        size_t after = pos + call.size();
        while (after < code.size() && (code[after] == ' ' || code[after] == '\t')) {
          ++after;
        }
        if (after >= code.size() || code[after] != '(') continue;
        ++after;
        while (after < raw.size() && (raw[after] == ' ' || raw[after] == '\t')) {
          ++after;
        }
        if (after >= raw.size() || raw[after] != '"') continue;
        size_t end = after + 1;
        std::string name;
        bool terminated = false;
        while (end < raw.size()) {
          if (raw[end] == '"') {
            terminated = true;
            break;
          }
          if (raw[end] == '\\' && end + 1 < raw.size()) {
            ++end;  // escaped char: keep scanning; the name is judged as-is
          }
          name += raw[end];
          ++end;
        }
        if (!terminated) continue;
        size_t next = end + 1;
        while (next < raw.size() && (raw[next] == ' ' || raw[next] == '\t')) {
          ++next;
        }
        // The literal must be the whole argument; "a" + suffix is dynamic.
        if (next >= raw.size() || (raw[next] != ',' && raw[next] != ')')) {
          continue;
        }
        if (!IsValidMetricName(name)) {
          sink.Report(lineno, "metric-name",
                      "instrument name '" + name +
                          "' is not subsystem.dotted_lowercase (two or more "
                          "dot-separated [a-z][a-z0-9_]* segments)");
        }
      }
    }
  }
}

// no-raw-journal-io — the Journal class (src/serve/journal.cc) owns every
// byte of journal file I/O: checksummed framing, fsync policy, and atomic
// compaction all live behind its API, so any direct stdio/fd call on a
// journal file elsewhere in src/serve/ is a durability bug waiting to
// happen (an unframed write corrupts the log; an unsynced one breaks the
// recovery contract).
void CheckNoRawJournalIo(const Sink& sink,
                         const std::vector<std::string_view>& code_lines) {
  if (!StartsWith(sink.path, "src/serve/")) return;
  if (EndsWith(sink.path, "serve/journal.cc")) return;
  static constexpr std::string_view kCalls[] = {
      "fopen",  "freopen", "fwrite", "fprintf",   "fputs",     "fputc",
      "fflush", "fclose",  "fread",  "fscanf",    "fsync",     "fdatasync",
      "ftruncate", "truncate", "rename",
  };
  for (size_t li = 0; li < code_lines.size(); ++li) {
    std::string_view line = code_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    for (std::string_view call : kCalls) {
      if (HasCall(line, call)) {
        sink.Report(lineno, "no-raw-journal-io",
                    std::string(call) +
                        "() in src/serve/ outside journal.cc; all journal "
                        "file I/O goes through serve::Journal (checksummed "
                        "framing, fsync policy, atomic compaction)");
      }
    }
  }
}

// no-raw-poll-io — the Poller and the socket helpers in
// src/serve/socket.cc (plus the shared plumbing in socket_internal.h) own
// every raw event-loop and socket-creation syscall. A stray poll() or
// socket() elsewhere is a second event-loop entry point: it bypasses the
// nonblocking/backpressure/pipelining contracts the one loop enforces.
void CheckNoRawPollIo(const Sink& sink,
                      const std::vector<std::string_view>& code_lines) {
  if (!StartsWith(sink.path, "src/")) return;
  if (EndsWith(sink.path, "serve/socket.cc") ||
      EndsWith(sink.path, "serve/socket_internal.h")) {
    return;
  }
  static constexpr std::string_view kCalls[] = {
      "epoll_create", "epoll_create1", "epoll_ctl", "epoll_wait",
      "poll",         "ppoll",         "select",    "socket",
      "accept",       "accept4",
  };
  for (size_t li = 0; li < code_lines.size(); ++li) {
    std::string_view line = code_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    for (std::string_view call : kCalls) {
      if (HasCall(line, call)) {
        sink.Report(lineno, "no-raw-poll-io",
                    std::string(call) +
                        "() outside src/serve/socket.cc and "
                        "socket_internal.h; event-loop and socket syscalls "
                        "go through the Poller/SocketServer/Client "
                        "abstractions so the one event loop keeps its "
                        "nonblocking and backpressure contracts");
      }
    }
  }
}

// todo-owner — every TODO(owner) must actually name the owner.
void CheckTodoOwner(const Sink& sink,
                    const std::vector<std::string_view>& comment_lines) {
  for (size_t li = 0; li < comment_lines.size(); ++li) {
    std::string_view line = comment_lines[li];
    const int lineno = static_cast<int>(li) + 1;
    for (size_t pos = FindToken(line, "TODO", 0); pos != std::string_view::npos;
         pos = FindToken(line, "TODO", pos + 1)) {
      size_t after = pos + 4;
      bool owned = false;
      if (after < line.size() && line[after] == '(') {
        size_t close = line.find(')', after + 1);
        owned = close != std::string_view::npos && close > after + 1;
      }
      if (!owned) {
        sink.Report(lineno, "todo-owner",
                    "TODO without an owner; write TODO(name): ...");
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo>* rules = new std::vector<RuleInfo>{
      {"naked-mutex",
       "std::mutex/lock_guard/condition_variable et al. only in "
       "src/util/mutex.h; use pandia::util::Mutex elsewhere"},
      {"no-abort",
       "no abort()/exit()/throw in src/ library code; errors are Status"},
      {"unseeded-rand",
       "no rand()/srand()/std::random_device/time(nullptr) outside "
       "src/util/rng; randomness is seeded"},
      {"unordered-wire",
       "no unordered containers in src/serialize/ or src/serve/; wire and "
       "STATUS output must not depend on hash order"},
      {"no-raw-journal-io",
       "no direct file I/O (fopen/fwrite/fflush/fsync/rename/...) in "
       "src/serve/ outside journal.cc; the Journal class owns every journal "
       "byte"},
      {"no-raw-poll-io",
       "no raw event-loop/socket syscalls (epoll_*/poll/select/socket/"
       "accept) in src/ outside serve/socket.cc and socket_internal.h; the "
       "Poller is the only event-loop entry point"},
      {"todo-owner", "TODO comments must name an owner: TODO(name): ..."},
      {"metric-name",
       "instrument names at counter(/gauge(/histogram( call sites follow "
       "subsystem.dotted_lowercase"},
  };
  return *rules;
}

std::vector<Finding> LintFile(std::string_view path, std::string_view content) {
  SeparatedSource source = Separate(content);
  std::vector<std::string_view> code_lines = SplitLines(source.code);
  std::vector<std::string_view> comment_lines = SplitLines(source.comments);
  std::vector<std::string_view> raw_lines = SplitLines(content);
  std::map<int, std::set<std::string>> allows = CollectAllows(comment_lines);

  std::vector<Finding> findings;
  Sink sink{path, &allows, &findings};
  CheckNakedMutex(sink, code_lines);
  CheckNoAbort(sink, code_lines);
  CheckUnseededRand(sink, code_lines);
  CheckUnorderedWire(sink, code_lines);
  CheckNoRawJournalIo(sink, code_lines);
  CheckNoRawPollIo(sink, code_lines);
  CheckTodoOwner(sink, comment_lines);
  CheckMetricName(sink, code_lines, raw_lines);

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

std::string FormatFinding(const Finding& finding) {
  return finding.path + ":" + std::to_string(finding.line) + ": " +
         finding.rule + ": " + finding.message;
}

}  // namespace lint
}  // namespace pandia
