// pandia_lint — the repo-invariant checker's rule engine.
//
// A fast token/line-level linter for the Pandia tree. It is not a compiler:
// it lexes each file just far enough to separate code from comments and
// string/char literals (so a rule never fires on its own name appearing in a
// doc comment or a test fixture string), then runs a fixed set of rules over
// the code text line by line. The rules encode repo invariants that generic
// tooling does not know about:
//
//   naked-mutex     std::mutex / lock_guard / condition_variable et al. are
//                   reserved for src/util/mutex.h; everything else uses the
//                   annotated pandia::util::Mutex so Clang thread-safety
//                   analysis sees every acquisition.
//   no-abort        library code under src/ reports errors via Status, never
//                   abort()/exit()/throw. (PANDIA_CHECK's own abort carries
//                   an explicit allow.)
//   unseeded-rand   rand()/srand()/std::random_device/time(nullptr) outside
//                   src/util/rng break run-to-run determinism; all
//                   randomness flows through the seeded Rng.
//   unordered-wire  unordered containers in src/serialize/ or src/serve/
//                   risk hash-order-dependent wire output; serialization
//                   paths iterate ordered containers only.
//   no-raw-journal-io  direct file I/O in src/serve/ outside journal.cc;
//                   serve::Journal owns framing, fsync policy, compaction.
//   no-raw-poll-io  raw event-loop/socket syscalls (epoll_*/poll/select/
//                   socket/accept) outside serve/socket.cc and
//                   socket_internal.h; the Poller is the one event loop.
//   todo-owner      TODOs must name an owner: TODO(name): ...
//   metric-name     instrument names at counter(/gauge(/histogram( sites
//                   follow subsystem.dotted_lowercase.
//
// The cross-file rules (wire-verb-drift, metric-drift) live in
// src/lint/analyze.h; tools/pandia_lint.cc runs both sets in one pass.
//
// Any finding can be suppressed on its line with a trailing comment:
//
//   std::mutex raw_;  // pandia-lint: allow(naked-mutex) interop with libfoo
//
// The engine is a library so tests can feed it synthetic files directly;
// tools/pandia_lint.cc is the CLI that walks the tree.
#ifndef PANDIA_SRC_LINT_LINT_H_
#define PANDIA_SRC_LINT_LINT_H_

#include <string>
#include <string_view>
#include <vector>

namespace pandia {
namespace lint {

struct Finding {
  std::string path;
  int line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct RuleInfo {
  std::string_view name;
  std::string_view summary;
};

// The registered rules, in the order they run. Names are the identifiers
// accepted by `pandia-lint: allow(<name>)` and printed in findings.
const std::vector<RuleInfo>& Rules();

// Lints one file. `path` should be the repo-relative path with forward
// slashes (e.g. "src/serve/service.cc"): rules use it for scoping (which
// rules apply) and exemptions (which files are allowed to violate them).
// Findings come back in line order; allow()-suppressed findings are dropped.
std::vector<Finding> LintFile(std::string_view path, std::string_view content);

// "path:line: rule: message" — the single-line diagnostic format.
std::string FormatFinding(const Finding& finding);

}  // namespace lint
}  // namespace pandia

#endif  // PANDIA_SRC_LINT_LINT_H_
