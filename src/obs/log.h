// Structured, leveled, thread-safe event log for long-running processes
// (the serving daemon foremost). Events are a site, a level, a message, and
// ordered key=value fields, rendered as one line per event:
//
//   [12.345678] W serve.journal append failed path=/tmp/j.wire errno=28
//
// Design points:
//   - The disabled path costs one relaxed atomic load: Log() compares the
//     event level against min_level_ before touching anything else, so a
//     Debug event under the default Info threshold is effectively free
//     (same discipline as obs::Tracer's disabled spans).
//   - Per-site rate limiting: each site (a stable string literal naming the
//     call site, e.g. "serve.journal") may emit at most `burst` events per
//     `window`; further events in the window are dropped and accounted, and
//     the first event of the next window reports `suppressed=N`. A hot
//     error path can therefore log unconditionally without flooding.
//   - Sink: stderr by default; SetStream() redirects it. Sink writes
//     happen under the log mutex — events from concurrent threads never
//     interleave mid-line.
//
// Field values are escaped with the same backslash scheme as the wire
// format (\\ \n \r \t and \s for space) so one event is always one line and
// values round-trip — but obs implements it locally: this layer must not
// depend on src/serialize.
#ifndef PANDIA_SRC_OBS_LOG_H_
#define PANDIA_SRC_OBS_LOG_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pandia {
namespace obs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

// Single-character tag used in rendered lines: D, I, W, E.
char LogLevelTag(LogLevel level);

// One key=value field; values are escaped at render time.
struct LogField {
  std::string key;
  std::string value;

  LogField(std::string_view k, std::string_view v) : key(k), value(v) {}
  // Without this overload a string-literal value would prefer the pointer
  // -> bool standard conversion over string_view and render as "true".
  LogField(std::string_view k, const char* v) : key(k), value(v) {}
  LogField(std::string_view k, double v);
  LogField(std::string_view k, int64_t v);
  LogField(std::string_view k, uint64_t v);
  LogField(std::string_view k, int v) : LogField(k, static_cast<int64_t>(v)) {}
  LogField(std::string_view k, bool v)
      : key(k), value(v ? "true" : "false") {}
};

class EventLog {
 public:
  EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Process-wide log used by library instrumentation.
  static EventLog& Global();

  // Events below `level` are dropped on the relaxed-load fast path.
  void SetMinLevel(LogLevel level) {
    min_level_.store(static_cast<int>(level), std::memory_order_relaxed);
  }
  LogLevel min_level() const {
    return static_cast<LogLevel>(min_level_.load(std::memory_order_relaxed));
  }
  bool Enabled(LogLevel level) const {
    return static_cast<int>(level) >=
           min_level_.load(std::memory_order_relaxed);
  }

  // Emits one event. `site` should be a stable dotted name for the call
  // site (it keys the rate limiter); `message` is free text without
  // newlines; `fields` render in order after the message.
  void Log(LogLevel level, std::string_view site, std::string_view message,
           std::vector<LogField> fields = {}) PANDIA_EXCLUDES(mu_);

  // Rate limiting: at most `burst` events per site per `window_ns` window
  // (defaults: 10 events per second). burst <= 0 disables limiting.
  void SetRateLimit(int burst, int64_t window_ns) PANDIA_EXCLUDES(mu_);

  // Redirects the sink (tests). nullptr restores stderr.
  void SetStream(std::FILE* stream) PANDIA_EXCLUDES(mu_);

  // Events dropped by the rate limiter since construction.
  uint64_t suppressed() const {
    return suppressed_.load(std::memory_order_relaxed);
  }

 private:
  struct SiteState {
    int64_t window_start_ns = 0;
    int emitted_in_window = 0;
    uint64_t suppressed_in_window = 0;
  };

  std::atomic<int> min_level_{static_cast<int>(LogLevel::kInfo)};
  std::atomic<uint64_t> suppressed_{0};
  mutable util::Mutex mu_{"obs.log", util::kLockRankObsLog};
  std::FILE* stream_ PANDIA_GUARDED_BY(mu_) = nullptr;  // nullptr => stderr
  int burst_ PANDIA_GUARDED_BY(mu_) = 10;
  int64_t window_ns_ PANDIA_GUARDED_BY(mu_) = 1000000000;
  int64_t start_ns_ PANDIA_GUARDED_BY(mu_) = 0;
  std::map<std::string, SiteState, std::less<>> sites_ PANDIA_GUARDED_BY(mu_);
};

// Renders one event line without the timestamp prefix — the deterministic
// part, exposed for tests: "W site message key=value key=value".
std::string FormatLogLine(LogLevel level, std::string_view site,
                          std::string_view message,
                          const std::vector<LogField>& fields);

}  // namespace obs
}  // namespace pandia

#endif  // PANDIA_SRC_OBS_LOG_H_
