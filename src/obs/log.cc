#include "src/obs/log.h"

#include "src/util/clock.h"
#include "src/util/strings.h"

namespace pandia {
namespace obs {

char LogLevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return 'D';
    case LogLevel::kInfo:
      return 'I';
    case LogLevel::kWarn:
      return 'W';
    case LogLevel::kError:
      return 'E';
  }
  return '?';
}

LogField::LogField(std::string_view k, double v)
    : key(k), value(StrFormat("%.6g", v)) {}
LogField::LogField(std::string_view k, int64_t v)
    : key(k), value(StrFormat("%lld", static_cast<long long>(v))) {}
LogField::LogField(std::string_view k, uint64_t v)
    : key(k), value(StrFormat("%llu", static_cast<unsigned long long>(v))) {}

EventLog::EventLog() {
  util::MutexLock lock(mu_);
  start_ns_ = util::SteadyNowNs();
}

EventLog& EventLog::Global() {
  static EventLog* log = new EventLog;
  return *log;
}

std::string FormatLogLine(LogLevel level, std::string_view site,
                          std::string_view message,
                          const std::vector<LogField>& fields) {
  std::string line;
  line += LogLevelTag(level);
  line += ' ';
  line.append(site.data(), site.size());
  line += ' ';
  line.append(message.data(), message.size());
  for (const LogField& field : fields) {
    line += ' ';
    line += field.key;
    line += '=';
    AppendEscapedValue(line, field.value);
  }
  return line;
}

void EventLog::Log(LogLevel level, std::string_view site,
                   std::string_view message, std::vector<LogField> fields) {
  if (!Enabled(level)) {
    return;
  }
  const int64_t now = util::SteadyNowNs();
  util::MutexLock lock(mu_);
  SiteState& state = sites_.try_emplace(std::string(site)).first->second;
  uint64_t suppressed_note = 0;
  if (burst_ > 0) {
    if (now - state.window_start_ns >= window_ns_) {
      suppressed_note = state.suppressed_in_window;
      state.window_start_ns = now;
      state.emitted_in_window = 0;
      state.suppressed_in_window = 0;
    }
    if (state.emitted_in_window >= burst_) {
      ++state.suppressed_in_window;
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ++state.emitted_in_window;
  }
  if (suppressed_note > 0) {
    fields.emplace_back("suppressed", suppressed_note);
  }
  const double elapsed_s = static_cast<double>(now - start_ns_) * 1e-9;
  const std::string line = FormatLogLine(level, site, message, fields);
  std::FILE* primary = stream_ != nullptr ? stream_ : stderr;
  std::fprintf(primary, "[%.6f] %s\n", elapsed_s, line.c_str());
  std::fflush(primary);
}

void EventLog::SetRateLimit(int burst, int64_t window_ns) {
  util::MutexLock lock(mu_);
  burst_ = burst;
  window_ns_ = window_ns > 0 ? window_ns : 1;
  sites_.clear();
}

void EventLog::SetStream(std::FILE* stream) {
  util::MutexLock lock(mu_);
  stream_ = stream;
}

}  // namespace obs
}  // namespace pandia
