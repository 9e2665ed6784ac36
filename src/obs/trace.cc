#include "src/obs/trace.h"

#include <algorithm>
#include <map>

#include "src/util/clock.h"
#include "src/util/strings.h"

namespace pandia {
namespace obs {
namespace {

std::atomic<uint64_t> g_next_tracer_id{1};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

Tracer::Tracer() : epoch_ns_(util::SteadyNowNs()) {
  id_ = g_next_tracer_id.fetch_add(1, std::memory_order_relaxed);
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer;
  return *tracer;
}

int64_t Tracer::NowNs() const { return util::SteadyNowNs() - epoch_ns_; }

Tracer::ThreadBuffer& Tracer::LocalBuffer() {
  // Per-thread cache keyed by tracer id: ids are never reused, so an entry
  // for a destroyed tracer can dangle but never match again.
  struct CacheEntry {
    uint64_t tracer_id;
    ThreadBuffer* buffer;
  };
  thread_local std::vector<CacheEntry> cache;
  for (const CacheEntry& entry : cache) {
    if (entry.tracer_id == id_) {
      return *entry.buffer;
    }
  }
  auto owned = std::make_unique<ThreadBuffer>();
  ThreadBuffer* buffer = owned.get();
  {
    util::MutexLock lock(mu_);
    buffer->tid = static_cast<uint32_t>(buffers_.size() + 1);
    buffers_.push_back(std::move(owned));
  }
  cache.push_back({id_, buffer});
  return *buffer;
}

void Tracer::Clear() {
  util::MutexLock lock(mu_);
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    util::MutexLock buffer_lock(buffer->mu);
    buffer->events.clear();
  }
}

std::vector<TraceEvent> Tracer::Events() const {
  util::MutexLock lock(mu_);
  std::vector<TraceEvent> events;
  for (const std::unique_ptr<ThreadBuffer>& buffer : buffers_) {
    util::MutexLock buffer_lock(buffer->mu);
    events.insert(events.end(), buffer->events.begin(), buffer->events.end());
  }
  return events;
}

std::string Tracer::ChromeTraceJson() const {
  const std::vector<TraceEvent> events = Events();
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += StrFormat(
        "\n{\"name\":\"%s\",\"cat\":\"pandia\",\"ph\":\"X\",\"ts\":%.3f,"
        "\"dur\":%.3f,\"pid\":1,\"tid\":%u",
        JsonEscape(event.name).c_str(), static_cast<double>(event.start_ns) / 1e3,
        static_cast<double>(event.dur_ns) / 1e3, event.tid);
    if (event.arg != kNoArg) {
      out += StrFormat(",\"args\":{\"n\":%lld}", static_cast<long long>(event.arg));
    }
    out += "}";
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

Table Tracer::SummaryTable() const {
  struct Agg {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t max_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  for (const TraceEvent& event : Events()) {
    Agg& agg = by_name[event.name];
    ++agg.count;
    agg.total_ns += event.dur_ns;
    agg.max_ns = std::max(agg.max_ns, event.dur_ns);
  }
  std::vector<std::pair<std::string, Agg>> rows(by_name.begin(), by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.total_ns > b.second.total_ns;
  });
  Table table({"span", "count", "total_ms", "mean_us", "max_us"});
  for (const auto& [name, agg] : rows) {
    table.AddRow(
        {name, StrFormat("%llu", static_cast<unsigned long long>(agg.count)),
         StrFormat("%.3f", static_cast<double>(agg.total_ns) / 1e6),
         StrFormat("%.2f", static_cast<double>(agg.total_ns) / 1e3 /
                               static_cast<double>(agg.count)),
         StrFormat("%.2f", static_cast<double>(agg.max_ns) / 1e3)});
  }
  return table;
}

TraceSpan::TraceSpan(Tracer& tracer, std::string_view name, int64_t arg) {
  if (!tracer.enabled()) {
    return;
  }
  tracer_ = &tracer;
  buffer_ = &tracer.LocalBuffer();
  name_ = std::string(name);
  start_ns_ = tracer.NowNs();
  depth_ = buffer_->open_depth++;
  arg_ = arg;
}

TraceSpan::~TraceSpan() {
  if (tracer_ == nullptr) {
    return;
  }
  const int64_t end_ns = tracer_->NowNs();
  --buffer_->open_depth;
  TraceEvent event;
  event.name = std::move(name_);
  event.start_ns = start_ns_;
  event.dur_ns = end_ns - start_ns_;
  event.depth = depth_;
  event.tid = buffer_->tid;
  event.arg = arg_;
  util::MutexLock lock(buffer_->mu);
  buffer_->events.push_back(std::move(event));
}

}  // namespace obs
}  // namespace pandia
