#include "src/obs/flight_recorder.h"

#include "src/util/check.h"
#include "src/util/clock.h"
#include "src/util/strings.h"

namespace pandia {
namespace obs {

FlightRecorder::FlightRecorder(size_t capacity) : ring_(capacity) {
  PANDIA_CHECK_MSG(capacity >= 1, "flight recorder needs capacity >= 1");
}

void FlightRecorder::Record(std::string_view kind, std::string_view detail,
                            bool ok) {
  const int64_t now = util::SteadyNowNs();
  util::MutexLock lock(mu_);
  FlightEvent& slot = ring_[next_];
  slot.seq = ++recorded_;
  slot.timestamp_ns = now;
  slot.kind.assign(kind.data(), kind.size());
  slot.detail.assign(detail.data(), detail.size());
  slot.ok = ok;
  next_ = (next_ + 1) % ring_.size();
}

std::vector<FlightEvent> FlightRecorder::Dump() const {
  util::MutexLock lock(mu_);
  std::vector<FlightEvent> events;
  events.reserve(ring_.size());
  // Oldest first: the slot at next_ (when valid) is the oldest survivor.
  for (size_t i = 0; i < ring_.size(); ++i) {
    const FlightEvent& event = ring_[(next_ + i) % ring_.size()];
    if (event.seq > 0) {
      events.push_back(event);
    }
  }
  return events;
}

uint64_t FlightRecorder::recorded() const {
  util::MutexLock lock(mu_);
  return recorded_;
}

uint64_t FlightRecorder::dropped() const {
  util::MutexLock lock(mu_);
  return recorded_ > ring_.size() ? recorded_ - ring_.size() : 0;
}

void FlightRecorder::Clear() {
  util::MutexLock lock(mu_);
  for (FlightEvent& slot : ring_) {
    slot = FlightEvent{};
  }
  next_ = 0;
  recorded_ = 0;
}

std::string FormatFlightEvent(const FlightEvent& event, int64_t origin_ns) {
  const double t =
      static_cast<double>(event.timestamp_ns - origin_ns) * 1e-9;
  return StrFormat("seq=%llu t=%.6f %s %s %s",
                   static_cast<unsigned long long>(event.seq), t,
                   event.kind.c_str(), event.detail.c_str(),
                   event.ok ? "ok" : "err");
}

}  // namespace obs
}  // namespace pandia
