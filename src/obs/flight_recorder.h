// Always-on fixed-capacity flight recorder: a ring buffer of the most
// recent events (what happened, when, and whether it succeeded), kept
// resident so the last moments before an incident can be dumped on demand —
// from a RECORDER wire request, a crash handler, or a test.
//
// Unlike the event log (leveled, rate-limited, streamed to sinks), the
// recorder never filters and never writes anywhere until asked: Record() is
// a mutex acquisition plus a couple of string copies into a preallocated
// slot, cheap enough to call on every request the serving daemon handles.
// When the ring wraps, the oldest events are overwritten and dropped()
// counts what was lost.
//
// Events carry a monotonically increasing sequence number, so a dump
// (oldest-first) is totally ordered and can be diffed against an external
// record such as the serve journal.
#ifndef PANDIA_SRC_OBS_FLIGHT_RECORDER_H_
#define PANDIA_SRC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pandia {
namespace obs {

struct FlightEvent {
  uint64_t seq = 0;       // 1-based, assigned by Record()
  int64_t timestamp_ns = 0;  // steady-clock, comparable within the process
  std::string kind;       // event class, e.g. "request", "journal"
  std::string detail;     // free text, e.g. "ADMIT job=a1" (no newlines)
  bool ok = true;         // outcome
};

class FlightRecorder {
 public:
  // `capacity` slots are preallocated; must be >= 1.
  explicit FlightRecorder(size_t capacity);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Appends one event, overwriting the oldest when full. Assigns seq and
  // timestamp; safe from any thread.
  void Record(std::string_view kind, std::string_view detail, bool ok = true)
      PANDIA_EXCLUDES(mu_);

  // The retained events, oldest first.
  std::vector<FlightEvent> Dump() const PANDIA_EXCLUDES(mu_);

  // Lifetime totals: events ever recorded, and events lost to wrapping.
  uint64_t recorded() const PANDIA_EXCLUDES(mu_);
  uint64_t dropped() const PANDIA_EXCLUDES(mu_);

  size_t capacity() const { return ring_.size(); }

  void Clear() PANDIA_EXCLUDES(mu_);

 private:
  mutable util::Mutex mu_{"obs.flight_recorder",
                          util::kLockRankObsFlightRecorder};
  std::vector<FlightEvent> ring_;  // fixed size; slot i valid when seq > 0
  size_t next_ PANDIA_GUARDED_BY(mu_) = 0;  // ring_ index of the next write
  uint64_t recorded_ PANDIA_GUARDED_BY(mu_) = 0;
};

// One dump line: "seq=N t=SECONDS kind detail ok|err". Timestamps are
// rendered relative to `origin_ns` (pass the first event's timestamp for a
// dump starting at 0.000000).
std::string FormatFlightEvent(const FlightEvent& event, int64_t origin_ns);

}  // namespace obs
}  // namespace pandia

#endif  // PANDIA_SRC_OBS_FLIGHT_RECORDER_H_
