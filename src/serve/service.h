// One placement shard — a rack served as Pandia's online §8 scheduler.
//
// PlacementService holds a rack::Rack as mutable online state and serves
// the wire-v1 verbs that read or change it (src/serialize/wire.h):
//
//   ADMIT      place a new job co-scheduled against the running jobs
//   DEPART     free a job; opportunistically re-place degraded neighbours
//   REBALANCE  bounded-migration global re-placement
//   COMPACT    rewrite the journal as one SNAPSHOT record (also automatic
//              when the live-record ratio drops; see ServiceOptions)
//   STATUS     deterministic state dump (per-job predicted speedup/slowdown,
//              bottleneck resource, placements)
//   TELEMETRY  per-job rack telemetry: predicted slowdown at admit, current
//              prediction, re-placements, co-runner event deltas
//   RECORDER   flight-recorder dump: the most recent requests and journal
//              appends with timestamps and outcomes
//   SHUTDOWN   sync the journal before the daemon stops
//
// The daemon reaches its shards through one front door, FleetService
// (src/serve/fleet_service.h), which owns everything about a request that
// is not one rack's: parsing, HELLO, METRICS, the shutdown flag, per-verb
// instruments and the failure log. A shard records every request it serves
// in its own obs::FlightRecorder, and times and sizes its journal appends.
//
// Every mutation is journaled through the durable checksummed Journal
// (src/serve/journal.h: per-record CRC32C framing, configurable fsync
// policy, snapshot + compaction, torn-tail recovery) so a restarted daemon
// replays its exact state: admissions embed the workload description text,
// so the journal is self-contained and replay needs no other files. Each
// mutation is write-ahead: the read-only decision first, then the journal
// append, then the change to the rack, so a failed append leaves nothing to
// undo. Requests never abort the process — malformed input and infeasible
// placements surface as structured `err` replies.
//
// When journal appends fail persistently (a full or faulted disk), the
// service degrades to read-only instead of failing every mutation's append
// forever: mutating verbs return `err unavailable` while STATUS /
// TELEMETRY / RECORDER keep serving, the `serve.degraded` gauge goes to 1,
// and each rejected mutation first probes the journal with a NOTE record so
// service recovers automatically the moment the disk does.
//
// Thread safety: none of its own. A shard is externally synchronized: the
// front door serializes every request under its mutex, and in-process
// callers (tests, benchmarks) call it from one thread. The rack fans
// read-only probes out over worker threads inside one request.
#ifndef PANDIA_SRC_SERVE_SERVICE_H_
#define PANDIA_SRC_SERVE_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/rack/rack.h"
#include "src/serialize/wire.h"
#include "src/serve/journal.h"
#include "src/util/status.h"

namespace pandia {
namespace serve {

struct ServiceOptions {
  // Policy used by ADMIT requests that do not name one, and by the
  // rebalancer's candidate search.
  rack::Policy default_policy = rack::Policy::kBestSpeedup;
  // Solver options for the rack; prediction.common.jobs fans admission
  // probes out over worker threads, prediction.common.use_cache memoizes
  // per-machine joint predictions across requests.
  PredictionOptions prediction;
  // Durable mutation journal; empty disables journaling. When the file
  // already exists it is recovered and replayed before serving (restart
  // recovery).
  std::string journal_path;
  // Journal durability knobs: sync policy and fsync cadence (see
  // src/serve/journal.h).
  JournalOptions journal;
  // Consecutive journal-append failures before the service stops trying
  // each mutation and enters read-only degraded mode.
  int degraded_failure_threshold = 3;
  // Automatic compaction fires once at least compact_min_records records
  // accumulated since the last snapshot AND resident jobs per
  // post-snapshot record (the live ratio) fell below one half — i.e. most
  // of the journal suffix is departed/moved history that a snapshot would
  // fold away.
  uint64_t compact_min_records = 1024;
  // DEPART re-places a remaining neighbour when its best re-placement on
  // its machine improves its predicted speedup by more than this relative
  // margin; REBALANCE uses the same margin for cross-machine moves.
  double replace_margin = 0.02;
};

class PlacementService {
 public:
  // Builds the service; replays options.journal_path if the file exists,
  // then reopens it for appending. Fails (instead of aborting) on an
  // unreadable or corrupt journal.
  static StatusOr<PlacementService> Create(std::vector<rack::RackMachine> machines,
                                           ServiceOptions options);

  PlacementService(PlacementService&&) noexcept = default;
  PlacementService& operator=(PlacementService&&) noexcept = default;
  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;

  // Processes one request line end to end: parse, dispatch, journal any
  // mutation, serialize. The returned text is the complete response block
  // (newline-terminated lines ending with ".\n"). Never aborts.
  [[nodiscard]] std::string HandleLine(const std::string& line);

  // Structured form of HandleLine: serves one of the shard's verbs and
  // records the request in the flight recorder. Any other verb, HELLO and
  // METRICS included (the front door answers those), gets the unknown-verb
  // error.
  [[nodiscard]] wire::Response Handle(const wire::Request& request);

  // Records a request the front door answered for this shard (HELLO,
  // METRICS) in the flight recorder, as Handle records the ones it serves.
  void RecordRequest(const wire::Request& request, const wire::Response& response);

  const rack::Rack& rack() const { return rack_; }

  // The service's flight recorder (internally synchronized; RECORDER serves
  // from it, tests inspect it directly).
  const obs::FlightRecorder& recorder() const { return *recorder_; }

  // The journal, for tests (null when journaling is disabled).
  Journal* journal_for_test() { return journal_.get(); }

  // True while the service is in read-only degraded mode.
  bool degraded() const { return degraded_; }

 private:
  PlacementService(std::vector<rack::RackMachine> machines, ServiceOptions options);

  // Dispatch wraps DispatchVerb with the journal gates: the degraded-mode
  // probe before a mutation, the automatic-compaction check after a
  // successful one.
  wire::Response Dispatch(const wire::Request& request);
  wire::Response DispatchVerb(const wire::Request& request);
  wire::Response HandleAdmit(const wire::Request& request);
  wire::Response HandleDepart(const wire::Request& request);
  wire::Response HandleRebalance(const wire::Request& request);
  wire::Response HandleCompact(const wire::Request& request);
  wire::Response HandleStatus() const;
  wire::Response HandleTelemetry() const;
  wire::Response HandleRecorder(const wire::Request& request) const;

  // Re-places machine residents whose best re-placement beats the margin,
  // one MoveJob each.
  Status ReplaceDegraded(int machine_index, std::vector<std::string>& payload);
  // Journals a MOVED record, then moves `name` to the candidate's placement
  // on `machine_index` and appends the `moved =` payload row. A failed
  // append moves nothing.
  Status MoveJob(const std::string& name, int machine_index,
                 const rack::Rack::Candidate& candidate,
                 std::vector<std::string>& payload);

  // Applies one recovered journal record (ADMITTED / DEPARTED / MOVED) to
  // the rack; `line` names the journal line in error messages.
  Status ApplyRecord(const wire::Request& record, size_t line);
  // Serializes the rack's SavedState as one SNAPSHOT record / restores it.
  wire::Request BuildSnapshot() const;
  Status RestoreSnapshot(const wire::Request& record, size_t line);

  // Appends through the Journal with degraded-mode accounting: consecutive
  // failures past the threshold enter degraded mode, any success leaves it.
  Status AppendJournal(const wire::Request& record);
  // Degraded-mode gate for mutating verbs: appends a NOTE probe record
  // (replay skips NOTEs); true restores normal service.
  bool ProbeJournal();
  // Snapshots the rack into the journal (the COMPACT verb and the
  // automatic trigger both funnel through here).
  Status CompactJournal();
  // Resident jobs per post-snapshot journal record, in [0, 1].
  double LiveRatio() const;
  void NoteJournalFailure();
  void NoteJournalSuccess();

  ServiceOptions options_;  // immutable after construction
  rack::Rack rack_;
  std::unique_ptr<Journal> journal_;  // null: disabled
  // Read-only degraded mode (persistent journal failure).
  // `journal_failures_` is the consecutive-append-failure streak feeding
  // the entry threshold.
  bool degraded_ = false;
  int journal_failures_ = 0;
  // Internally synchronized; heap-owned so the service stays movable.
  std::unique_ptr<obs::FlightRecorder> recorder_;
};

}  // namespace serve
}  // namespace pandia

#endif  // PANDIA_SRC_SERVE_SERVICE_H_
