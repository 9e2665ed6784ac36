// The placement service — Pandia as a long-running daemon.
//
// PlacementService holds a rack::Rack as mutable online state and processes
// the wire-v1 request protocol (src/serialize/wire.h):
//
//   HELLO      handshake: protocol version + capability list, so clients
//              negotiate before speaking (serve::Client sends it on connect)
//   ADMIT      place a new job co-scheduled against the running jobs
//   DEPART     free a job; opportunistically re-place degraded neighbours
//   REBALANCE  bounded-migration global re-placement
//   COMPACT    rewrite the journal as one SNAPSHOT record (also automatic
//              when the live-record ratio drops; see ServiceOptions)
//   STATUS     deterministic state dump (per-job predicted speedup/slowdown,
//              bottleneck resource, placements)
//   METRICS    obs registry dump (format=expo selects the line-oriented
//              machine-readable exposition format)
//   TELEMETRY  per-job rack telemetry: predicted slowdown at admit, current
//              prediction, re-placements, co-runner event deltas
//   RECORDER   flight-recorder dump: the most recent requests and journal
//              appends with timestamps and outcomes
//   SHUTDOWN   acknowledge and stop the serving loop
//
// Telemetry: every request is counted and timed (serve.<verb>.latency_us
// histograms), journal appends are timed and sized, error paths log
// through obs::EventLog, and a per-service obs::FlightRecorder retains the
// recent request/journal history for the RECORDER verb.
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
// forever: mutating verbs return `err unavailable` while STATUS / METRICS /
// TELEMETRY / RECORDER keep serving, the `serve.degraded` gauge goes to 1,
// and each rejected mutation first probes the journal with a NOTE record so
// service recovers automatically the moment the disk does.
//
// The service itself is transport-agnostic: HandleLine() maps one request
// line to one response block. src/serve/socket.h supplies the stdin/stdout
// and Unix-domain-socket event loop the daemon binary runs.
//
// Thread safety: the service owns a mutex serializing every request against
// its mutable state (the rack, the journal stream, the shutdown flag), so
// Handle/HandleLine may be called concurrently from any number of transport
// threads. The contract is annotated for Clang thread-safety analysis; the
// rack::Rack itself is externally synchronized (it fans read-only probes
// out over worker threads inside one mutation, so an internal lock would be
// the wrong shape) and PANDIA_GUARDED_BY ties it to the service mutex.
#ifndef PANDIA_SRC_SERVE_SERVICE_H_
#define PANDIA_SRC_SERVE_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/obs/flight_recorder.h"
#include "src/rack/rack.h"
#include "src/serialize/wire.h"
#include "src/serve/handler.h"
#include "src/serve/journal.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

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
  // post-snapshot record (the live ratio) fell below compact_live_ratio —
  // i.e. most of the journal suffix is departed/moved history that a
  // snapshot would fold away.
  uint64_t compact_min_records = 1024;
  double compact_live_ratio = 0.5;
  // DEPART re-places a remaining neighbour when its best re-placement on
  // its machine improves its predicted speedup by more than this relative
  // margin; REBALANCE uses the same margin for cross-machine moves.
  double replace_margin = 0.02;
  // REBALANCE migration budget when the request does not set one.
  int default_max_migrations = 4;
};

class PlacementService : public RequestHandler {
 public:
  // Builds the service; replays options.journal_path if the file exists,
  // then reopens it for appending. Fails (instead of aborting) on an
  // unreadable or corrupt journal.
  static StatusOr<PlacementService> Create(std::vector<rack::RackMachine> machines,
                                           ServiceOptions options);

  // Moves take the dying object's guarded state without locking: both
  // objects must be externally quiescent during a move (standard move
  // contract), which the analysis cannot express.
  PlacementService(PlacementService&& other) noexcept
      PANDIA_NO_THREAD_SAFETY_ANALYSIS;
  PlacementService& operator=(PlacementService&& other) noexcept
      PANDIA_NO_THREAD_SAFETY_ANALYSIS;
  PlacementService(const PlacementService&) = delete;
  PlacementService& operator=(const PlacementService&) = delete;
  ~PlacementService() PANDIA_NO_THREAD_SAFETY_ANALYSIS;

  // Processes one request line end to end: parse, dispatch, journal any
  // mutation, serialize. The returned text is the complete response block
  // (newline-terminated lines ending with ".\n"). Never aborts. Safe to
  // call concurrently; requests are serialized on the service mutex.
  [[nodiscard]] std::string HandleLine(const std::string& line)
      PANDIA_EXCLUDES(mu_) override;

  // Structured form of HandleLine for in-process callers.
  [[nodiscard]] wire::Response Handle(const wire::Request& request)
      PANDIA_EXCLUDES(mu_);

  // True once a SHUTDOWN request was acknowledged; serving loops exit.
  bool shutdown_requested() const PANDIA_EXCLUDES(mu_) override;

  // Quiescent inspection only (tests, post-loop reporting): the caller must
  // guarantee no concurrent Handle/HandleLine while the reference is used,
  // which is why this opts out of the thread-safety analysis.
  const rack::Rack& rack() const PANDIA_NO_THREAD_SAFETY_ANALYSIS {
    return rack_;
  }

  // The service's flight recorder (internally synchronized; RECORDER serves
  // from it, tests inspect it directly).
  const obs::FlightRecorder& recorder() const { return *recorder_; }

  // Quiescent inspection of the journal (tests; may be null when journaling
  // is disabled). Same external-quiescence contract as rack().
  Journal* journal_for_test() PANDIA_NO_THREAD_SAFETY_ANALYSIS {
    return journal_.get();
  }

  // True while the service is in read-only degraded mode.
  bool degraded() const PANDIA_EXCLUDES(mu_);

 private:
  PlacementService(std::vector<rack::RackMachine> machines, ServiceOptions options);

  // Dispatch wraps DispatchVerb with the journal gates: the degraded-mode
  // probe before a mutation, the automatic-compaction check after a
  // successful one.
  wire::Response Dispatch(const wire::Request& request) PANDIA_REQUIRES(mu_);
  wire::Response DispatchVerb(const wire::Request& request)
      PANDIA_REQUIRES(mu_);
  wire::Response HandleAdmit(const wire::Request& request) PANDIA_REQUIRES(mu_);
  wire::Response HandleDepart(const wire::Request& request) PANDIA_REQUIRES(mu_);
  wire::Response HandleRebalance(const wire::Request& request)
      PANDIA_REQUIRES(mu_);
  wire::Response HandleCompact(const wire::Request& request)
      PANDIA_REQUIRES(mu_);
  wire::Response HandleHello(const wire::Request& request) const
      PANDIA_REQUIRES(mu_);
  wire::Response HandleStatus() const PANDIA_REQUIRES(mu_);
  wire::Response HandleMetrics(const wire::Request& request) const
      PANDIA_REQUIRES(mu_);
  wire::Response HandleTelemetry() const PANDIA_REQUIRES(mu_);
  wire::Response HandleRecorder(const wire::Request& request) const
      PANDIA_REQUIRES(mu_);

  // Re-places machine residents whose best re-placement beats the margin,
  // one MoveJob each.
  Status ReplaceDegraded(int machine_index, std::vector<std::string>& payload)
      PANDIA_REQUIRES(mu_);
  // Journals a MOVED record, then moves `name` to the candidate's placement
  // on `machine_index` and appends the `moved =` payload row. A failed
  // append moves nothing.
  Status MoveJob(const std::string& name, int machine_index,
                 const rack::Rack::Candidate& candidate,
                 std::vector<std::string>& payload) PANDIA_REQUIRES(mu_);

  // Applies one recovered journal record (ADMITTED / DEPARTED / MOVED) to
  // the rack; `line` names the journal line in error messages.
  Status ApplyRecord(const wire::Request& record, size_t line)
      PANDIA_REQUIRES(mu_);
  // Serializes the rack's SavedState as one SNAPSHOT record / restores it.
  wire::Request BuildSnapshot() const PANDIA_REQUIRES(mu_);
  Status RestoreSnapshot(const wire::Request& record, size_t line)
      PANDIA_REQUIRES(mu_);

  // Appends through the Journal with degraded-mode accounting: consecutive
  // failures past the threshold enter degraded mode, any success leaves it.
  Status AppendJournal(const wire::Request& record) PANDIA_REQUIRES(mu_);
  // Degraded-mode gate for mutating verbs: appends a NOTE probe record
  // (replay skips NOTEs); true restores normal service.
  bool ProbeJournal() PANDIA_REQUIRES(mu_);
  // Snapshots the rack into the journal (the COMPACT verb and the
  // automatic trigger both funnel through here).
  Status CompactJournal() PANDIA_REQUIRES(mu_);
  // Resident jobs per post-snapshot journal record, in [0, 1].
  double LiveRatio() const PANDIA_REQUIRES(mu_);
  void NoteJournalFailure() PANDIA_REQUIRES(mu_);
  void NoteJournalSuccess() PANDIA_REQUIRES(mu_);

  ServiceOptions options_;  // immutable after construction
  // Serializes every request against the mutable daemon state below.
  mutable util::Mutex mu_{"serve.service", util::kLockRankServeService};
  rack::Rack rack_ PANDIA_GUARDED_BY(mu_);
  std::unique_ptr<Journal> journal_ PANDIA_GUARDED_BY(mu_);  // null: disabled
  bool shutdown_ PANDIA_GUARDED_BY(mu_) = false;
  // Read-only degraded mode (persistent journal failure). `failures_` is
  // the consecutive-append-failure streak feeding the entry threshold.
  bool degraded_ PANDIA_GUARDED_BY(mu_) = false;
  int journal_failures_ PANDIA_GUARDED_BY(mu_) = 0;
  // Internally synchronized; heap-owned so the service stays movable.
  std::unique_ptr<obs::FlightRecorder> recorder_;
};

}  // namespace serve
}  // namespace pandia

#endif  // PANDIA_SRC_SERVE_SERVICE_H_
