// Rack-scale scheduling — the last §8 future-work item: "extend Pandia from
// scheduling a single workload on a single machine to the scheduling of
// multiple workloads on a rack-scale system".
//
// A rack is a set of machines (possibly of different types), each described
// by its machine description. Jobs arrive with one workload description per
// machine type (descriptions are machine-specific, §4). The scheduler
// assigns each job to one machine and one placement on that machine's free
// hardware threads, using the co-scheduling predictor to account for the
// jobs already running there.
//
// `Rack` is the mutable online state: machines plus the named jobs resident
// on them, with Admit / Depart / Move mutations that never abort on bad
// input (StatusOr surface). Every placement decision is read-only and
// separate from its application, so the long-running placement service
// (src/serve) can journal a decision before it applies it: Choose decides
// an admission (applied by AdmitAt), and ChooseMove / ChooseRebalanceMove
// decide a resident's re-placement (applied by Move). All three run one
// machine scan with one fold (see Choose). The offline experiments admit a
// whole job stream in order through Schedule().
#ifndef PANDIA_SRC_RACK_RACK_H_
#define PANDIA_SRC_RACK_RACK_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/machine_desc/machine_description.h"
#include "src/predictor/co_schedule.h"
#include "src/predictor/prediction_cache.h"
#include "src/topology/placement.h"
#include "src/util/status.h"
#include "src/workload_desc/description.h"

namespace pandia {
namespace rack {

struct RackMachine {
  std::string name;  // instance name, e.g. "node0"
  MachineDescription description;
};

struct JobRequest {
  std::string name;
  // Workload description per machine *type* (MachineDescription.topo.name).
  // A job can only be placed on machines whose type it has a description
  // for.
  std::map<std::string, WorkloadDescription> descriptions;
  // Threads the job wants; the scheduler may trim to what fits.
  int requested_threads = 0;
};

// A named job resident on one rack machine. Descriptions are stored by
// value, so residents outlive the requests that admitted them.
struct RackJob {
  std::string name;
  WorkloadDescription description;  // for the host machine's type
  Placement placement;
  // WorkloadFingerprint(description), computed once at admission; folded
  // into the host machine's joint-prediction cache key.
  uint64_t workload_fingerprint = 0;

  // Telemetry resident with the job (see Rack::Telemetry). The predicted
  // speedup under the co-location that existed when the job was placed —
  // the baseline every later degradation measurement compares against.
  double speedup_at_admit = 0.0;
  // Rack mutation sequence number assigned to the admission.
  uint64_t admit_seq = 0;
  // Times the job has been re-placed (Move) since admission.
  int moves = 0;
  // Host machine's mutation-counter value when the job landed there (at
  // admission, or re-baselined at each move) — the subtrahend for the
  // co-runner event delta.
  uint64_t machine_events_at_placement = 0;
};

struct Assignment {
  std::string job;
  int machine_index = -1;  // -1: the job could not be placed
  std::optional<Placement> placement;
  // Predicted speedup (relative to the job's t1 on that machine type) under
  // the machine's predicted co-location at assignment time.
  double predicted_speedup = 0.0;
};

enum class Policy {
  kFirstFit,           // first machine with room, best placement there
  kBestSpeedup,        // machine+placement maximizing the job's own speedup
  kLeastInterference,  // maximize the sum of speedups of all jobs on the
                       // chosen machine (new job included)
};

std::string PolicyName(Policy policy);
StatusOr<Policy> PolicyFromName(const std::string& name);

// Mutable rack state with online admission. All mutations validate their
// inputs and report recoverable failures as Status — a malformed request
// must never take down a daemon holding live placement state.
//
// Thread safety: externally synchronized. One admission decision (Choose)
// fans read-only probes out over ParallelFor worker threads internally, so
// an internal per-object lock would be held across its own workers;
// instead the owner serializes mutations and guards the object (the
// placement service holds its Rack as PANDIA_GUARDED_BY(mu_)). Concurrent
// const access without a mutation in flight is safe — shared caches the
// const paths touch (PredictionCache, metrics) lock internally.
class Rack {
 public:
  // `options.common.jobs` fans the per-machine admission probes out over
  // worker threads; `options.common.use_cache` memoizes per-machine joint
  // predictions in PredictionCache::Global() under full resident-set
  // fingerprints (see PredictMachine).
  explicit Rack(std::vector<RackMachine> machines, PredictionOptions options = {});

  const std::vector<RackMachine>& machines() const { return machines_; }
  const PredictionOptions& options() const { return options_; }

  // Jobs resident on one machine, in admission order (the order the joint
  // predictor sees them in — journal replay reproduces it exactly).
  const std::vector<RackJob>& JobsOn(int machine_index) const;
  bool Has(const std::string& job) const;
  // Machine index hosting `job`, or NotFound.
  [[nodiscard]] StatusOr<int> MachineOf(const std::string& job) const;
  int JobCount() const;

  // Free hardware threads per core of one machine (threads_per_core minus
  // resident occupancy). `exclude_job`, when non-null, treats that resident
  // job's threads as free (re-placement what-ifs).
  std::vector<uint8_t> FreeThreads(int machine_index,
                                   const std::string* exclude_job = nullptr) const;
  int FreeThreadCount(int machine_index) const;

  struct Candidate {
    Placement placement;
    double job_speedup = 0.0;
    // Net change in the machine's aggregate speedup. Filled only under
    // Policy::kLeastInterference, the one objective that reads it; 0
    // under the other policies.
    double total_speedup = 0.0;
  };

  // The placements BestCandidateOn considers for `requested_threads` (trimmed
  // to the machine's free threads) on one machine, in enumeration order: for
  // every thread count up to the request, the threads split over the k
  // most-free sockets (k = 1..num_sockets) as evenly as possible, in a spread
  // and a packed per-core variant, duplicates dropped. Empty when nothing
  // fits. `exclude_job` treats that resident's threads as free.
  // BestCandidateOn builds the same placements one thread count at a time,
  // and only for the thread counts it may still have to solve.
  std::vector<Placement> CandidatePlacements(
      int machine_index, int requested_threads,
      const std::string* exclude_job = nullptr) const;

  // Best placement for `job` on one machine against the current residents
  // (nullopt when the job has no description for the machine's type or
  // nothing fits): the candidate with the greatest objective — the job's
  // speedup, or the machine's net aggregate speedup under least
  // interference — and the first in enumeration order on a tie.
  // `exclude_job` evaluates the machine as if that resident had already
  // left, as every re-placement probe (ChooseMove) does.
  //
  // Candidates whose speedup ceiling (CoSchedulePredictor::SpeedupCeiling)
  // cannot beat the best solved so far are not solved, so the result is
  // the exhaustive scan's bit for bit. The ceiling depends on the thread
  // count alone, and a thread count none of whose candidates can win is
  // not enumerated at all. `must_beat` is a job speedup the caller rejects
  // at or below: candidates that cannot exceed it are not solved either, so
  // whenever the exhaustive best does not exceed it the result is nullopt
  // or some candidate that does not exceed it.
  std::optional<Candidate> BestCandidateOn(
      int machine_index, const JobRequest& job, Policy policy,
      const std::string* exclude_job = nullptr,
      double must_beat = -std::numeric_limits<double>::infinity()) const;

  // Admission decision: returns the best candidate under `policy` without
  // changing the rack — the lowest-indexed machine with the strictly
  // greatest objective, or under first fit the lowest-indexed machine where
  // the job fits, with its best placement there. The machine scan, shared
  // with ChooseMove, probes the machines in waves of options().common.jobs,
  // one worker per machine, lowest index first. Under best speedup a wave's
  // probes only solve candidates that can beat the earlier waves' best;
  // under first fit the scan ends at the first wave with a feasible
  // machine. Errors: invalid request, duplicate job name, no description
  // for any machine type in the rack, or no machine with a feasible
  // placement.
  [[nodiscard]] StatusOr<Assignment> Choose(const JobRequest& job, Policy policy) const;

  // Choose, then AdmitAt the chosen machine and placement.
  [[nodiscard]] StatusOr<Assignment> Admit(const JobRequest& job, Policy policy);

  // Where a re-placement may land.
  enum class MoveScope {
    kOwnMachine,  // the job's own machine (DEPART's neighbours)
    kAnyMachine,  // every machine of the job's type (REBALANCE)
  };

  // Re-placement decision for resident `job`, read-only like Choose and
  // applied with Move: its best-speedup placement within `scope` whose
  // joint speedup exceeds its current joint speedup x (1 + margin), or
  // nullopt when none does or no such job is resident. The job is excluded
  // from its own machine; other machines must be of its type, as its
  // description is machine-specific (§4). Choose's machine scan and fold
  // decide, with the threshold as the first wave's must_beat. One joint
  // prediction of the job's machine gives its current speedup.
  std::optional<Assignment> ChooseMove(const std::string& job, MoveScope scope,
                                       double margin) const;

  // REBALANCE's decision: the residents in order of current joint speedup,
  // worst first, names breaking ties, and the first of them for which
  // ChooseMove under kAnyMachine finds a re-placement. One joint prediction
  // per machine ranks them and gives each its current speedup.
  std::optional<Assignment> ChooseRebalanceMove(double margin) const;

  // Places a job without searching: validates the name, the description and
  // that `placement` fits the machine's free threads, then places the job.
  // `speedup_at_admit` is the joint speedup the decision already scored;
  // without it (journal replay) one joint solve of the machine, this job
  // last, reconstructs it.
  [[nodiscard]] Status AdmitAt(const std::string& name, int machine_index,
                               const WorkloadDescription& description,
                               const Placement& placement,
                               std::optional<double> speedup_at_admit = std::nullopt);

  // Batch admission for the offline experiments: admits `jobs` in order and
  // returns one assignment per request; a job that fits nowhere gets
  // machine_index = -1. Repeated request names are uniquified internally
  // (the returned Assignment keeps the request's name).
  std::vector<Assignment> Schedule(std::span<const JobRequest> jobs, Policy policy);

  // Removes a job and returns the machine index it was resident on.
  [[nodiscard]] StatusOr<int> Depart(const std::string& job);

  // Re-places a resident job at `placement` on `machine_index` (same or
  // different machine), keeping its description. The moved job goes to the
  // end of the destination machine's resident order, exactly as a
  // depart-and-readmit would — journal replay reproduces the order.
  [[nodiscard]] Status Move(const std::string& job, int machine_index,
                            const Placement& placement);

  // Joint prediction of one machine's residents, in resident order (empty
  // machine: empty vector). Results are memoized under a fingerprint of
  // the full resident set — machine, options, and every (workload,
  // placement) pair — so a stale hit cannot survive any membership or
  // placement change.
  std::vector<Prediction> PredictMachine(int machine_index) const;

  // Per-job telemetry snapshot: the admission-time baseline, the current
  // joint prediction, and the activity deltas the PANDA-style antagonist
  // analysis needs (how much has happened around this job since it was
  // placed). Jobs appear machine by machine, in resident order.
  struct JobTelemetry {
    std::string name;
    int machine_index = -1;
    std::string machine;  // instance name
    int threads = 0;
    // Predicted speedup / slowdown under the co-location at admission
    // (slowdown = 1/speedup, the paper's preferred orientation).
    double speedup_at_admit = 0.0;
    double slowdown_at_admit = 0.0;
    // Joint prediction under the co-location right now; the ratio against
    // the admit baseline is the job's predicted degradation.
    double current_speedup = 0.0;
    uint64_t admit_seq = 0;  // rack mutation seq of the admission
    int moves = 0;           // re-placements since admission
    // Rack mutations touching the job's host machine since the job landed
    // there (co-runner admits/departs/moves; the job's own landing is
    // excluded). Non-zero deltas mark jobs whose environment changed after
    // placement — the candidates for degradation checks.
    uint64_t co_events = 0;
  };
  struct TelemetrySnapshot {
    uint64_t mutation_seq = 0;  // total rack mutations so far
    std::vector<JobTelemetry> jobs;
  };
  // Computes the current joint prediction per machine, so cost is one
  // (memoized) joint solve per occupied machine.
  TelemetrySnapshot Telemetry() const;

  // Clears all residents.
  void Reset();

  // A full copy of the rack's mutable state: every resident (including its
  // telemetry baseline fields) plus the mutation counters Telemetry()
  // reports. The placement service's journal snapshots use it: compaction
  // serializes a SavedState, restart restores it.
  struct SavedJob {
    int machine_index = -1;
    RackJob job;
  };
  struct SavedState {
    uint64_t mutation_seq = 0;
    // One entry per machine, same order as machines().
    std::vector<uint64_t> machine_events;
    // Machine-major, resident order preserved — RestoreState reproduces the
    // exact joint-solve order, so predictions match the saved rack's.
    std::vector<SavedJob> jobs;
  };
  SavedState SaveState() const;

  // Replaces all resident state with `state`. Validates machine indices,
  // descriptions, and placement fits before touching anything, so a failed
  // restore leaves the rack unchanged. Does not bump mutation counters —
  // restoring is bookkeeping, not a rack event. Workload fingerprints are
  // recomputed from the descriptions.
  [[nodiscard]] Status RestoreState(const SavedState& state);

 private:
  // BestCandidateOn for one description and thread request.
  std::optional<Candidate> ProbeMachine(int machine_index,
                                        const WorkloadDescription& workload,
                                        int requested_threads, Policy policy,
                                        const std::string* exclude_job,
                                        double must_beat) const;
  // The machine scan and fold behind every decision for `job` (see
  // Choose), over the machines [first, last). probe(m, must_beat) is
  // machine m's best candidate, or nullopt when the job cannot go there.
  // Under best speedup nothing at or below `must_beat` is chosen; other
  // policies pass -infinity.
  std::optional<Assignment> ScanMachines(
      const std::string& job, int first, int last, Policy policy, double must_beat,
      const std::function<std::optional<Candidate>(int, double)>& probe) const;
  std::optional<Assignment> MoveOf(const RackJob& resident, int home,
                                   double current_speedup, MoveScope scope,
                                   double margin) const;
  std::vector<Prediction> PredictResidents(int machine_index,
                                           std::span<const RackJob* const> jobs) const;
  Status ValidatePlacementFits(int machine_index, const Placement& placement,
                               const std::vector<uint8_t>& free) const;

  std::vector<RackMachine> machines_;
  PredictionOptions options_;
  PredictionCache* cache_ = nullptr;  // null when options_.common.use_cache is off
  std::vector<uint64_t> machine_context_;  // MachineOptionsFingerprint per machine
  // One persistent solver engine per machine. Building an engine copies the
  // machine description and derives its ResourceIndex; hoisting that out of
  // the per-candidate loop keeps Admit's fan-out allocation-free in the
  // solver (each probe worker reuses its thread-local scratch arena).
  std::vector<CoSchedulePredictor> engines_;
  std::vector<std::vector<RackJob>> residents_;
  // Telemetry bookkeeping: every successful AdmitAt/Depart/Move bumps
  // mutation_seq_ and the touched machines' machine_events_ entries.
  uint64_t mutation_seq_ = 0;
  std::vector<uint64_t> machine_events_;
};

}  // namespace rack
}  // namespace pandia

#endif  // PANDIA_SRC_RACK_RACK_H_
