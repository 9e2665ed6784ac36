// Workload description generator (paper §4): runs a workload six times in
// carefully chosen configurations and extracts the five model properties.
//
//   Run 1: one thread                        -> t1 and the demand vector d
//   Run 2: n2 threads, one per core, one     -> parallel fraction p via
//          socket, no oversubscription          Amdahl's law
//   Run 3: n2 threads split across two       -> inter-socket overhead o_s
//          sockets
//   Run 4: run 2 placement, every thread     -> with run 5: load-balancing
//          sharing its core with a CPU          factor l
//          stressor
//   Run 5: run 2 placement, one thread
//          sharing its core with a stressor
//   Run 6: n2 threads packed two per core    -> core burstiness b
//
// Idle cores are filled with a background load in every run so Turbo Boost
// stays at its all-core bin (§6.3). Steps 3 and 6 divide out the slowdown
// k_x that the partial Pandia model already predicts, so each step measures
// only its own new effect (§4.1).
//
// Robust profiling: real measurements are noisy, so each of the six runs
// can be repeated `ProfileOptions::trials` times. Failed runs (crashed or
// evicted benchmarks, injected via sim::FaultPlan) are retried with a
// bounded attempt budget under deterministic reseeding; trial times pass a
// MAD outlier filter and aggregate by median; counter readings dropped in
// some trials are imputed from the surviving ones. Every repair and every
// clamped derived parameter is recorded in the description's ProfileQuality
// report. With one trial and no faults the output is byte-identical to the
// single-observation profiler.
//
// The profiler sees the workload as an opaque handle: it reads only run
// times and the counter facade, plus the memory policy (run configuration).
#ifndef PANDIA_SRC_WORKLOAD_DESC_PROFILER_H_
#define PANDIA_SRC_WORKLOAD_DESC_PROFILER_H_

#include "src/machine_desc/machine_description.h"
#include "src/predictor/predictor.h"
#include "src/sim/machine.h"
#include "src/util/common_options.h"
#include "src/util/status.h"
#include "src/workload_desc/description.h"

namespace pandia {

struct ProfileOptions {
  // Shared fan-out knobs (src/util/common_options.h): common.jobs drives
  // multi-workload profiling fan-out (eval::Pipeline::ProfileAll); the six
  // runs of a single workload are sequential by construction (§4).
  CommonOptions common;

  // Trials per profiling run; the aggregate is the median of surviving
  // trials. 1 reproduces the historical single-observation behaviour.
  int trials = 1;
  // Attempt budget per trial: a failed run is retried with a fresh
  // deterministic nonce up to this many times before the trial is dropped.
  int max_attempts = 5;
};

// The contention check both profilers run before they trust an Amdahl
// estimate from one-per-core threads. ContentionProbe is the predictor of
// `partial` with p = 1, o_s = 0, b = 0 and l = 1: those are not yet known
// and do not change what saturates. ContentionFree is true when the probe
// predicts `placement` to load no shared resource (aggregate L3, DRAM,
// interconnect link) beyond 1.02 x its capacity. One thread per core cannot
// oversubscribe a per-core resource beyond what the solo run already used,
// and the tolerance absorbs measurement noise for workloads whose solo
// demand already sits at a capacity.
Predictor ContentionProbe(const MachineDescription& machine,
                          WorkloadDescription partial);
bool ContentionFree(const Predictor& probe, const Placement& placement);

class WorkloadProfiler {
 public:
  WorkloadProfiler(const sim::Machine& machine, MachineDescription description);

  // Single-observation profiling (trials = 1). The clean path cannot fail;
  // under an active fault plan prefer ProfileRobust, which reports errors
  // instead of aborting.
  WorkloadDescription Profile(const sim::WorkloadSpec& workload) const;

  // Multi-trial robust profiling. Fails (without aborting) when a profiling
  // run lost every trial to run failures or produced no usable time.
  StatusOr<WorkloadDescription> ProfileRobust(const sim::WorkloadSpec& workload,
                                              const ProfileOptions& options) const;

  // The run-2 thread count chosen for a workload with the given measured
  // demand vector: the largest even number of single-socket one-per-core
  // threads that oversubscribes no resource (§4.2). Exposed for tests.
  int ChooseProfileThreads(const WorkloadDescription& partial) const;

 private:
  struct TimedSample;

  // Executes the workload (plus optional co-runner) with idle cores filled,
  // `options.trials` times with retry-on-failure; aggregates foreground
  // completion time (and, when `want_counters`, per-resource consumption
  // rates) and records quality into `quality.runs[run_index - 1]`.
  StatusOr<TimedSample> RobustTimedRun(int run_index, const sim::WorkloadSpec& workload,
                                       const Placement& placement,
                                       const sim::WorkloadSpec* corunner,
                                       const Placement* corunner_placement,
                                       bool want_counters,
                                       const ProfileOptions& options,
                                       ProfileQuality& quality) const;

  const sim::Machine* machine_;
  MachineDescription description_;
};

}  // namespace pandia

#endif  // PANDIA_SRC_WORKLOAD_DESC_PROFILER_H_
