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
// Every run goes through stress::RunFilled, so idle cores run a background
// load and Turbo Boost stays at its all-core bin (§6.3). Steps 3 and 6
// divide out the slowdown k_x that the partial Pandia model already
// predicts, so each step measures only its own new effect (§4.1).
//
// Each §4 step the online profiler (online_profiler.h) shares is one free
// function below; each caller keeps its own clamp. WorkloadProfiler adds
// what only the six-run profiler does: trials, retries, medians, imputation
// and diagnostics.
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
#include "src/util/status.h"
#include "src/workload_desc/description.h"

namespace pandia {

struct ProfileOptions {
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

// What the partial model built so far predicts for a symmetric profiling
// placement (§4.1's k_x), so a step measures only its own new effect.
struct PartialPrediction {
  double k = 1.0;           // predicted time relative to t1
  double k_slowdown = 1.0;  // contention-only part of k (without Amdahl)
  double f = 1.0;           // predicted thread utilization
};
PartialPrediction PredictPartial(const MachineDescription& machine,
                                 const WorkloadDescription& partial,
                                 const Placement& placement);

// The run-2 thread count (§4.2): the largest even count n of one-per-core
// threads on socket 0 such that ContentionFree holds at 2, 4, ..., n; at
// least 2.
int ProfileThreads(const MachineDescription& machine, const WorkloadDescription& partial);

// Run 3's placement (§4.3): n one-per-core threads split over sockets 0
// and 1, n/2 on socket 0.
Placement CrossSocketPlacement(const MachineTopology& topo, int n);

// Run 6's placement (§4.5): n threads packed two per core on socket 0.
Placement PackedPlacement(const MachineTopology& topo, int n);

// The demand vector d (§4.1) of job 0 of `result`, run under `placement`:
// its counters over its completion time, DRAM traffic to the node of the
// placement's first thread counted local and the rest remote.
ResourceDemandVector MeasuredDemands(const sim::Machine& machine,
                                     const sim::RunResult& result,
                                     const Placement& placement);

// The raw §4 formulas, before each caller's clamp; r is the run's time
// relative to t1 and n its thread count. p from r = 1 - p + p/n (§4.2);
// o_s from r / k = 1 + (n/2) o_s / f (§4.3); b from r / k_slowdown =
// reference (1 + b f) (§4.5), where `reference` is the burst-free time at n
// threads relative to t1: r2 offline, Amdahl's (1 - p) + p/n online.
double RawParallelFraction(double r, int n);
double RawInterSocketOverhead(double r, const PartialPrediction& partial, int n);
double RawBurstiness(double r, const PartialPrediction& partial, double reference);

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

 private:
  struct TimedSample;

  // Executes the workload (plus optional co-runner) through
  // stress::RunFilled, `options.trials` times with retry-on-failure; aggregates foreground
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
