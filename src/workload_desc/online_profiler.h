// Online description refinement — the §8 runtime-integration sketch:
// "Pandia could also be integrated into runtime systems to choose the
// placement of threads in parallel loops. In this scenario the workload
// description could be generated during the execution of early iterations
// of the loop."
//
// The OnlineProfiler consumes observations (placement, relative duration,
// counter rates) as a runtime would collect them from successive loop
// epochs, and maintains a best-effort WorkloadDescription plus a statement
// of which model parameters are pinned so far. Parameters resolve in the
// §4 dependency order as informative placements arrive:
//
//   demands  — any single-thread epoch
//   p        — an additional contention-free multi-thread epoch
//   o_s      — an epoch spanning two sockets
//   b        — an epoch with threads sharing cores
//   l        — unobservable without perturbation; approximated from the
//              busy-time skew of asymmetric epochs when one occurs
//
// Epochs that would re-measure an already-pinned parameter refine it by
// averaging, so the description improves as the loop runs.
//
// The §4 steps themselves are the six-run profiler's (profiler.h): the
// partial prediction, the run-2 thread count, the run-3 and run-6
// placements, the counter reading and the raw p, o_s and b formulas. This
// class keeps only epoch classification, step ordering and its running
// averages. Epochs run without the background filler, as a runtime sees
// them.
#ifndef PANDIA_SRC_WORKLOAD_DESC_ONLINE_PROFILER_H_
#define PANDIA_SRC_WORKLOAD_DESC_ONLINE_PROFILER_H_

#include <optional>
#include <string>

#include "src/machine_desc/machine_description.h"
#include "src/sim/machine.h"
#include "src/workload_desc/description.h"

namespace pandia {

// One observed loop epoch: the placement it ran under and the measured
// completion time of a fixed amount of loop work, plus its counter rates.
struct EpochObservation {
  Placement placement;
  double time = 0.0;
  // The epoch's counters over `time` (a runtime reads the counts from perf),
  // DRAM traffic split by the memory node of the placement's first thread.
  ResourceDemandVector demands{};
};

class OnlineProfiler {
 public:
  OnlineProfiler(MachineDescription machine, std::string workload_name,
                 MemoryPolicy policy);

  // Feeds one epoch. Returns true when the observation refined at least
  // one model parameter.
  bool Observe(const EpochObservation& epoch);

  // Convenience: runs one epoch of `workload` on the simulated machine
  // under `placement` and feeds the resulting observation.
  bool ObserveRun(const sim::Machine& machine, const sim::WorkloadSpec& workload,
                  const Placement& placement);

  // Current best-effort description. Unpinned parameters carry neutral
  // defaults (o_s = 0, b = 0, l = 0.5).
  const WorkloadDescription& description() const { return description_; }

  bool demands_known() const { return epochs_single_ > 0; }
  bool parallel_fraction_known() const { return epochs_parallel_ > 0; }
  bool inter_socket_overhead_known() const { return epochs_cross_socket_ > 0; }
  bool burstiness_known() const { return epochs_smt_ > 0; }

  // All parameters a runtime can observe without perturbation are pinned.
  bool Complete() const {
    return demands_known() && parallel_fraction_known() &&
           inter_socket_overhead_known() && burstiness_known();
  }

  // The placement a runtime should try next to pin the next unresolved
  // parameter, following the §4 step order and contention-free rules
  // (e.g. the parallel probe uses the largest even same-socket thread count
  // that oversubscribes no shared resource). nullopt once Complete().
  std::optional<Placement> SuggestNextProbe() const;

 private:
  // Merges a new estimate into a running average with count `n` (post-inc).
  static double Refine(double current, double sample, int n) {
    return (current * n + sample) / (n + 1);
  }

  MachineDescription machine_;
  WorkloadDescription description_;
  int epochs_single_ = 0;
  int epochs_parallel_ = 0;
  int epochs_cross_socket_ = 0;
  int epochs_smt_ = 0;
};

}  // namespace pandia

#endif  // PANDIA_SRC_WORKLOAD_DESC_ONLINE_PROFILER_H_
