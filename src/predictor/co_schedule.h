// Co-scheduling prediction — the extension the paper sketches as future
// work (§8): "We believe Pandia's prediction of resource consumption as
// well as overall workload performance will let us handle cases with
// multiple workloads sharing a machine."
//
// The iterative model of §5 generalizes directly: all jobs' threads route
// their utilization-scaled demands onto the shared resource vector; each
// thread's slowdown is its worst oversubscription factor; burstiness
// applies per core occupancy across jobs; communication and load-balancing
// penalties apply within each job; utilization feedback runs globally until
// the joint prediction converges. Predicting one job reduces exactly to the
// single-workload model, and Predictor::Predict is implemented on top of
// this engine.
#ifndef PANDIA_SRC_PREDICTOR_CO_SCHEDULE_H_
#define PANDIA_SRC_PREDICTOR_CO_SCHEDULE_H_

#include <span>
#include <vector>

#include "src/machine_desc/machine_description.h"
#include "src/predictor/predictor.h"
#include "src/predictor/solver_scratch.h"
#include "src/topology/placement.h"
#include "src/workload_desc/description.h"

namespace pandia {

struct CoScheduleRequest {
  const WorkloadDescription* workload = nullptr;
  Placement placement;
};

struct CoSchedulePrediction {
  // One prediction per request, in request order: each job's speedup is
  // relative to its own t1, accounting for interference from every other
  // job.
  std::vector<Prediction> jobs;
  // Combined load on every resource (ResourceIndex order).
  std::vector<double> resource_load;
};

class CoSchedulePredictor {
 public:
  explicit CoSchedulePredictor(MachineDescription machine,
                               PredictionOptions options = {});

  // Jointly predicts the given jobs. All placements must match the machine
  // description's topology shape; cores may be shared between jobs.
  //
  // Uses a thread-local SolverScratch arena: after the first call of a
  // given problem shape on a thread, the solver performs no heap
  // allocations (the returned CoSchedulePrediction still owns its vectors).
  CoSchedulePrediction Predict(std::span<const CoScheduleRequest> requests) const;

  // Caller-passed-arena variant for callers that manage scratch lifetime
  // themselves (tests, long-lived services). `scratch` must not be used
  // concurrently.
  CoSchedulePrediction PredictWithScratch(std::span<const CoScheduleRequest> requests,
                                          SolverScratch& scratch) const;

  // Allocation-free output-param variant: identical results to
  // Predict(requests), but written into *out, reusing its vectors'
  // capacity. Callers that score many candidates in a loop (the rack's
  // admission probes) keep one CoSchedulePrediction alive and stop paying
  // a result-vector allocation per call.
  void PredictInto(std::span<const CoScheduleRequest> requests,
                   CoSchedulePrediction* out) const;

  // Single-job fast path: byte-identical to Predict() on a one-element
  // request span, but reads the placement by reference and assembles the
  // Prediction directly, skipping the CoSchedulePrediction wrapper and its
  // duplicate resource_load vector. This is the path Predictor::Predict
  // rides.
  Prediction PredictOne(const WorkloadDescription& workload,
                        const Placement& placement) const;

  // An admissible ceiling on the speedup any Predict call can report for
  // `workload` on `threads` threads, whatever its co-runners: AssembleJob's
  // speedup with every slowdown at 1, computed with the same operations in
  // the same order. It holds bit for bit in IEEE arithmetic because from
  // the second iteration on the §5.4 pass leaves every slowdown in
  // [1, first-iteration maximum], so each reciprocal is at most 1, the
  // harmonic sum at most `threads`, and rounding is monotone. When the
  // options stop after one iteration (iterate off or max_iterations < 2)
  // no clamp runs, and the ceiling is +infinity.
  double SpeedupCeiling(const WorkloadDescription& workload, int threads) const;

  // A ceiling on the speedup a solve can report for `workload` at
  // `placement`, from the machine's capacities (DESIGN.md, "Bound-and-prune
  // probes"). `occupancy` is the machine's threads per core, every job's,
  // `placement`'s own included: a solo job passes placement.PerCore(). At a
  // fixed point of §5 every resource r carries Σ_t rate(t,r) · u(t) ≤
  // cap(r) over all jobs' threads, so over the job's own too, where u(t) =
  // f_initial / s_overall(t) ≤ f_initial and the job's speedup is Σ_t u(t).
  // A thread on a core that runs two threads or more, of any job, has
  // s_overall ≥ 1 + b · f_initial (§5.1's burstiness), b as the solver
  // applies it; b is taken as 0 when max_iterations is below 100, which can
  // stop a solve in its transient, short of the fixed point the floor
  // needs. A nested relaxation bounds the job's sum in
  // one pass over the cores and two over the DRAM nodes and links, with no
  // allocation after a thread's first call:
  //   - each core contributes min(threads × u_max, cap / rate over the four
  //     core planes), where u_max is f_initial / (1 + b · f_initial) on a
  //     shared core and f_initial otherwise, and the issue cap is
  //     smt_combined_ops on a shared core;
  //   - each socket's sum is capped by L3Agg cap / L3 rate;
  //   - each DRAM node and link, routed as the solver routes the workload's
  //     memory policy, caps the one socket that sends it traffic, or the
  //     sum of several.
  // The argument covers exact fixed points; solves that stop at
  // convergence_eps or at max_iterations rest on kCapacityCeilingSlack and
  // two property tests, solo and joint. Like SpeedupCeiling, +infinity when
  // the options stop after one iteration.
  double CapacityCeiling(const WorkloadDescription& workload, const Placement& placement,
                         std::span<const uint8_t> occupancy) const;

  const MachineDescription& machine() const { return machine_; }
  const PredictionOptions& options() const { return options_; }

 private:
  struct SolveOutcome {
    int iterations = 0;
    bool converged = false;
    double final_delta = 0.0;
  };

  // Runs assembly plus the iterative model, leaving the converged per-thread
  // state (s_overall, s_resource, penalties, bottleneck) and the final
  // resource loads in `s`.
  SolveOutcome Solve(std::span<const SolverJobRef> jobs, SolverScratch& s) const;

  // The shared core of PredictWithScratch / PredictInto: solves and writes
  // the joint prediction into *out (resize/assign, capacity reused).
  void PredictIntoWithScratch(std::span<const CoScheduleRequest> requests,
                              SolverScratch& scratch,
                              CoSchedulePrediction* out) const;

  // Builds job j's Prediction from the solved scratch state. Does not fill
  // Prediction::resource_load; callers assign it from s.load.
  void AssembleJob(size_t j, const SolverScratch& s, const SolveOutcome& outcome,
                   double t1, Prediction* out) const;

  MachineDescription machine_;
  PredictionOptions options_;
  ResourceIndex index_;
};

}  // namespace pandia

#endif  // PANDIA_SRC_PREDICTOR_CO_SCHEDULE_H_
