// The Pandia performance predictor (paper §5).
//
// Given a machine description, a workload description, and a proposed
// thread placement, predicts the workload's speedup relative to its
// single-thread time. The prediction combines an Amdahl's-law speedup with
// per-thread slowdowns from three iteratively refined sources:
//
//   1. resource contention — each thread is slowed by the oversubscription
//      factor of its most contended resource, plus the core-burstiness
//      penalty when threads share a core (§5.1);
//   2. inter-socket communication — per-remote-peer latency o_s, charged
//      between the lockstep and work-weighted extremes according to the
//      load-balancing factor l (§5.2);
//   3. load balancing — threads are pulled toward the slowest thread's
//      slowdown when work cannot be redistributed (§5.3).
//
// Thread-utilization factors scale each thread's demands by the fraction of
// time it is busy, and carry information between iterations (§5.4). The
// final speedup is Amdahl's speedup times the mean reciprocal slowdown
// (§5.5).
#ifndef PANDIA_SRC_PREDICTOR_PREDICTOR_H_
#define PANDIA_SRC_PREDICTOR_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/machine_desc/machine_description.h"
#include "src/topology/placement.h"
#include "src/util/common_options.h"
#include "src/util/status.h"
#include "src/workload_desc/description.h"

namespace pandia {

class CoSchedulePredictor;

namespace obs {
struct PredictionTrace;
}  // namespace obs

struct PredictionOptions {
  // Shared fan-out/cache knobs (src/util/common_options.h).
  CommonOptions common;

  // Optional convergence introspection (src/obs/prediction_trace.h): when
  // non-null, every solve clears the trace and records per-iteration solver
  // state, bypassing the prediction cache. The pointee must outlive the
  // call; solves sharing one options struct overwrite each other's traces.
  obs::PredictionTrace* trace = nullptr;

  int max_iterations = 1000;
  double convergence_eps = 1e-6;
  // §5.4: a dampening function engages after 100 iterations to prevent
  // oscillation.
  int dampen_after = 100;

  // Ablation switches (all on for the paper's model; see bench/abl_model_terms).
  bool model_burstiness = true;
  bool model_communication = true;
  bool model_load_balance = true;
  bool iterate = true;  // false: stop after the first iteration
};

// A final_delta above this after max_iterations marks a divergent (not just
// slowly converging) prediction and flags it in reports and ranking
// metrics. Predictor::Predict retries it once with dampening from the first
// iteration (adaptive damping) when the options let it converge: iterate,
// convergence_eps > 0 and dampen_after > 1. The predictor.divergence_*
// metrics count the outcomes.
inline constexpr double kDivergenceDelta = 0.01;

// Relative slack on the capacity ceiling (CoSchedulePredictor::
// CapacityCeiling). Its fixed-point argument covers exact fixed points, and
// rounding in the ceiling's own sums is about 1e-16 relative; a solve that
// stops at convergence_eps or max_iterations is not a fixed point. Over
// every optimizer candidate of the suite on the four paper machines, and
// over 75,177 job predictions of random joint schedules, no solve exceeds
// its capacity ceiling by more than 1.2e-9 relative
// (CoSchedule.SoloSpeedupNeverExceedsItsCapacityCeiling and
// CoSchedule.JointSpeedupNeverExceedsItsCapacityCeiling), so 1e-4 leaves
// ample margin at a cost of under 0.1% more solves.
inline constexpr double kCapacityCeilingSlack = 1e-4;

struct ThreadPrediction {
  ThreadLocation location;
  double resource_slowdown = 1.0;  // incl. burstiness
  double comm_penalty = 0.0;
  double balance_penalty = 0.0;
  double overall_slowdown = 1.0;
  double utilization = 1.0;        // final thread-utilization factor
  int bottleneck = -1;             // ResourceIndex of the binding resource
};

struct Prediction {
  double amdahl_speedup = 1.0;
  double speedup = 1.0;   // predicted speedup over t1
  double time = 0.0;      // predicted execution time (t1 / speedup)
  int iterations = 0;
  bool converged = false;
  // Worst relative slowdown change in the final iteration: distinguishes
  // "converged at eps" from "hit max_iterations while barely moving" from
  // "stopped while still oscillating".
  double final_delta = 0.0;
  std::vector<ThreadPrediction> threads;
  // Modeled load on every resource (ResourceIndex order) at the final
  // utilizations — Pandia's resource-consumption prediction (§1, §6.3).
  std::vector<double> resource_load;
};

class Predictor {
 public:
  // The descriptions are copied; `options` tunes iteration and ablations.
  // The constructor PANDIA_CHECKs the workload's model invariants, so it is
  // for descriptions produced in-process; descriptions arriving from files
  // or users go through Create, which validates and returns a Status.
  Predictor(MachineDescription machine, WorkloadDescription workload,
            PredictionOptions options = {});

  // Validating factory for externally supplied descriptions: both
  // descriptions' Validate() plus option sanity, with errors naming the
  // offending field instead of aborting.
  static StatusOr<Predictor> Create(MachineDescription machine,
                                    WorkloadDescription workload,
                                    PredictionOptions options = {});

  // Predicts performance for `placement`, which must match the machine
  // description's topology shape. Runs on a persistent co-scheduling engine
  // and a thread-local scratch arena: repeated calls perform no solver-
  // internal heap allocations.
  Prediction Predict(const Placement& placement) const;

  // Predict with the placement validated first (shape and thread count);
  // for placements assembled from user input.
  [[nodiscard]] StatusOr<Prediction> TryPredict(const Placement& placement) const;

  // A ceiling on the speedup Predict can report for `placement`: the lower
  // of the Amdahl ceiling of its thread count (CoSchedulePredictor::
  // SpeedupCeiling) and its capacity ceiling (CoSchedulePredictor::
  // CapacityCeiling, the job alone on the machine, burstiness floor
  // included) raised by kCapacityCeilingSlack. +infinity when the options
  // stop after one iteration (iterate off or max_iterations < 2).
  double SpeedupCeiling(const Placement& placement) const;

  const MachineDescription& machine() const { return machine_; }
  const WorkloadDescription& workload() const { return workload_; }
  const PredictionOptions& options() const { return options_; }

  // Fingerprint of (machine, workload, options) — everything that
  // determines a Prediction besides the placement. Computed once at
  // construction; the prediction cache (src/predictor/prediction_cache.h)
  // combines it with a placement fingerprint to form its key.
  uint64_t context_fingerprint() const { return context_fingerprint_; }

 private:
  MachineDescription machine_;
  WorkloadDescription workload_;
  PredictionOptions options_;
  uint64_t context_fingerprint_ = 0;
  // Persistent solver engine (immutable once built; shared across copies of
  // this Predictor). Constructing it per call used to dominate the cost of
  // a single prediction.
  std::shared_ptr<const CoSchedulePredictor> engine_;
};

}  // namespace pandia

#endif  // PANDIA_SRC_PREDICTOR_PREDICTOR_H_
