#include "src/predictor/predictor.h"

#include <algorithm>
#include <utility>

#include "src/obs/metrics.h"
#include "src/predictor/co_schedule.h"
#include "src/predictor/prediction_cache.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace pandia {

Predictor::Predictor(MachineDescription machine, WorkloadDescription workload,
                     PredictionOptions options)
    : machine_(std::move(machine)),
      workload_(std::move(workload)),
      options_(options),
      context_fingerprint_(ContextFingerprint(machine_, workload_, options_)),
      engine_(std::make_shared<CoSchedulePredictor>(machine_, options_)) {
  PANDIA_CHECK(workload_.t1 > 0.0);
  PANDIA_CHECK(workload_.parallel_fraction >= 0.0 && workload_.parallel_fraction <= 1.0);
  PANDIA_CHECK(workload_.load_balance >= 0.0 && workload_.load_balance <= 1.0);
}

StatusOr<Predictor> Predictor::Create(MachineDescription machine,
                                      WorkloadDescription workload,
                                      PredictionOptions options) {
  PANDIA_RETURN_IF_ERROR(machine.Validate());
  PANDIA_RETURN_IF_ERROR(workload.Validate());
  if (options.max_iterations < 1) {
    return Status::InvalidArgument(StrFormat(
        "prediction option 'max_iterations' must be >= 1, got %d",
        options.max_iterations));
  }
  if (!(options.convergence_eps >= 0.0)) {
    return Status::InvalidArgument(StrFormat(
        "prediction option 'convergence_eps' must be >= 0, got %g",
        options.convergence_eps));
  }
  if (options.dampen_after < 1) {
    return Status::InvalidArgument(StrFormat(
        "prediction option 'dampen_after' must be >= 1, got %d",
        options.dampen_after));
  }
  return Predictor(std::move(machine), std::move(workload), options);
}

Prediction Predictor::Predict(const Placement& placement) const {
  // The single-workload model (§5) is the one-job case of the co-scheduling
  // engine; see co_schedule.cc for the iterative model itself. The one-job
  // fast path skips the CoSchedulePrediction wrapper and the Placement copy
  // a CoScheduleRequest would cost.
  Prediction prediction = engine_->PredictOne(workload_, placement);

  // Adaptive damping: a run that hit max_iterations while still moving by a
  // lot is oscillating, not slowly converging. Retry once with dampening
  // engaged from the first iteration, which trades convergence speed for
  // stability. Runs configured to never converge (eps = 0, single
  // iteration, dampen_after = 1) are left alone.
  const bool diverged =
      !prediction.converged && prediction.final_delta > kDivergenceDelta;
  const bool retryable = options_.iterate && options_.convergence_eps > 0.0 &&
                         options_.dampen_after > 1;
  if (diverged && retryable) {
    static obs::Counter& retries =
        obs::MetricsRegistry::Global().counter("predictor.divergence_retries");
    static obs::Counter& recovered =
        obs::MetricsRegistry::Global().counter("predictor.divergence_recovered");
    static obs::Counter& unrecovered =
        obs::MetricsRegistry::Global().counter("predictor.divergence_unrecovered");
    retries.Increment();
    PredictionOptions damped = options_;
    damped.dampen_after = 1;
    const CoSchedulePredictor damped_engine(machine_, damped);
    Prediction retried = damped_engine.PredictOne(workload_, placement);
    if (retried.converged || retried.final_delta < prediction.final_delta) {
      (retried.converged ? recovered : unrecovered).Increment();
      prediction = std::move(retried);
    } else {
      unrecovered.Increment();
    }
  }
  return prediction;
}

StatusOr<Prediction> Predictor::TryPredict(const Placement& placement) const {
  const MachineTopology& expected = machine_.topo;
  const MachineTopology& actual = placement.topology();
  if (actual.num_sockets != expected.num_sockets ||
      actual.cores_per_socket != expected.cores_per_socket ||
      actual.threads_per_core != expected.threads_per_core) {
    return Status::InvalidArgument(StrFormat(
        "placement topology %dx%dx%d does not match machine '%s' (%dx%dx%d)",
        actual.num_sockets, actual.cores_per_socket, actual.threads_per_core,
        expected.name.c_str(), expected.num_sockets, expected.cores_per_socket,
        expected.threads_per_core));
  }
  if (placement.TotalThreads() < 1) {
    return Status::InvalidArgument("placement has no threads");
  }
  return Predict(placement);
}

double Predictor::SpeedupCeiling(const Placement& placement) const {
  return std::min(engine_->SpeedupCeiling(workload_, placement.TotalThreads()),
                  engine_->CapacityCeiling(workload_, placement) *
                      (1.0 + kCapacityCeilingSlack));
}

}  // namespace pandia
