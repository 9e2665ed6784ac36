// Retained reference implementation of the co-scheduling solver.
//
// This is the array-of-structs solver the SoA hot path in co_schedule.cc
// replaced, kept verbatim (minus metrics emission) as the equivalence
// oracle: the production solver must produce byte-identical predictions —
// slowdowns, bottlenecks, final_delta, and per-iteration trace contents.
// It allocates freely and is compiled into solver_equivalence_test only;
// no library ships it.
#ifndef PANDIA_TESTS_REFERENCE_SOLVER_H_
#define PANDIA_TESTS_REFERENCE_SOLVER_H_

#include <span>

#include "src/machine_desc/machine_description.h"
#include "src/predictor/co_schedule.h"

namespace pandia {

// One joint solve with the reference algorithm. Mirrors
// CoSchedulePredictor::Predict's contract (including trace recording via
// options.trace).
CoSchedulePrediction ReferenceCoSchedulePredict(
    const MachineDescription& machine, const PredictionOptions& options,
    std::span<const CoScheduleRequest> requests);

}  // namespace pandia

#endif  // PANDIA_TESTS_REFERENCE_SOLVER_H_
