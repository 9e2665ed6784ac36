// Placement optimization on top of the predictor — the paper's headline use
// cases (§1): pick the best placement for a workload, and find the smallest
// resource footprint that still meets a performance target (e.g. limit a
// poorly scaling workload to a few cores).
#ifndef PANDIA_SRC_PREDICTOR_OPTIMIZER_H_
#define PANDIA_SRC_PREDICTOR_OPTIMIZER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/predictor/predictor.h"
#include "src/topology/placement.h"
#include "src/util/common_options.h"
#include "src/util/status.h"

namespace pandia {

struct RankedPlacement {
  Placement placement;
  Prediction prediction;
};

// Non-converged entries in a ranking (prediction.converged == false after
// the adaptive-damping retry) keep their rank but are counted in the
// optimizer.non_converged_ranked metric, and reports flag them — callers
// relying on exact ordering near ties should treat them as approximate.

struct OptimizerOptions {
  // Shared fan-out/cache knobs (src/util/common_options.h): candidate
  // predictions fan out over common.jobs worker threads (chunking is
  // static and results are written by candidate index, so rankings are
  // byte-identical to a serial run at any job count), and common.use_cache
  // memoizes predictions in PredictionCache::Global() (automatically
  // bypassed when the predictor carries a convergence-trace hook).
  CommonOptions common;

  // When the canonical placement space is larger than this, placements are
  // sampled instead of enumerated. Either way the unconstrained candidates
  // are built once per thread for each machine and reused while the
  // machine, this decision and (when sampled) sample_count and sample_seed
  // stay the same (DESIGN.md, "Candidate sets").
  uint64_t exhaustive_limit = 25000;
  size_t sample_count = 4000;
  uint64_t sample_seed = 1;
  // Optional admission constraint on candidate placements (e.g. "no SMT",
  // "at most one socket" when other tenants own the rest of the machine).
  // An exhaustive search filters a copy of the machine's candidates by it;
  // a sampled one draws its sample through it, per call.
  std::function<bool(const Placement&)> constraint;
};

// Common constraints for the optimizer (and for eval sweeps).
std::function<bool(const Placement&)> NoSmtConstraint();
std::function<bool(const Placement&)> MaxSocketsConstraint(int max_sockets);
std::function<bool(const Placement&)> MaxThreadsConstraint(int max_threads);

// Searches the canonical placements (or a deterministic sample on very
// large machines) and returns the one with the highest predicted speedup,
// the earliest enumerated on ties. The search is exact bound-and-prune
// (DESIGN.md, "Bound-and-prune probes"): a candidate whose speedup ceiling
// (Predictor::SpeedupCeiling, the lower of its Amdahl and capacity
// ceilings) cannot beat what the search holds is skipped unpredicted, and
// the result is the exhaustive ranking's bit for bit at every job count.
RankedPlacement FindBestPlacement(const Predictor& predictor,
                                  const OptimizerOptions& options = {});

// Returns the best placements in descending predicted-speedup order (at
// most `top_k`), the earlier enumerated first on equal speedups.
std::vector<RankedPlacement> RankPlacements(const Predictor& predictor, size_t top_k,
                                            const OptimizerOptions& options = {});

// Status-returning variants for user-assembled constraints: an admission
// constraint that rejects every placement is reported instead of aborting.
[[nodiscard]] StatusOr<std::vector<RankedPlacement>> TryRankPlacements(
    const Predictor& predictor, size_t top_k, const OptimizerOptions& options = {});
[[nodiscard]] StatusOr<RankedPlacement> TryFindBestPlacement(
    const Predictor& predictor, const OptimizerOptions& options = {});

// Smallest placement (fewest hardware threads, then fewest active sockets)
// whose predicted speedup is at least `target_fraction` of the best
// predicted speedup. Identifies over-provisioning: when scaling is poor, a
// few cores deliver almost all of the achievable performance.
//
// Of equal cost, the fastest wins, then the earliest enumerated. Cost
// classes are visited cheapest first, and a candidate whose speedup ceiling
// misses the target is skipped unpredicted, except the best placement's
// own: it meets its target, so some class always holds a qualifier.
//
// TryFindCheapestPlacement reports an out-of-range target_fraction or a
// constraint that rejects everything as a Status; FindCheapestPlacement
// aborts on them instead.
[[nodiscard]] StatusOr<RankedPlacement> TryFindCheapestPlacement(
    const Predictor& predictor, double target_fraction,
    const OptimizerOptions& options = {});
RankedPlacement FindCheapestPlacement(const Predictor& predictor, double target_fraction,
                                      const OptimizerOptions& options = {});

}  // namespace pandia

#endif  // PANDIA_SRC_PREDICTOR_OPTIMIZER_H_
