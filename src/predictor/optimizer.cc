#include "src/predictor/optimizer.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/parallel_metrics.h"
#include "src/obs/trace.h"
#include "src/predictor/prediction_cache.h"
#include "src/topology/enumerate.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace pandia {
namespace {

StatusOr<std::vector<Placement>> CandidatePlacements(const MachineTopology& topo,
                                                     const OptimizerOptions& options) {
  const obs::TraceSpan span("optimizer.candidates");
  // Reproducibility metrics: with these plus the constraint, a sweep's exact
  // candidate set can be reconstructed from logs alone.
  static obs::Gauge& space_size =
      obs::MetricsRegistry::Global().gauge("optimizer.space_size");
  static obs::Gauge& sampled =
      obs::MetricsRegistry::Global().gauge("optimizer.sampled");
  static obs::Gauge& sample_seed =
      obs::MetricsRegistry::Global().gauge("optimizer.sample_seed");
  static obs::Gauge& sample_count =
      obs::MetricsRegistry::Global().gauge("optimizer.sample_count");
  static obs::Counter& exhaustive_runs =
      obs::MetricsRegistry::Global().counter("optimizer.exhaustive_runs");
  static obs::Counter& sampled_runs =
      obs::MetricsRegistry::Global().counter("optimizer.sampled_runs");

  const uint64_t space = CountCanonicalPlacements(topo);
  space_size.Set(static_cast<double>(space));
  std::vector<Placement> candidates;
  if (space <= options.exhaustive_limit) {
    sampled.Set(0.0);
    exhaustive_runs.Increment();
    candidates = EnumerateCanonicalPlacements(topo);
    if (options.constraint) {
      std::erase_if(candidates,
                    [&](const Placement& p) { return !options.constraint(p); });
    }
  } else {
    sampled.Set(1.0);
    sample_seed.Set(static_cast<double>(options.sample_seed));
    sample_count.Set(static_cast<double>(options.sample_count));
    sampled_runs.Increment();
    candidates = SampleCanonicalPlacements(topo, options.sample_count,
                                           options.sample_seed, options.constraint);
  }
  if (candidates.empty()) {
    return Status::InvalidArgument("no placements satisfy the constraint");
  }
  return candidates;
}

obs::Counter& PlacementsEvaluatedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("optimizer.placements_evaluated");
  return counter;
}

// Predicts every candidate, fanning out across options.common.jobs workers. Each
// prediction lands in the slot matching its candidate index, so the result
// vector is identical to a serial loop regardless of job count.
std::vector<Prediction> PredictCandidates(const Predictor& predictor,
                                          const std::vector<Placement>& candidates,
                                          const OptimizerOptions& options) {
  obs::InstallParallelMetrics();
  PlacementsEvaluatedCounter().Increment(candidates.size());
  std::vector<Prediction> predictions(candidates.size());
  PredictionCache* cache =
      options.common.use_cache ? &PredictionCache::Global() : nullptr;
  util::ParallelFor(candidates.size(), options.common.jobs, [&](size_t i) {
    predictions[i] = PredictCached(predictor, candidates[i], cache);
  });
  // Divergent solves keep their slot (the ranking stays deterministic and
  // complete) but are surfaced: counted here, flagged in reports, and never
  // memoized (see PredictCached).
  uint64_t non_converged = 0;
  for (const Prediction& prediction : predictions) {
    if (!prediction.converged) {
      ++non_converged;
    }
  }
  if (non_converged > 0) {
    static obs::Counter& counter =
        obs::MetricsRegistry::Global().counter("optimizer.non_converged_ranked");
    counter.Increment(non_converged);
  }
  return predictions;
}

}  // namespace

std::function<bool(const Placement&)> NoSmtConstraint() {
  return [](const Placement& placement) {
    for (const SocketLoad& load : placement.SocketLoads()) {
      if (load.doubles > 0) {
        return false;
      }
    }
    return true;
  };
}

std::function<bool(const Placement&)> MaxSocketsConstraint(int max_sockets) {
  PANDIA_CHECK(max_sockets > 0);
  return [max_sockets](const Placement& placement) {
    return placement.NumActiveSockets() <= max_sockets;
  };
}

std::function<bool(const Placement&)> MaxThreadsConstraint(int max_threads) {
  PANDIA_CHECK(max_threads > 0);
  return [max_threads](const Placement& placement) {
    return placement.TotalThreads() <= max_threads;
  };
}

RankedPlacement FindBestPlacement(const Predictor& predictor,
                                  const OptimizerOptions& options) {
  std::vector<RankedPlacement> ranked = RankPlacements(predictor, 1, options);
  PANDIA_CHECK(!ranked.empty());
  return std::move(ranked.front());
}

std::vector<RankedPlacement> RankPlacements(const Predictor& predictor, size_t top_k,
                                            const OptimizerOptions& options) {
  StatusOr<std::vector<RankedPlacement>> ranked =
      TryRankPlacements(predictor, top_k, options);
  PANDIA_CHECK_MSG(ranked.ok(), ranked.status().message().c_str());
  return std::move(*ranked);
}

StatusOr<RankedPlacement> TryFindBestPlacement(const Predictor& predictor,
                                               const OptimizerOptions& options) {
  StatusOr<std::vector<RankedPlacement>> ranked =
      TryRankPlacements(predictor, 1, options);
  PANDIA_RETURN_IF_ERROR(ranked.status());
  PANDIA_CHECK(!ranked->empty());
  return std::move(ranked->front());
}

StatusOr<std::vector<RankedPlacement>> TryRankPlacements(
    const Predictor& predictor, size_t top_k, const OptimizerOptions& options) {
  if (top_k == 0) {
    return Status::InvalidArgument("top_k must be positive");
  }
  const obs::TraceSpan span("optimizer.rank");
  StatusOr<std::vector<Placement>> candidates_or =
      CandidatePlacements(predictor.machine().topo, options);
  PANDIA_RETURN_IF_ERROR(candidates_or.status());
  std::vector<Placement>& candidates = *candidates_or;
  std::vector<Prediction> predictions =
      PredictCandidates(predictor, candidates, options);
  std::vector<RankedPlacement> ranked;
  ranked.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ranked.push_back(
        RankedPlacement{std::move(candidates[i]), std::move(predictions[i])});
  }
  // Stable sort with candidates in their deterministic enumeration/sample
  // order: speedup ties resolve to the earlier candidate, so the ranking is
  // reproducible across runs and identical at every job count.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const RankedPlacement& a, const RankedPlacement& b) {
                     return a.prediction.speedup > b.prediction.speedup;
                   });
  if (ranked.size() > top_k) {
    ranked.erase(ranked.begin() + static_cast<ptrdiff_t>(top_k), ranked.end());
  }
  return ranked;
}

StatusOr<RankedPlacement> TryFindCheapestPlacement(const Predictor& predictor,
                                                   double target_fraction,
                                                   const OptimizerOptions& options) {
  if (!(target_fraction > 0.0 && target_fraction <= 1.0)) {
    return Status::InvalidArgument(
        "target_fraction must be in (0, 1]");
  }
  const obs::TraceSpan span("optimizer.cheapest");
  StatusOr<std::vector<Placement>> candidates_or =
      CandidatePlacements(predictor.machine().topo, options);
  PANDIA_RETURN_IF_ERROR(candidates_or.status());
  std::vector<Placement>& candidates = *candidates_or;
  std::vector<Prediction> predictions =
      PredictCandidates(predictor, candidates, options);
  double best_speedup = 0.0;
  std::vector<RankedPlacement> all;
  all.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    all.push_back(
        RankedPlacement{std::move(candidates[i]), std::move(predictions[i])});
    best_speedup = std::max(best_speedup, all.back().prediction.speedup);
  }
  const double target = best_speedup * target_fraction;
  std::optional<RankedPlacement> cheapest;
  auto cost_less = [](const RankedPlacement& a, const RankedPlacement& b) {
    if (a.placement.TotalThreads() != b.placement.TotalThreads()) {
      return a.placement.TotalThreads() < b.placement.TotalThreads();
    }
    if (a.placement.NumActiveSockets() != b.placement.NumActiveSockets()) {
      return a.placement.NumActiveSockets() < b.placement.NumActiveSockets();
    }
    return a.prediction.speedup > b.prediction.speedup;
  };
  for (RankedPlacement& candidate : all) {
    if (candidate.prediction.speedup + 1e-12 < target) {
      continue;
    }
    if (!cheapest.has_value() || cost_less(candidate, *cheapest)) {
      cheapest = std::move(candidate);
    }
  }
  // The best candidate always meets its own target, so a non-empty
  // candidate set guarantees a result.
  PANDIA_CHECK(cheapest.has_value());
  return *std::move(cheapest);
}

std::optional<RankedPlacement> FindCheapestPlacement(const Predictor& predictor,
                                                     double target_fraction,
                                                     const OptimizerOptions& options) {
  StatusOr<RankedPlacement> cheapest =
      TryFindCheapestPlacement(predictor, target_fraction, options);
  PANDIA_CHECK_MSG(cheapest.ok(), cheapest.status().message().c_str());
  return *std::move(cheapest);
}

}  // namespace pandia
