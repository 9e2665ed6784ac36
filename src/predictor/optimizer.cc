#include "src/predictor/optimizer.h"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/parallel_metrics.h"
#include "src/obs/trace.h"
#include "src/predictor/prediction_cache.h"
#include "src/topology/enumerate.h"
#include "src/util/check.h"
#include "src/util/parallel.h"

namespace pandia {
namespace {

// What a search needs of its candidates that depends on the machine and
// the enumeration options alone, never on the workload.
struct CandidateSet {
  std::vector<Placement> placements;  // enumeration order
  // Each placement's cost class, by index: (threads, active sockets).
  std::vector<std::pair<int, int>> cost;
  // The cheapest walk's order: every index, stably sorted by cost.
  std::vector<size_t> by_cost;
};

// A set of `placements`, given in enumeration order.
std::shared_ptr<const CandidateSet> MakeCandidateSet(std::vector<Placement> placements) {
  auto set = std::make_shared<CandidateSet>();
  // Each key is computed once: recomputing NumActiveSockets inside the
  // sort's comparisons cost 0.15 ms a call on x3-2.
  set->cost.resize(placements.size());
  for (size_t i = 0; i < placements.size(); ++i) {
    set->cost[i] =
        std::pair(placements[i].TotalThreads(), placements[i].NumActiveSockets());
  }
  set->by_cost.resize(placements.size());
  std::iota(set->by_cost.begin(), set->by_cost.end(), size_t{0});
  std::stable_sort(set->by_cost.begin(), set->by_cost.end(),
                   [&](size_t a, size_t b) { return set->cost[a] < set->cost[b]; });
  set->placements = std::move(placements);
  return set;
}

// What a machine's unconstrained candidate set depends on. The whole
// topology is compared, because every placement holds a copy of it.
struct CandidateSetKey {
  MachineTopology topo;
  bool sampled = false;
  size_t sample_count = 0;   // sampled spaces only
  uint64_t sample_seed = 0;  // sampled spaces only

  friend bool operator==(const CandidateSetKey&, const CandidateSetKey&) = default;
};

// Draws or enumerates the candidates `key` names and counts the build.
// `filter` steers a sampled draw (SampleCanonicalPlacements); only a
// constrained sampled search passes one.
std::shared_ptr<const CandidateSet> BuildCandidateSet(
    const CandidateSetKey& key, const std::function<bool(const Placement&)>& filter) {
  static obs::Counter& exhaustive_runs =
      obs::MetricsRegistry::Global().counter("optimizer.exhaustive_runs");
  static obs::Counter& sampled_runs =
      obs::MetricsRegistry::Global().counter("optimizer.sampled_runs");
  if (key.sampled) {
    sampled_runs.Increment();
    return MakeCandidateSet(
        SampleCanonicalPlacements(key.topo, key.sample_count, key.sample_seed, filter));
  }
  exhaustive_runs.Increment();
  return MakeCandidateSet(EnumerateCanonicalPlacements(key.topo));
}

// The unconstrained candidate set for `key`, built on a miss into the
// calling thread's one slot. A slot per thread needs no lock and holds one
// set per thread, and every thread builds the same set for the same key.
// The shared_ptr keeps a set alive for its search even if a nested search
// on the same thread replaces the slot.
std::shared_ptr<const CandidateSet> MemoizedCandidateSet(const CandidateSetKey& key) {
  static thread_local struct {
    CandidateSetKey key;
    std::shared_ptr<const CandidateSet> set;
  } slot;
  if (slot.set == nullptr || !(slot.key == key)) {
    slot.set = BuildCandidateSet(key, nullptr);
    slot.key = key;
  }
  return slot.set;
}

StatusOr<std::shared_ptr<const CandidateSet>> Candidates(const MachineTopology& topo,
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

  const uint64_t space = CountCanonicalPlacements(topo);
  space_size.Set(static_cast<double>(space));
  const bool sample = space > options.exhaustive_limit;
  sampled.Set(sample ? 1.0 : 0.0);
  if (sample) {
    sample_seed.Set(static_cast<double>(options.sample_seed));
    sample_count.Set(static_cast<double>(options.sample_count));
  }
  const CandidateSetKey key{.topo = topo,
                            .sampled = sample,
                            .sample_count = sample ? options.sample_count : 0,
                            .sample_seed = sample ? options.sample_seed : 0};
  std::shared_ptr<const CandidateSet> set;
  if (sample && options.constraint) {
    // The constraint steers the draw, so a constrained sample is drawn per
    // call.
    set = BuildCandidateSet(key, options.constraint);
  } else {
    set = MemoizedCandidateSet(key);
    if (options.constraint) {
      std::vector<Placement> kept;
      std::copy_if(set->placements.begin(), set->placements.end(),
                   std::back_inserter(kept),
                   [&](const Placement& p) { return options.constraint(p); });
      set = MakeCandidateSet(std::move(kept));
    }
  }
  if (set->placements.empty()) {
    return Status::InvalidArgument("no placements satisfy the constraint");
  }
  return set;
}

obs::Counter& PlacementsPrunedCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("optimizer.placements_pruned");
  return counter;
}

// The ranking order and the one tie rule every search decision shares:
// the higher speedup first, and of equal speedups the earlier candidate —
// the order a stable sort by descending speedup leaves the enumeration in.
bool RanksBefore(double speedup, size_t index, double other_speedup,
                 size_t other_index) {
  return speedup > other_speedup || (speedup == other_speedup && index < other_index);
}

// A predicted candidate, by its index in the candidate list.
struct Scored {
  size_t index = 0;
  Prediction prediction;
};

// Predicts candidates[batch[b]] into slot b, fanning out across
// options.common.jobs workers. Chunking is static and slots are written by
// index, so the result is identical to a serial loop at any job count.
std::vector<Scored> PredictBatch(const Predictor& predictor,
                                 const std::vector<Placement>& candidates,
                                 const std::vector<size_t>& batch,
                                 const OptimizerOptions& options) {
  static obs::Counter& evaluated =
      obs::MetricsRegistry::Global().counter("optimizer.placements_evaluated");
  obs::InstallParallelMetrics();
  evaluated.Increment(batch.size());
  std::vector<Scored> scored(batch.size());
  PredictionCache* cache =
      options.common.use_cache ? &PredictionCache::Global() : nullptr;
  util::ParallelFor(batch.size(), options.common.jobs, [&](size_t b) {
    scored[b] = Scored{batch[b], PredictCached(predictor, candidates[batch[b]], cache)};
  });
  // Divergent solves keep their place (the ranking stays deterministic) but
  // are surfaced: counted here, flagged in reports, and never memoized (see
  // PredictCached).
  uint64_t non_converged = 0;
  for (const Scored& s : scored) {
    if (!s.prediction.converged) {
      ++non_converged;
    }
  }
  if (non_converged > 0) {
    static obs::Counter& counter =
        obs::MetricsRegistry::Global().counter("optimizer.non_converged_ranked");
    counter.Increment(non_converged);
  }
  return scored;
}

// Each candidate's speedup ceiling (Predictor::SpeedupCeiling), by index.
std::vector<double> Ceilings(const Predictor& predictor,
                             const std::vector<Placement>& candidates) {
  std::vector<double> ceilings(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ceilings[i] = predictor.SpeedupCeiling(candidates[i]);
  }
  return ceilings;
}

// Candidates per ParallelFor batch once the top k is full. A constant, never
// derived from the job count, so the solve set is the same at every job
// count. Pruning sees a batch's results only once the whole batch is
// solved, so a larger batch solves candidates a smaller one would skip; 8
// gives a few workers something to share, and over the suite's best and
// cheapest searches it costs at most 0.02% more solver iterations than 1
// on each paper machine.
constexpr size_t kBatchSize = 8;

// The first `top_k` candidates in RanksBefore order, bit for bit the head of
// a stable sort of every prediction, from a bound-and-prune search.
// Candidates are visited in descending ceiling order, stable on index, and
// solved kBatchSize at a time; while fewer than top_k are held nothing can
// be pruned, so a batch grows until it fills the top k. From then on the
// walk stops at the first candidate whose ceiling does not rank before the
// k-th held result, index against index: no later candidate does either,
// and the held results only improve, so none of them could have entered.
// Pruning reads the held results only between batches, so the solve set is
// the same at every job count.
std::vector<Scored> TopCandidates(const Predictor& predictor,
                                  const std::vector<Placement>& candidates,
                                  const std::vector<double>& ceilings, size_t top_k,
                                  const OptimizerOptions& options) {
  std::vector<size_t> order(candidates.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return ceilings[a] > ceilings[b]; });

  std::vector<Scored> top;
  size_t predicted = 0;
  size_t next = 0;  // the first unvisited position in `order`
  while (next < order.size()) {
    const size_t batch_size = std::max(kBatchSize, top_k - top.size());
    std::vector<size_t> batch;
    for (; next < order.size() && batch.size() < batch_size; ++next) {
      const size_t i = order[next];
      if (top.size() == top_k && !RanksBefore(ceilings[i], i,
                                              top.back().prediction.speedup,
                                              top.back().index)) {
        break;
      }
      batch.push_back(i);
    }
    if (batch.empty()) {
      break;
    }
    predicted += batch.size();
    std::vector<Scored> scored = PredictBatch(predictor, candidates, batch, options);
    std::move(scored.begin(), scored.end(), std::back_inserter(top));
    std::sort(top.begin(), top.end(), [](const Scored& a, const Scored& b) {
      return RanksBefore(a.prediction.speedup, a.index, b.prediction.speedup, b.index);
    });
    if (top.size() > top_k) {
      top.resize(top_k);
    }
  }
  PlacementsPrunedCounter().Increment(candidates.size() - predicted);
  return top;
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
  StatusOr<std::shared_ptr<const CandidateSet>> set =
      Candidates(predictor.machine().topo, options);
  PANDIA_RETURN_IF_ERROR(set.status());
  const std::vector<Placement>& candidates = (*set)->placements;
  std::vector<RankedPlacement> ranked;
  for (Scored& s : TopCandidates(predictor, candidates, Ceilings(predictor, candidates),
                                 top_k, options)) {
    ranked.push_back(RankedPlacement{candidates[s.index], std::move(s.prediction)});
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
  StatusOr<std::shared_ptr<const CandidateSet>> set =
      Candidates(predictor.machine().topo, options);
  PANDIA_RETURN_IF_ERROR(set.status());
  const std::vector<Placement>& candidates = (*set)->placements;
  const std::vector<std::pair<int, int>>& cost = (*set)->cost;
  const std::vector<size_t>& order = (*set)->by_cost;
  const std::vector<double> ceilings = Ceilings(predictor, candidates);
  const std::vector<Scored> best =
      TopCandidates(predictor, candidates, ceilings, 1, options);
  const size_t best_index = best.front().index;
  const double target = best.front().prediction.speedup * target_fraction;

  // Walk cost classes cheapest first: fewest threads, then fewest active
  // sockets, enumeration order within a class. A candidate whose ceiling
  // + 1e-12 misses the target cannot qualify and is skipped unsolved, but
  // the best candidate never is: it meets its own target, so the walk
  // always ends at a class that holds a qualifier, even if a ceiling
  // undercuts a solve (say, for a description read from a file that breaks
  // the model's assumptions). The first class that holds a qualifier
  // returns its fastest, the earliest on equal speedups.
  size_t predicted = 0;
  for (size_t next = 0;;) {
    // The best candidate's class ends the walk at the latest.
    PANDIA_CHECK(next < order.size());
    const std::pair<int, int> class_cost = cost[order[next]];
    std::vector<size_t> batch;
    for (; next < order.size() && cost[order[next]] == class_cost; ++next) {
      const size_t i = order[next];
      if (i == best_index || !(ceilings[i] + 1e-12 < target)) {
        batch.push_back(i);
      }
    }
    if (batch.empty()) {
      continue;
    }
    predicted += batch.size();
    std::vector<Scored> scored = PredictBatch(predictor, candidates, batch, options);
    Scored* cheapest = nullptr;
    for (Scored& s : scored) {
      if (s.prediction.speedup + 1e-12 < target) {
        continue;
      }
      if (cheapest == nullptr ||
          RanksBefore(s.prediction.speedup, s.index, cheapest->prediction.speedup,
                      cheapest->index)) {
        cheapest = &s;
      }
    }
    if (cheapest != nullptr) {
      PlacementsPrunedCounter().Increment(candidates.size() - predicted);
      return RankedPlacement{candidates[cheapest->index],
                             std::move(cheapest->prediction)};
    }
  }
}

RankedPlacement FindCheapestPlacement(const Predictor& predictor, double target_fraction,
                                      const OptimizerOptions& options) {
  StatusOr<RankedPlacement> cheapest =
      TryFindCheapestPlacement(predictor, target_fraction, options);
  PANDIA_CHECK_MSG(cheapest.ok(), cheapest.status().message().c_str());
  return *std::move(cheapest);
}

}  // namespace pandia
