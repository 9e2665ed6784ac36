// Thread-safe memoization of predictor results.
//
// A placement search predicts thousands of candidate placements, and higher
// layers (rank-then-explain tools, repeated sweeps, co-tenancy what-ifs)
// revisit many of them with the same machine/workload inputs. Following
// PPT-Multicore's analytical-model reuse, this cache keys a Prediction by a
// fingerprint of everything that determines it:
//
//   context   = machine description + workload description + the
//               PredictionOptions that shape the solve (hashed once per
//               Predictor, see Predictor::context_fingerprint()),
//   placement = the per-core thread-count vector.
//
// The cache is sharded (16 shards, each a mutex + hash map + FIFO ring), so
// concurrent lookups from the ParallelFor workers contend only per shard.
// Hits return a copy of the stored Prediction; concurrent inserts of the
// same key keep the first value (all callers compute identical values, so
// which copy wins is unobservable). When a shard exceeds its capacity the
// oldest entry in that shard is evicted.
//
// Staleness: the key alone decides it. Every caller keys a value by all of
// its inputs — PredictCached a solo prediction by machine, workload and
// options; rack::Rack a joint prediction by a machine's full resident set —
// so a change to any input is a new key, and an entry that no longer
// describes live state is never looked up again and ages out in FIFO order.
//
// Observability (src/obs registry):
//   prediction_cache.hits / .misses / .insertions / .evictions  counters
//   prediction_cache.size                                       gauge
#ifndef PANDIA_SRC_PREDICTOR_PREDICTION_CACHE_H_
#define PANDIA_SRC_PREDICTOR_PREDICTION_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "src/predictor/predictor.h"
#include "src/topology/placement.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace pandia {

struct PredictionCacheKey {
  uint64_t context = 0;    // Predictor::context_fingerprint()
  uint64_t placement = 0;  // PlacementFingerprint()

  friend bool operator==(const PredictionCacheKey&,
                         const PredictionCacheKey&) = default;
};

// Fingerprint of the (machine, workload, options) triple that determines a
// Prediction, bit-exact over every model input. The CommonOptions member and
// the trace hook are excluded: jobs/cache/trace shape how the solve is run
// and recorded, not its value.
uint64_t ContextFingerprint(const MachineDescription& machine,
                            const WorkloadDescription& workload,
                            const PredictionOptions& options);

// Building blocks for co-scheduled contexts: a joint prediction is
// determined by the machine, the solver options, and every resident
// (workload, placement) pair, so online schedulers fold these into one
// context fingerprint (see rack::Rack) instead of hashing only the job
// whose prediction they want.
uint64_t MachineOptionsFingerprint(const MachineDescription& machine,
                                   const PredictionOptions& options);
uint64_t WorkloadFingerprint(const WorkloadDescription& workload);
// Order-sensitive fold of two fingerprints (FNV over the second value).
uint64_t CombineFingerprints(uint64_t a, uint64_t b);

// Fingerprint of a placement's per-core thread counts (placements are
// canonical, so equal placements hash equal).
uint64_t PlacementFingerprint(const Placement& placement);

class PredictionCache {
 public:
  // `max_entries` bounds the total entry count across all shards.
  explicit PredictionCache(size_t max_entries = 1 << 18);

  PredictionCache(const PredictionCache&) = delete;
  PredictionCache& operator=(const PredictionCache&) = delete;

  // Process-wide cache used by the optimizer and the eval sweeps.
  static PredictionCache& Global();

  std::optional<Prediction> Lookup(const PredictionCacheKey& key);
  void Insert(const PredictionCacheKey& key, const Prediction& prediction);

  size_t size() const;
  void Clear();

 private:
  static constexpr size_t kShards = 16;
  struct KeyHash {
    size_t operator()(const PredictionCacheKey& key) const;
  };
  struct Shard {
    mutable util::Mutex mu{"predictor.cache_shard",
                           util::kLockRankPredictorCacheShard};
    std::unordered_map<PredictionCacheKey, Prediction, KeyHash> entries
        PANDIA_GUARDED_BY(mu);
    // Insertion order, for eviction.
    std::deque<PredictionCacheKey> fifo PANDIA_GUARDED_BY(mu);
  };

  Shard& ShardFor(const PredictionCacheKey& key);

  size_t per_shard_capacity_;
  Shard shards_[kShards];
  std::atomic<size_t> size_{0};
};

// Predict with memoization: returns the cached Prediction for (predictor
// context, placement) or computes and inserts it. Falls back to a direct
// predictor.Predict when `cache` is null or the predictor carries a
// convergence-trace hook (a cache hit would silently skip recording, and
// concurrent traced solves would race on the shared trace buffer).
Prediction PredictCached(const Predictor& predictor, const Placement& placement,
                         PredictionCache* cache);

}  // namespace pandia

#endif  // PANDIA_SRC_PREDICTOR_PREDICTION_CACHE_H_
