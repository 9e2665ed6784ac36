#include "src/predictor/prediction_cache.h"

#include <algorithm>
#include <bit>
#include <string_view>

#include "src/obs/metrics.h"
#include "src/util/fnv1a.h"

namespace pandia {
namespace {

// FNV-1a 64. Model inputs are hashed bit-exact (no rounding): two contexts
// differing in any double produce different fingerprints with overwhelming
// probability, and identical inputs always collide — exactly what a
// memoization key needs.
void HashBytes(uint64_t& h, const void* data, size_t n) {
  h = Fnv1a64(std::string_view(static_cast<const char*>(data), n), h);
}

void HashU64(uint64_t& h, uint64_t v) { HashBytes(h, &v, sizeof(v)); }
void HashDouble(uint64_t& h, double v) { HashU64(h, std::bit_cast<uint64_t>(v)); }
void HashInt(uint64_t& h, int v) { HashU64(h, static_cast<uint64_t>(v)); }
void HashString(uint64_t& h, std::string_view s) {
  HashU64(h, s.size());
  HashBytes(h, s.data(), s.size());
}

obs::Counter& HitsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("prediction_cache.hits");
  return counter;
}
obs::Counter& MissesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("prediction_cache.misses");
  return counter;
}
obs::Counter& InsertionsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("prediction_cache.insertions");
  return counter;
}
obs::Counter& EvictionsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("prediction_cache.evictions");
  return counter;
}
obs::Gauge& SizeGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().gauge("prediction_cache.size");
  return gauge;
}

}  // namespace

uint64_t MachineOptionsFingerprint(const MachineDescription& machine,
                                   const PredictionOptions& options) {
  uint64_t h = kFnv1a64Offset;
  // Machine: topology shape plus every measured capacity.
  HashString(h, machine.topo.name);
  HashInt(h, machine.topo.num_sockets);
  HashInt(h, machine.topo.cores_per_socket);
  HashInt(h, machine.topo.threads_per_core);
  HashDouble(h, machine.topo.l1_size);
  HashDouble(h, machine.topo.l2_size);
  HashDouble(h, machine.topo.l3_size);
  HashDouble(h, machine.core_ops);
  HashDouble(h, machine.smt_combined_ops);
  HashDouble(h, machine.l1_bw);
  HashDouble(h, machine.l2_bw);
  HashDouble(h, machine.l3_port_bw);
  HashDouble(h, machine.l3_agg_bw);
  HashDouble(h, machine.dram_bw);
  HashDouble(h, machine.link_bw);
  // Options that shape the solve (CommonOptions and the trace hook
  // parallelize and record, they do not change values).
  HashInt(h, options.max_iterations);
  HashDouble(h, options.convergence_eps);
  HashInt(h, options.dampen_after);
  HashInt(h, options.model_burstiness ? 1 : 0);
  HashInt(h, options.model_communication ? 1 : 0);
  HashInt(h, options.model_load_balance ? 1 : 0);
  HashInt(h, options.iterate ? 1 : 0);
  return h;
}

uint64_t WorkloadFingerprint(const WorkloadDescription& workload) {
  uint64_t h = kFnv1a64Offset;
  // Every model input (§4's five properties + demand vector + memory
  // policy). Bookkeeping fields (profile_threads, r2..r6) feed no
  // prediction, but they are cheap and keeping them makes the fingerprint
  // a plain "all fields" rule.
  HashString(h, workload.workload);
  HashString(h, workload.machine);
  HashDouble(h, workload.t1);
  HashDouble(h, workload.demands.instr_rate);
  HashDouble(h, workload.demands.l1_bw);
  HashDouble(h, workload.demands.l2_bw);
  HashDouble(h, workload.demands.l3_bw);
  HashDouble(h, workload.demands.dram_local_bw);
  HashDouble(h, workload.demands.dram_remote_bw);
  HashDouble(h, workload.parallel_fraction);
  HashDouble(h, workload.inter_socket_overhead);
  HashDouble(h, workload.load_balance);
  HashDouble(h, workload.burstiness);
  HashInt(h, static_cast<int>(workload.memory_policy));
  HashInt(h, workload.profile_threads);
  HashDouble(h, workload.r2);
  HashDouble(h, workload.r3);
  HashDouble(h, workload.r4);
  HashDouble(h, workload.r5);
  HashDouble(h, workload.r6);
  return h;
}

uint64_t CombineFingerprints(uint64_t a, uint64_t b) {
  HashU64(a, b);
  return a;
}

uint64_t ContextFingerprint(const MachineDescription& machine,
                            const WorkloadDescription& workload,
                            const PredictionOptions& options) {
  return CombineFingerprints(MachineOptionsFingerprint(machine, options),
                             WorkloadFingerprint(workload));
}

uint64_t PlacementFingerprint(const Placement& placement) {
  uint64_t h = kFnv1a64Offset;
  const std::vector<uint8_t>& per_core = placement.PerCore();
  HashU64(h, per_core.size());
  HashBytes(h, per_core.data(), per_core.size());
  return h;
}

size_t PredictionCache::KeyHash::operator()(const PredictionCacheKey& key) const {
  uint64_t h = kFnv1a64Offset;
  HashU64(h, key.context);
  HashU64(h, key.placement);
  return static_cast<size_t>(h);
}

PredictionCache::PredictionCache(size_t max_entries)
    : per_shard_capacity_(std::max<size_t>(1, max_entries / kShards)) {}

PredictionCache& PredictionCache::Global() {
  static PredictionCache* cache = new PredictionCache;
  return *cache;
}

PredictionCache::Shard& PredictionCache::ShardFor(const PredictionCacheKey& key) {
  return shards_[KeyHash{}(key) % kShards];
}

std::optional<Prediction> PredictionCache::Lookup(const PredictionCacheKey& key) {
  {
    Shard& shard = ShardFor(key);
    util::MutexLock lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      HitsCounter().Increment();
      return it->second;
    }
  }
  MissesCounter().Increment();
  return std::nullopt;
}

void PredictionCache::Insert(const PredictionCacheKey& key,
                             const Prediction& prediction) {
  size_t evicted = 0;
  bool inserted = false;
  {
    Shard& shard = ShardFor(key);
    util::MutexLock lock(shard.mu);
    // First writer wins; racing inserts of the same key computed the same
    // value, so dropping the duplicate is free.
    inserted = shard.entries.emplace(key, prediction).second;
    if (inserted) {
      shard.fifo.push_back(key);
      while (shard.fifo.size() > per_shard_capacity_) {
        evicted += shard.entries.erase(shard.fifo.front());
        shard.fifo.pop_front();
      }
    }
  }
  if (inserted) {
    InsertionsCounter().Increment();
    size_.fetch_add(1, std::memory_order_relaxed);
  }
  if (evicted > 0) {
    EvictionsCounter().Increment(evicted);
    size_.fetch_sub(evicted, std::memory_order_relaxed);
  }
  SizeGauge().Set(static_cast<double>(size()));
}

size_t PredictionCache::size() const {
  return size_.load(std::memory_order_relaxed);
}

void PredictionCache::Clear() {
  for (Shard& shard : shards_) {
    util::MutexLock lock(shard.mu);
    size_.fetch_sub(shard.entries.size(), std::memory_order_relaxed);
    shard.entries.clear();
    shard.fifo.clear();
  }
  SizeGauge().Set(0.0);
}

Prediction PredictCached(const Predictor& predictor, const Placement& placement,
                         PredictionCache* cache) {
  if (cache == nullptr || predictor.options().trace != nullptr) {
    return predictor.Predict(placement);
  }
  const PredictionCacheKey key{predictor.context_fingerprint(),
                               PlacementFingerprint(placement)};
  if (std::optional<Prediction> hit = cache->Lookup(key)) {
    return *std::move(hit);
  }
  Prediction prediction = predictor.Predict(placement);
  // A prediction that never settled (even after the adaptive-damping retry)
  // is a property of this solve, not of the (context, placement) key; caching
  // it would hand the divergent numbers to every future caller silently.
  if (prediction.converged) {
    cache->Insert(key, prediction);
  } else {
    static obs::Counter& rejected = obs::MetricsRegistry::Global().counter(
        "prediction_cache.non_converged_rejected");
    rejected.Increment();
  }
  return prediction;
}

}  // namespace pandia
