// src/predictor/prediction_cache: fingerprint stability, hit/miss/eviction
// accounting, concurrent-insert semantics, and the headline guarantee that
// serial and parallel placement searches produce identical rankings.
#include "src/predictor/prediction_cache.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/obs/metrics.h"
#include "src/obs/prediction_trace.h"
#include "src/predictor/optimizer.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace {

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().counter(name).value();
}

const eval::Pipeline& X3Pipeline() {
  static const eval::Pipeline* pipeline = new eval::Pipeline("x3-2");
  return *pipeline;
}

const Predictor& MdPredictor() {
  static const Predictor* predictor = new Predictor(
      X3Pipeline().MakePredictor(X3Pipeline().Profile(workloads::ByName("MD"))));
  return *predictor;
}

TEST(Fingerprint, SensitiveToEveryContextInput) {
  const MachineDescription& machine = X3Pipeline().description();
  const WorkloadDescription workload =
      X3Pipeline().Profile(workloads::ByName("MD"));
  const PredictionOptions options;
  const uint64_t base = ContextFingerprint(machine, workload, options);
  EXPECT_EQ(base, ContextFingerprint(machine, workload, options));

  WorkloadDescription tweaked = workload;
  tweaked.t1 *= 1.0000001;
  EXPECT_NE(base, ContextFingerprint(machine, tweaked, options));

  PredictionOptions ablated = options;
  ablated.model_burstiness = false;
  EXPECT_NE(base, ContextFingerprint(machine, workload, ablated));

  MachineDescription other_machine = machine;
  other_machine.dram_bw *= 2.0;
  EXPECT_NE(base, ContextFingerprint(other_machine, workload, options));
}

TEST(Fingerprint, PlacementDependsOnlyOnPerCoreCounts) {
  const MachineTopology& topo = X3Pipeline().machine().topology();
  const Placement a = Placement::OnePerCore(topo, 4);
  const Placement b = Placement::OnePerCore(topo, 4);
  const Placement c = Placement::OnePerCore(topo, 5);
  EXPECT_EQ(PlacementFingerprint(a), PlacementFingerprint(b));
  EXPECT_NE(PlacementFingerprint(a), PlacementFingerprint(c));
}

TEST(PredictionCache, HitAndMissCounting) {
  PredictionCache cache(1024);
  const PredictionCacheKey key{1, 2};
  const uint64_t hits0 = CounterValue("prediction_cache.hits");
  const uint64_t misses0 = CounterValue("prediction_cache.misses");

  EXPECT_FALSE(cache.Lookup(key).has_value());
  Prediction prediction;
  prediction.speedup = 3.5;
  cache.Insert(key, prediction);
  const std::optional<Prediction> hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->speedup, 3.5);
  EXPECT_EQ(cache.size(), 1u);

  EXPECT_EQ(CounterValue("prediction_cache.hits") - hits0, 1u);
  EXPECT_EQ(CounterValue("prediction_cache.misses") - misses0, 1u);
}

TEST(PredictionCache, ConcurrentInsertOfSameKeyYieldsOneEntry) {
  PredictionCache cache(1024);
  const PredictionCacheKey key{42, 77};
  const uint64_t insertions0 = CounterValue("prediction_cache.insertions");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&cache, &key] {
      Prediction prediction;
      prediction.speedup = 2.0;  // all writers agree, as real callers do
      for (int i = 0; i < 100; ++i) {
        cache.Insert(key, prediction);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(CounterValue("prediction_cache.insertions") - insertions0, 1u);
  ASSERT_TRUE(cache.Lookup(key).has_value());
}

TEST(PredictionCache, EvictsOldestWhenOverCapacity) {
  // Capacity 16 across 16 shards = 1 entry per shard: any two keys landing
  // in one shard evict the older.
  PredictionCache cache(16);
  const uint64_t evictions0 = CounterValue("prediction_cache.evictions");
  for (uint64_t i = 0; i < 256; ++i) {
    cache.Insert(PredictionCacheKey{i, i * 31}, Prediction{});
  }
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(CounterValue("prediction_cache.evictions") - evictions0, 0u);
}

TEST(PredictionCache, ClearEmptiesEveryShard) {
  PredictionCache cache(1024);
  for (uint64_t i = 0; i < 64; ++i) {
    cache.Insert(PredictionCacheKey{i, i}, Prediction{});
  }
  EXPECT_EQ(cache.size(), 64u);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Lookup(PredictionCacheKey{1, 1}).has_value());
}

TEST(PredictCached, MatchesDirectPredictionAndHitsOnRepeat) {
  PredictionCache cache(1024);
  const MachineTopology& topo = X3Pipeline().machine().topology();
  const Placement placement = Placement::OnePerCore(topo, 6);
  const Prediction direct = MdPredictor().Predict(placement);
  const uint64_t hits0 = CounterValue("prediction_cache.hits");

  const Prediction first = PredictCached(MdPredictor(), placement, &cache);
  const Prediction second = PredictCached(MdPredictor(), placement, &cache);
  EXPECT_EQ(first.speedup, direct.speedup);
  EXPECT_EQ(first.time, direct.time);
  EXPECT_EQ(first.iterations, direct.iterations);
  EXPECT_EQ(second.speedup, direct.speedup);
  EXPECT_EQ(CounterValue("prediction_cache.hits") - hits0, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PredictCached, BypassesCacheWhenTracing) {
  PredictionCache cache(1024);
  obs::PredictionTrace trace;
  PredictionOptions options;
  options.trace = &trace;
  const Predictor traced = X3Pipeline().MakePredictor(
      X3Pipeline().Profile(workloads::ByName("MD")), options);
  const MachineTopology& topo = X3Pipeline().machine().topology();
  const Placement placement = Placement::OnePerCore(topo, 4);
  PredictCached(traced, placement, &cache);
  PredictCached(traced, placement, &cache);
  EXPECT_EQ(cache.size(), 0u);  // never cached: every solve must record
}

// The acceptance-criterion test: serial and parallel RankPlacements agree
// exactly — same placements, same order, bit-identical speedups — on a
// stock simulated machine, with and without the memoization cache.
TEST(ParallelSearch, SerialAndParallelRankingsAreIdentical) {
  OptimizerOptions serial_options;
  serial_options.common.jobs = 1;
  serial_options.common.use_cache = false;
  const std::vector<RankedPlacement> serial =
      RankPlacements(MdPredictor(), 1u << 20, serial_options);
  ASSERT_GT(serial.size(), 100u);

  for (int jobs : {2, 4}) {
    for (bool use_cache : {false, true}) {
      if (use_cache) {
        PredictionCache::Global().Clear();
      }
      OptimizerOptions options;
      options.common.jobs = jobs;
      options.common.use_cache = use_cache;
      const std::vector<RankedPlacement> parallel =
          RankPlacements(MdPredictor(), 1u << 20, options);
      ASSERT_EQ(parallel.size(), serial.size())
          << "jobs " << jobs << " cache " << use_cache;
      for (size_t i = 0; i < serial.size(); ++i) {
        ASSERT_TRUE(serial[i].placement == parallel[i].placement)
            << "position " << i << " jobs " << jobs << " cache " << use_cache;
        ASSERT_EQ(serial[i].prediction.speedup, parallel[i].prediction.speedup)
            << "position " << i << " jobs " << jobs << " cache " << use_cache;
      }
    }
  }
}

TEST(ParallelSearch, FindBestAndCheapestAgreeAcrossJobCounts) {
  OptimizerOptions serial_options;
  serial_options.common.jobs = 1;
  const RankedPlacement serial_best = FindBestPlacement(MdPredictor(), serial_options);
  const RankedPlacement serial_cheap =
      FindCheapestPlacement(MdPredictor(), 0.95, serial_options);

  OptimizerOptions parallel_options;
  parallel_options.common.jobs = 4;
  const RankedPlacement parallel_best =
      FindBestPlacement(MdPredictor(), parallel_options);
  const RankedPlacement parallel_cheap =
      FindCheapestPlacement(MdPredictor(), 0.95, parallel_options);

  EXPECT_TRUE(serial_best.placement == parallel_best.placement);
  EXPECT_EQ(serial_best.prediction.speedup, parallel_best.prediction.speedup);
  EXPECT_TRUE(serial_cheap.placement == parallel_cheap.placement);
  EXPECT_EQ(serial_cheap.prediction.speedup, parallel_cheap.prediction.speedup);
}

}  // namespace
}  // namespace pandia
