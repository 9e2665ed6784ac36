#include <gtest/gtest.h>

#include <algorithm>

#include "src/machine_desc/generator.h"
#include "src/predictor/optimizer.h"
#include "src/predictor/predictor.h"
#include "src/sim/machine.h"
#include "src/sim/machine_spec.h"
#include "src/topology/enumerate.h"

namespace pandia {
namespace {

const MachineDescription& X3Desc() {
  static const MachineDescription desc = [] {
    const sim::Machine machine{sim::MakeX3_2()};
    return GenerateMachineDescription(machine);
  }();
  return desc;
}

WorkloadDescription SomeWorkload() {
  WorkloadDescription desc;
  desc.workload = "synthetic";
  desc.machine = "x3-2";
  desc.t1 = 100.0;
  desc.demands.instr_rate = 4.0;
  desc.demands.l1_bw = 40.0;
  desc.demands.l2_bw = 10.0;
  desc.demands.l3_bw = 6.0;
  desc.demands.dram_local_bw = 8.0;
  desc.memory_policy = MemoryPolicy::kInterleaveActive;
  desc.parallel_fraction = 0.99;
  desc.inter_socket_overhead = 0.01;
  desc.load_balance = 0.5;
  desc.burstiness = 0.3;
  return desc;
}

TEST(Predictor, SingleThreadHasNoSlowdown) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const Prediction p = predictor.Predict(Placement::OnePerCore(X3Desc().topo, 1));
  EXPECT_NEAR(p.speedup, 1.0, 1e-6);
  EXPECT_NEAR(p.time, 100.0, 1e-4);
}

TEST(Predictor, SpeedupNeverExceedsAmdahl) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  for (const Placement& placement : EnumerateCanonicalPlacements(X3Desc().topo)) {
    const Prediction p = predictor.Predict(placement);
    EXPECT_LE(p.speedup, p.amdahl_speedup * (1.0 + 1e-9)) << placement.ToString();
  }
}

TEST(Predictor, SlowdownsAtLeastOne) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const Prediction p =
      predictor.Predict(Placement::TwoPerCore(X3Desc().topo, 20));
  for (const ThreadPrediction& thread : p.threads) {
    EXPECT_GE(thread.overall_slowdown, 1.0 - 1e-9);
    EXPECT_GE(thread.resource_slowdown, 1.0 - 1e-9);
    EXPECT_GE(thread.comm_penalty, 0.0);
    EXPECT_GE(thread.balance_penalty, -1e-9);
  }
}

TEST(Predictor, SymmetricPlacementGivesEqualThreads) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  std::vector<SocketLoad> loads{{4, 0}, {4, 0}};
  const Prediction p =
      predictor.Predict(Placement::FromSocketLoads(X3Desc().topo, loads));
  for (const ThreadPrediction& thread : p.threads) {
    EXPECT_NEAR(thread.overall_slowdown, p.threads[0].overall_slowdown, 1e-9);
  }
}

TEST(Predictor, UtilizationIsAmdahlOverNTimesSlowdown) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const Placement placement = Placement::OnePerCore(X3Desc().topo, 4);
  const Prediction p = predictor.Predict(placement);
  for (const ThreadPrediction& thread : p.threads) {
    EXPECT_NEAR(thread.utilization,
                p.amdahl_speedup / 4.0 / thread.overall_slowdown, 1e-9);
  }
}

TEST(Predictor, BurstinessOnlyAffectsSharedCores) {
  WorkloadDescription workload = SomeWorkload();
  workload.inter_socket_overhead = 0.0;
  const Predictor predictor(X3Desc(), workload);
  const Prediction spread = predictor.Predict(Placement::OnePerCore(X3Desc().topo, 2));
  const Prediction packed = predictor.Predict(Placement::TwoPerCore(X3Desc().topo, 2));
  EXPECT_GT(packed.threads[0].resource_slowdown,
            spread.threads[0].resource_slowdown);
  PredictionOptions no_burst;
  no_burst.model_burstiness = false;
  const Predictor ablated(X3Desc(), workload, no_burst);
  const Prediction packed_ablated =
      ablated.Predict(Placement::TwoPerCore(X3Desc().topo, 2));
  EXPECT_LT(packed_ablated.threads[0].resource_slowdown,
            packed.threads[0].resource_slowdown);
}

TEST(Predictor, CommunicationPenaltyGrowsWithRemotePeers) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  std::vector<SocketLoad> split{{2, 0}, {2, 0}};
  std::vector<SocketLoad> more_split{{4, 0}, {4, 0}};
  const Prediction a =
      predictor.Predict(Placement::FromSocketLoads(X3Desc().topo, split));
  const Prediction b =
      predictor.Predict(Placement::FromSocketLoads(X3Desc().topo, more_split));
  EXPECT_GT(b.threads[0].comm_penalty, a.threads[0].comm_penalty * 0.99);
  // Single-socket placements pay no communication penalty.
  const Prediction local = predictor.Predict(Placement::OnePerCore(X3Desc().topo, 4));
  EXPECT_DOUBLE_EQ(local.threads[0].comm_penalty, 0.0);
}

TEST(Predictor, LoadBalancePullsTowardSlowest) {
  WorkloadDescription workload = SomeWorkload();
  workload.load_balance = 0.0;  // lockstep
  workload.inter_socket_overhead = 0.0;
  const Predictor lockstep(X3Desc(), workload);
  // Asymmetric: one shared core plus one solo thread.
  const Placement placement(X3Desc().topo, {2, 1, 0, 0, 0, 0, 0, 0,
                                            0, 0, 0, 0, 0, 0, 0, 0});
  const Prediction p = lockstep.Predict(placement);
  const double s0 = p.threads[0].overall_slowdown;
  for (const ThreadPrediction& thread : p.threads) {
    EXPECT_NEAR(thread.overall_slowdown, s0, 1e-6);
  }
  workload.load_balance = 1.0;  // fully dynamic: no pull
  const Predictor dynamic(X3Desc(), workload);
  const Prediction q = dynamic.Predict(placement);
  EXPECT_LT(q.threads[2].overall_slowdown, q.threads[0].overall_slowdown);
  EXPECT_DOUBLE_EQ(q.threads[2].balance_penalty, 0.0);
}

TEST(Predictor, MemoryPolicyRoutesDramDemand) {
  WorkloadDescription workload = SomeWorkload();
  workload.demands.dram_local_bw = 10.0;
  workload.memory_policy = MemoryPolicy::kLocal;
  const ResourceIndex index(X3Desc().topo);
  std::vector<SocketLoad> loads{{2, 0}, {2, 0}};
  const Placement placement = Placement::FromSocketLoads(X3Desc().topo, loads);
  {
    const Predictor predictor(X3Desc(), workload);
    const Prediction p = predictor.Predict(placement);
    EXPECT_DOUBLE_EQ(p.resource_load[index.Link(0, 1)], 0.0);
  }
  workload.memory_policy = MemoryPolicy::kInterleaveActive;
  {
    const Predictor predictor(X3Desc(), workload);
    const Prediction p = predictor.Predict(placement);
    EXPECT_GT(p.resource_load[index.Link(0, 1)], 0.0);
    // Both DRAM nodes loaded equally.
    EXPECT_NEAR(p.resource_load[index.Dram(0)], p.resource_load[index.Dram(1)], 1e-9);
  }
}

TEST(Predictor, ResourceLoadConsistentWithUtilizations) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const Placement placement = Placement::OnePerCore(X3Desc().topo, 3);
  const Prediction p = predictor.Predict(placement);
  const ResourceIndex index(X3Desc().topo);
  double f_sum = 0.0;
  for (const ThreadPrediction& thread : p.threads) {
    f_sum += thread.utilization;
  }
  // Note: resource_load is computed from the f at the start of the last
  // iteration; after convergence that equals f_initial * s_res / s_overall,
  // and for a converged run it is close to the final utilizations when the
  // only penalties are resource penalties.
  EXPECT_NEAR(p.resource_load[index.Core(0)] + p.resource_load[index.Core(1)] +
                  p.resource_load[index.Core(2)],
              SomeWorkload().demands.instr_rate * f_sum,
              0.05 * SomeWorkload().demands.instr_rate * f_sum);
}

TEST(Predictor, DampeningBoundsIterations) {
  // A pathological description that tends to oscillate: enormous burstiness
  // and strong comm. The iteration must still terminate.
  WorkloadDescription workload = SomeWorkload();
  workload.burstiness = 5.0;
  workload.inter_socket_overhead = 0.5;
  workload.load_balance = 0.0;
  const Predictor predictor(X3Desc(), workload);
  const Prediction p = predictor.Predict(Placement::TwoPerCore(X3Desc().topo, 32));
  EXPECT_LE(p.iterations, 1000);
  EXPECT_GT(p.speedup, 0.0);
}

TEST(PredictorDeath, RejectsForeignTopology) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const MachineTopology x5 = sim::MakeX5_2().topo;
  EXPECT_DEATH(predictor.Predict(Placement::OnePerCore(x5, 1)), "topology");
}

TEST(PredictorDeath, RejectsInvalidDescription) {
  WorkloadDescription bad = SomeWorkload();
  bad.t1 = 0.0;
  EXPECT_DEATH(Predictor(X3Desc(), bad), "PANDIA_CHECK");
}

// --- optimizer ---

TEST(Optimizer, BestPlacementIsTopRanked) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const RankedPlacement best = FindBestPlacement(predictor);
  const std::vector<RankedPlacement> top = RankPlacements(predictor, 5);
  ASSERT_EQ(top.size(), 5u);
  EXPECT_TRUE(top[0].placement == best.placement);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].prediction.speedup, top[i].prediction.speedup);
  }
}

TEST(Optimizer, BestBeatsEveryEnumeratedPlacement) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const RankedPlacement best = FindBestPlacement(predictor);
  for (const Placement& placement : EnumerateCanonicalPlacements(X3Desc().topo)) {
    EXPECT_GE(best.prediction.speedup,
              predictor.Predict(placement).speedup - 1e-9);
  }
}

TEST(Optimizer, CheapestPlacementMeetsTarget) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const RankedPlacement best = FindBestPlacement(predictor);
  const RankedPlacement cheap = FindCheapestPlacement(predictor, 0.8);
  EXPECT_GE(cheap.prediction.speedup, 0.8 * best.prediction.speedup - 1e-9);
  EXPECT_LE(cheap.placement.TotalThreads(), best.placement.TotalThreads());
}

TEST(Optimizer, CheapestAtFullTargetIsStillFound) {
  const Predictor predictor(X3Desc(), SomeWorkload());
  const RankedPlacement best = FindBestPlacement(predictor);
  const RankedPlacement cheap = FindCheapestPlacement(predictor, 1.0);
  EXPECT_GE(cheap.prediction.speedup + 1e-12, best.prediction.speedup);
  EXPECT_LE(cheap.placement.TotalThreads(), best.placement.TotalThreads());
}

TEST(Optimizer, PoorScalingWorkloadUsesFewThreads) {
  WorkloadDescription poor = SomeWorkload();
  poor.parallel_fraction = 0.05;
  const Predictor predictor(X3Desc(), poor);
  const RankedPlacement cheap = FindCheapestPlacement(predictor, 0.95);
  // Nearly serial workload: almost all performance from very few threads.
  EXPECT_LE(cheap.placement.TotalThreads(), 4);
}

}  // namespace
}  // namespace pandia
