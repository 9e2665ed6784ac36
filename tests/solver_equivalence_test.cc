// Equivalence proof for the SoA solver rewrite: the production
// CoSchedulePredictor must produce *byte-identical* predictions to the
// retained reference solver (tests/reference_solver.h) — same
// slowdowns, bottlenecks, final_delta, iteration count, and per-iteration
// trace contents — across all four paper machines, multi-job co-schedules,
// ablation options, and edge placements. Doubles are compared through
// std::bit_cast so "identical" means identical bits, not within-epsilon.
#include <bit>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/pipeline.h"
#include "src/obs/prediction_trace.h"
#include "src/predictor/co_schedule.h"
#include "src/sim/machine_spec.h"
#include "src/workloads/workloads.h"
#include "tests/reference_solver.h"

namespace pandia {
namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

const eval::Pipeline& PipelineFor(const std::string& machine) {
  static std::map<std::string, eval::Pipeline>* pipelines =
      new std::map<std::string, eval::Pipeline>;
  auto it = pipelines->find(machine);
  if (it == pipelines->end()) {
    it = pipelines->emplace(machine, eval::Pipeline(machine)).first;
  }
  return it->second;
}

const WorkloadDescription& Desc(const std::string& machine, const char* workload) {
  static std::map<std::string, WorkloadDescription>* cache =
      new std::map<std::string, WorkloadDescription>;
  const std::string key = machine + "/" + workload;
  auto it = cache->find(key);
  if (it == cache->end()) {
    it = cache->emplace(key, PipelineFor(machine).Profile(workloads::ByName(workload)))
             .first;
  }
  return it->second;
}

void ExpectBitIdentical(const Prediction& got, const Prediction& want,
                        const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(Bits(got.amdahl_speedup), Bits(want.amdahl_speedup));
  EXPECT_EQ(Bits(got.speedup), Bits(want.speedup));
  EXPECT_EQ(Bits(got.time), Bits(want.time));
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(Bits(got.final_delta), Bits(want.final_delta));
  ASSERT_EQ(got.threads.size(), want.threads.size());
  for (size_t t = 0; t < got.threads.size(); ++t) {
    const ThreadPrediction& a = got.threads[t];
    const ThreadPrediction& b = want.threads[t];
    EXPECT_EQ(a.location.core, b.location.core) << "thread " << t;
    EXPECT_EQ(a.location.socket, b.location.socket) << "thread " << t;
    EXPECT_EQ(a.location.slot, b.location.slot) << "thread " << t;
    EXPECT_EQ(Bits(a.resource_slowdown), Bits(b.resource_slowdown)) << "thread " << t;
    EXPECT_EQ(Bits(a.comm_penalty), Bits(b.comm_penalty)) << "thread " << t;
    EXPECT_EQ(Bits(a.balance_penalty), Bits(b.balance_penalty)) << "thread " << t;
    EXPECT_EQ(Bits(a.overall_slowdown), Bits(b.overall_slowdown)) << "thread " << t;
    EXPECT_EQ(Bits(a.utilization), Bits(b.utilization)) << "thread " << t;
    EXPECT_EQ(a.bottleneck, b.bottleneck) << "thread " << t;
  }
  ASSERT_EQ(got.resource_load.size(), want.resource_load.size());
  for (size_t r = 0; r < got.resource_load.size(); ++r) {
    EXPECT_EQ(Bits(got.resource_load[r]), Bits(want.resource_load[r]))
        << "resource " << r;
  }
}

void ExpectJointBitIdentical(const CoSchedulePrediction& got,
                             const CoSchedulePrediction& want,
                             const std::string& context) {
  ASSERT_EQ(got.jobs.size(), want.jobs.size()) << context;
  for (size_t j = 0; j < got.jobs.size(); ++j) {
    ExpectBitIdentical(got.jobs[j], want.jobs[j],
                       context + " job " + std::to_string(j));
  }
  ASSERT_EQ(got.resource_load.size(), want.resource_load.size()) << context;
  for (size_t r = 0; r < got.resource_load.size(); ++r) {
    EXPECT_EQ(Bits(got.resource_load[r]), Bits(want.resource_load[r]))
        << context << " resource " << r;
  }
}

void ExpectTraceBitIdentical(const obs::PredictionTrace& got,
                             const obs::PredictionTrace& want,
                             const std::string& context) {
  SCOPED_TRACE(context);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(Bits(got.final_delta), Bits(want.final_delta));
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (size_t i = 0; i < got.iterations.size(); ++i) {
    const obs::PredictionIterationTrace& a = got.iterations[i];
    const obs::PredictionIterationTrace& b = want.iterations[i];
    EXPECT_EQ(a.iteration, b.iteration) << "iteration " << i;
    EXPECT_EQ(Bits(a.max_delta), Bits(b.max_delta)) << "iteration " << i;
    EXPECT_EQ(a.converged, b.converged) << "iteration " << i;
    EXPECT_EQ(a.dampened, b.dampened) << "iteration " << i;
    ASSERT_EQ(a.thread_slowdowns.size(), b.thread_slowdowns.size());
    for (size_t t = 0; t < a.thread_slowdowns.size(); ++t) {
      EXPECT_EQ(Bits(a.thread_slowdowns[t]), Bits(b.thread_slowdowns[t]))
          << "iteration " << i << " thread " << t;
    }
    ASSERT_EQ(a.thread_bottlenecks.size(), b.thread_bottlenecks.size());
    for (size_t t = 0; t < a.thread_bottlenecks.size(); ++t) {
      EXPECT_EQ(a.thread_bottlenecks[t], b.thread_bottlenecks[t])
          << "iteration " << i << " thread " << t;
    }
  }
}

// Placement corpus for one machine: singleton, spread, SMT-packed, full
// machine, and an asymmetric two-socket split — the shapes that exercise
// every solver term (burstiness, communication, balancing, DRAM routing).
std::vector<Placement> PlacementCorpus(const MachineTopology& topo) {
  std::vector<Placement> corpus;
  corpus.push_back(Placement::OnePerCore(topo, 1));
  corpus.push_back(Placement::OnePerCore(topo, topo.cores_per_socket));
  corpus.push_back(Placement::OnePerCore(topo, topo.NumCores()));
  corpus.push_back(Placement::TwoPerCore(topo, 2 * topo.NumCores()));
  if (topo.num_sockets >= 2) {
    std::vector<SocketLoad> lopsided(static_cast<size_t>(topo.num_sockets));
    lopsided[0] = SocketLoad{topo.cores_per_socket, 0};
    lopsided[1] = SocketLoad{1, 0};
    corpus.push_back(Placement::FromSocketLoads(topo, lopsided));
  }
  return corpus;
}

TEST(SolverEquivalence, SingleJobBitIdenticalOnAllPaperMachines) {
  for (const std::string& machine : sim::KnownMachineNames()) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const MachineTopology& topo = pipeline.machine().topology();
    for (const char* workload : {"CG", "Swim"}) {
      const WorkloadDescription& desc = Desc(machine, workload);
      const PredictionOptions options;
      const CoSchedulePredictor engine(pipeline.description(), options);
      for (const Placement& placement : PlacementCorpus(topo)) {
        const CoScheduleRequest request{&desc, placement};
        const std::span<const CoScheduleRequest> span(&request, 1);
        ExpectJointBitIdentical(
            engine.Predict(span),
            ReferenceCoSchedulePredict(pipeline.description(), options, span),
            machine + "/" + workload + "/" +
                std::to_string(placement.TotalThreads()) + "t");
      }
    }
  }
}

TEST(SolverEquivalence, MultiJobCoScheduleBitIdentical) {
  for (const std::string& machine : {std::string("x3-2"), std::string("x2-4")}) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const MachineTopology& topo = pipeline.machine().topology();
    const WorkloadDescription& cg = Desc(machine, "CG");
    const WorkloadDescription& swim = Desc(machine, "Swim");
    const WorkloadDescription& ep = Desc(machine, "EP");
    // Three jobs: CG spread over every socket, Swim packed on socket 0
    // (overlapping CG's cores there via SMT), EP on one core.
    std::vector<SocketLoad> swim_loads(static_cast<size_t>(topo.num_sockets));
    swim_loads[0] = SocketLoad{topo.cores_per_socket / 2, 0};
    const std::vector<CoScheduleRequest> requests{
        {&cg, Placement::OnePerCore(topo, topo.NumCores())},
        {&swim, Placement::FromSocketLoads(topo, swim_loads)},
        {&ep, Placement::OnePerCore(topo, 1)},
    };
    const PredictionOptions options;
    const CoSchedulePredictor engine(pipeline.description(), options);
    ExpectJointBitIdentical(
        engine.Predict(requests),
        ReferenceCoSchedulePredict(pipeline.description(), options, requests),
        machine + "/three-jobs");
  }
}

TEST(SolverEquivalence, AblationOptionsBitIdentical) {
  const eval::Pipeline& pipeline = PipelineFor("x3-2");
  const MachineTopology& topo = pipeline.machine().topology();
  const WorkloadDescription& desc = Desc("x3-2", "Swim");
  std::vector<PredictionOptions> variants(5);
  variants[1].model_burstiness = false;
  variants[2].model_communication = false;
  variants[3].model_load_balance = false;
  variants[4].iterate = false;
  // A tiny dampen_after forces the dampened-update path early.
  PredictionOptions dampened;
  dampened.dampen_after = 2;
  variants.push_back(dampened);
  const Placement placement = Placement::TwoPerCore(topo, 2 * topo.NumCores());
  for (size_t v = 0; v < variants.size(); ++v) {
    const CoSchedulePredictor engine(pipeline.description(), variants[v]);
    const CoScheduleRequest request{&desc, placement};
    const std::span<const CoScheduleRequest> span(&request, 1);
    ExpectJointBitIdentical(
        engine.Predict(span),
        ReferenceCoSchedulePredict(pipeline.description(), variants[v], span),
        "variant " + std::to_string(v));
  }
}

TEST(SolverEquivalence, IterationTraceBitIdentical) {
  const eval::Pipeline& pipeline = PipelineFor("x5-2");
  const MachineTopology& topo = pipeline.machine().topology();
  const WorkloadDescription& desc = Desc("x5-2", "Swim");
  obs::PredictionTrace got_trace;
  obs::PredictionTrace want_trace;
  PredictionOptions got_options;
  got_options.common.trace = &got_trace;
  PredictionOptions want_options;
  want_options.common.trace = &want_trace;
  const CoSchedulePredictor engine(pipeline.description(), got_options);
  const Placement placement = Placement::TwoPerCore(topo, 2 * topo.NumCores());
  const CoScheduleRequest request{&desc, placement};
  const std::span<const CoScheduleRequest> span(&request, 1);
  const CoSchedulePrediction got = engine.Predict(span);
  const CoSchedulePrediction want =
      ReferenceCoSchedulePredict(pipeline.description(), want_options, span);
  ExpectJointBitIdentical(got, want, "traced solve");
  ASSERT_GT(got_trace.iterations.size(), 1u);
  ExpectTraceBitIdentical(got_trace, want_trace, "trace");
}

TEST(SolverEquivalence, ScratchArenaStopsGrowingAfterFirstSolve) {
  const eval::Pipeline& pipeline = PipelineFor("x3-2");
  const MachineTopology& topo = pipeline.machine().topology();
  const WorkloadDescription& desc = Desc("x3-2", "CG");
  const CoSchedulePredictor engine(pipeline.description());
  SolverScratch scratch;
  std::vector<Placement> corpus = PlacementCorpus(topo);
  // Warm the arena up to the largest shape in the corpus, then re-solving
  // every shape must not grow any buffer: the zero-allocation property.
  for (const Placement& placement : corpus) {
    const CoScheduleRequest request{&desc, placement};
    engine.PredictWithScratch(std::span<const CoScheduleRequest>(&request, 1), scratch);
  }
  const uint64_t grown = scratch.grow_events;
  EXPECT_GT(grown, 0u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (const Placement& placement : corpus) {
      const CoScheduleRequest request{&desc, placement};
      engine.PredictWithScratch(std::span<const CoScheduleRequest>(&request, 1),
                                scratch);
    }
  }
  EXPECT_EQ(scratch.grow_events, grown);
}

TEST(SolverEquivalence, PredictorExactModeBitIdenticalToReference) {
  const eval::Pipeline& pipeline = PipelineFor("x4-2");
  const MachineTopology& topo = pipeline.machine().topology();
  const WorkloadDescription& desc = Desc("x4-2", "CG");
  const Predictor predictor = pipeline.MakePredictor(desc);
  for (const Placement& placement : PlacementCorpus(topo)) {
    const CoScheduleRequest request{&desc, placement};
    const CoSchedulePrediction want = ReferenceCoSchedulePredict(
        pipeline.description(), predictor.options(),
        std::span<const CoScheduleRequest>(&request, 1));
    ExpectBitIdentical(predictor.Predict(placement), want.jobs[0],
                       "predictor " + std::to_string(placement.TotalThreads()) + "t");
  }
}

}  // namespace
}  // namespace pandia
