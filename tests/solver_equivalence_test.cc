// Equivalence proof for the class solver: the production
// CoSchedulePredictor, which iterates over thread classes, must produce
// *byte-identical* predictions to the retained per-thread reference solver
// (tests/reference_solver.h) — same slowdowns, bottlenecks, final_delta,
// iteration count, resource loads and per-iteration trace contents —
// across all four paper machines, every canonical x3-2 placement of the
// suite, random joint schedules with SMT-shared cores, ablation options,
// and edge placements. Doubles are compared through std::bit_cast so
// "identical" means identical bits, not within-epsilon.
#include <algorithm>
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
#include "src/topology/enumerate.h"
#include "src/util/rng.h"
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

const WorkloadDescription& Desc(const std::string& machine, const std::string& workload) {
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

// The first field in which `got` differs from `want`, or "" when every bit
// matches, so a failing solve reports one line, not one per field.
std::string FirstDifference(const Prediction& got, const Prediction& want) {
  if (Bits(got.amdahl_speedup) != Bits(want.amdahl_speedup)) return "amdahl_speedup";
  if (Bits(got.speedup) != Bits(want.speedup)) return "speedup";
  if (Bits(got.time) != Bits(want.time)) return "time";
  if (got.iterations != want.iterations) return "iterations";
  if (got.converged != want.converged) return "converged";
  if (Bits(got.final_delta) != Bits(want.final_delta)) return "final_delta";
  if (got.threads.size() != want.threads.size()) return "thread count";
  for (size_t t = 0; t < got.threads.size(); ++t) {
    const ThreadPrediction& a = got.threads[t];
    const ThreadPrediction& b = want.threads[t];
    const std::string at = " of thread " + std::to_string(t);
    if (!(a.location == b.location)) return "location" + at;
    if (Bits(a.resource_slowdown) != Bits(b.resource_slowdown)) {
      return "resource_slowdown" + at;
    }
    if (Bits(a.comm_penalty) != Bits(b.comm_penalty)) return "comm_penalty" + at;
    if (Bits(a.balance_penalty) != Bits(b.balance_penalty)) return "balance_penalty" + at;
    if (Bits(a.overall_slowdown) != Bits(b.overall_slowdown)) {
      return "overall_slowdown" + at;
    }
    if (Bits(a.utilization) != Bits(b.utilization)) return "utilization" + at;
    if (a.bottleneck != b.bottleneck) return "bottleneck" + at;
  }
  if (got.resource_load.size() != want.resource_load.size()) return "resource count";
  for (size_t r = 0; r < got.resource_load.size(); ++r) {
    if (Bits(got.resource_load[r]) != Bits(want.resource_load[r])) {
      return "load of resource " + std::to_string(r);
    }
  }
  return "";
}

std::string FirstDifference(const CoSchedulePrediction& got,
                            const CoSchedulePrediction& want) {
  if (got.jobs.size() != want.jobs.size()) return "job count";
  for (size_t j = 0; j < got.jobs.size(); ++j) {
    const std::string difference = FirstDifference(got.jobs[j], want.jobs[j]);
    if (!difference.empty()) return "job " + std::to_string(j) + ": " + difference;
  }
  if (got.resource_load.size() != want.resource_load.size()) return "resource count";
  for (size_t r = 0; r < got.resource_load.size(); ++r) {
    if (Bits(got.resource_load[r]) != Bits(want.resource_load[r])) {
      return "joint load of resource " + std::to_string(r);
    }
  }
  return "";
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

// Three jobs: CG spread over every socket, Swim packed on socket 0
// (overlapping CG's cores there via SMT), EP on one core — core 0 holds a
// thread of each.
std::vector<CoScheduleRequest> ThreeJobSchedule(const std::string& machine) {
  const MachineTopology& topo = PipelineFor(machine).machine().topology();
  std::vector<SocketLoad> swim_loads(static_cast<size_t>(topo.num_sockets));
  swim_loads[0] = SocketLoad{topo.cores_per_socket / 2, 0};
  return {
      {&Desc(machine, "CG"), Placement::OnePerCore(topo, topo.NumCores())},
      {&Desc(machine, "Swim"), Placement::FromSocketLoads(topo, swim_loads)},
      {&Desc(machine, "EP"), Placement::OnePerCore(topo, 1)},
  };
}

// Joint schedules per machine in RandomJointSchedulesBitIdentical.
constexpr int kRandomSchedules = 1500;

// A seeded joint schedule of 2-6 suite jobs. Each job takes up to two
// sockets' worth of threads, either walking the cores from a random one
// (long runs of one class) or scattering over random cores (many short
// ones), one or two threads per core. Most schedules respect the machine's
// SMT slots, so jobs share cores as the rack packs them; one in four lets
// a core hold more threads than it has slots, which the solver accepts.
std::vector<CoScheduleRequest> RandomJointSchedule(Rng& rng, const std::string& machine,
                                                   const std::vector<std::string>& names) {
  const MachineTopology& topo = PipelineFor(machine).machine().topology();
  const int num_cores = topo.NumCores();
  const int slots = topo.threads_per_core;
  const bool oversubscribe = rng.NextBounded(4) == 0;
  std::vector<int> free_slots(static_cast<size_t>(num_cores), slots);
  int free_total = num_cores * slots;
  std::vector<CoScheduleRequest> requests;
  const int num_jobs = 2 + static_cast<int>(rng.NextBounded(5));
  for (int r = 0; r < num_jobs && free_total > 0; ++r) {
    std::vector<uint8_t> per_core(static_cast<size_t>(num_cores), 0);
    const int cap = oversubscribe ? num_cores * slots : free_total;
    int want = 1 + static_cast<int>(
                       rng.NextBounded(std::min(cap, 2 * topo.cores_per_socket)));
    const bool scatter = rng.NextBounded(2) == 0;
    const int per_step = 1 + static_cast<int>(rng.NextBounded(slots));
    int core = static_cast<int>(rng.NextBounded(num_cores));
    while (want > 0) {
      core = scatter ? static_cast<int>(rng.NextBounded(num_cores)) : (core + 1) % num_cores;
      const int room = oversubscribe ? slots - per_core[core]
                                     : std::min(free_slots[core], slots - per_core[core]);
      const int take = std::min({room, per_step, want});
      if (take <= 0) {
        continue;
      }
      per_core[core] = static_cast<uint8_t>(per_core[core] + take);
      free_slots[core] -= take;
      free_total -= take;
      want -= take;
    }
    const std::string& name = names[rng.NextBounded(names.size())];
    requests.push_back({&Desc(machine, name), Placement(topo, std::move(per_core))});
  }
  return requests;
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
        EXPECT_EQ(FirstDifference(engine.Predict(span),
                                  ReferenceCoSchedulePredict(pipeline.description(),
                                                             options, span)),
                  "")
            << machine << "/" << workload << "/" << placement.TotalThreads() << "t";
      }
    }
  }
}

TEST(SolverEquivalence, MultiJobCoScheduleBitIdentical) {
  for (const std::string& machine : {std::string("x3-2"), std::string("x2-4")}) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const std::vector<CoScheduleRequest> requests = ThreeJobSchedule(machine);
    const PredictionOptions options;
    const CoSchedulePredictor engine(pipeline.description(), options);
    EXPECT_EQ(FirstDifference(engine.Predict(requests),
                              ReferenceCoSchedulePredict(pipeline.description(),
                                                         options, requests)),
              "")
        << machine << "/three-jobs";
  }
}

TEST(SolverEquivalence, EveryCanonicalPlacementBitIdentical) {
  int solves = 0;
  int mismatches = 0;
  const auto sweep = [&](const std::string& machine, const std::string& workload,
                         const std::vector<Placement>& placements) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const WorkloadDescription& desc = Desc(machine, workload);
    const PredictionOptions options;
    const CoSchedulePredictor engine(pipeline.description(), options);
    for (const Placement& placement : placements) {
      // PredictOne is the optimizer's path; the reference takes a request.
      const CoScheduleRequest request{&desc, placement};
      const CoSchedulePrediction want = ReferenceCoSchedulePredict(
          pipeline.description(), options, std::span<const CoScheduleRequest>(&request, 1));
      const std::string difference =
          FirstDifference(engine.PredictOne(desc, placement), want.jobs[0]);
      ++solves;
      if (!difference.empty() && ++mismatches <= 5) {
        ADD_FAILURE() << machine << "/" << workload << " at " << placement.ToString()
                      << ": " << difference;
      }
    }
  };
  const std::vector<Placement> x3 =
      EnumerateCanonicalPlacements(PipelineFor("x3-2").machine().topology());
  ASSERT_EQ(x3.size(), 1034u);
  for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
    sweep("x3-2", workload.name, x3);
  }
  // x2-4's four sockets route memory traffic over several links: a sample
  // of its placements for a communication-heavy, a DRAM-bound and a bursty
  // workload.
  const std::vector<Placement> x2 =
      SampleCanonicalPlacements(PipelineFor("x2-4").machine().topology(), 600, 1);
  ASSERT_EQ(x2.size(), 600u);
  for (const char* workload : {"FT", "Swim", "FMA-3D"}) {
    sweep("x2-4", workload, x2);
  }
  EXPECT_EQ(mismatches, 0) << "of " << solves << " solves";
}

TEST(SolverEquivalence, RandomJointSchedulesBitIdentical) {
  std::vector<std::string> names;
  for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
    names.push_back(workload.name);
  }
  int solves = 0;
  int mismatches = 0;
  for (const std::string& machine : {std::string("x3-2"), std::string("x2-4")}) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const PredictionOptions options;
    const CoSchedulePredictor engine(pipeline.description(), options);
    Rng rng(machine == "x3-2" ? 32 : 24);
    for (int schedule = 0; schedule < kRandomSchedules; ++schedule) {
      const std::vector<CoScheduleRequest> requests =
          RandomJointSchedule(rng, machine, names);
      const std::string difference = FirstDifference(
          engine.Predict(requests),
          ReferenceCoSchedulePredict(pipeline.description(), options, requests));
      ++solves;
      if (!difference.empty() && ++mismatches <= 5) {
        ADD_FAILURE() << machine << " schedule " << schedule << " ("
                      << requests.size() << " jobs): " << difference;
      }
      // Every 50th schedule also compares the per-thread trace, which the
      // solver expands from its classes.
      if (schedule % 50 == 0) {
        obs::PredictionTrace got_trace;
        obs::PredictionTrace want_trace;
        PredictionOptions got_options;
        got_options.trace = &got_trace;
        PredictionOptions want_options;
        want_options.trace = &want_trace;
        const CoSchedulePredictor traced(pipeline.description(), got_options);
        traced.Predict(requests);
        ReferenceCoSchedulePredict(pipeline.description(), want_options, requests);
        ExpectTraceBitIdentical(got_trace, want_trace,
                                machine + " traced schedule " + std::to_string(schedule));
      }
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << solves << " solves";
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
    EXPECT_EQ(FirstDifference(engine.Predict(span),
                              ReferenceCoSchedulePredict(pipeline.description(),
                                                         variants[v], span)),
              "")
        << "variant " << v;
  }
}

TEST(SolverEquivalence, IterationTraceBitIdentical) {
  const eval::Pipeline& pipeline = PipelineFor("x5-2");
  const MachineTopology& topo = pipeline.machine().topology();
  const WorkloadDescription& desc = Desc("x5-2", "Swim");
  obs::PredictionTrace got_trace;
  obs::PredictionTrace want_trace;
  PredictionOptions got_options;
  got_options.trace = &got_trace;
  PredictionOptions want_options;
  want_options.trace = &want_trace;
  const CoSchedulePredictor engine(pipeline.description(), got_options);
  const Placement placement = Placement::TwoPerCore(topo, 2 * topo.NumCores());
  const CoScheduleRequest request{&desc, placement};
  const std::span<const CoScheduleRequest> span(&request, 1);
  const CoSchedulePrediction got = engine.Predict(span);
  const CoSchedulePrediction want =
      ReferenceCoSchedulePredict(pipeline.description(), want_options, span);
  EXPECT_EQ(FirstDifference(got, want), "") << "traced solve";
  ASSERT_GT(got_trace.iterations.size(), 1u);
  ExpectTraceBitIdentical(got_trace, want_trace, "trace");
}

// Same-count placements of x3-2 (2 sockets x 8 cores x 2 threads): eight
// threads as 1, 2 and 4 classes.
std::vector<Placement> EightThreadPlacements(const MachineTopology& topo) {
  return {
      Placement::FromSocketLoads(topo, std::vector<SocketLoad>{{8, 0}, {0, 0}}),
      Placement::FromSocketLoads(topo, std::vector<SocketLoad>{{0, 2}, {4, 0}}),
      Placement::FromSocketLoads(topo, std::vector<SocketLoad>{{2, 1}, {2, 1}}),
  };
}

TEST(SolverEquivalence, ClassCountsFollowCoreCompositions) {
  const eval::Pipeline& pipeline = PipelineFor("x3-2");
  const MachineTopology& topo = pipeline.machine().topology();
  ASSERT_EQ(topo.num_sockets, 2);
  ASSERT_EQ(topo.cores_per_socket, 8);
  const WorkloadDescription& desc = Desc("x3-2", "CG");
  const CoSchedulePredictor engine(pipeline.description());
  SolverScratch scratch;
  const auto classes = [&](std::span<const CoScheduleRequest> requests) {
    engine.PredictWithScratch(requests, scratch);
    return scratch.num_classes;
  };
  const auto solo_classes = [&](const Placement& placement) {
    const CoScheduleRequest request{&desc, placement};
    return classes(std::span<const CoScheduleRequest>(&request, 1));
  };
  // A solo job's classes are (socket, threads on the core).
  const std::vector<Placement> corpus = PlacementCorpus(topo);
  EXPECT_EQ(solo_classes(corpus[0]), 1);  // OnePerCore(1)
  EXPECT_EQ(solo_classes(corpus[1]), 1);  // OnePerCore(cores_per_socket)
  EXPECT_EQ(solo_classes(corpus[2]), 2);  // OnePerCore(cores): one per socket
  EXPECT_EQ(solo_classes(corpus[3]), 2);  // TwoPerCore(all)
  EXPECT_EQ(solo_classes(corpus[4]), 2);  // lopsided: 8 + 1 singles
  const std::vector<Placement> eight = EightThreadPlacements(topo);
  EXPECT_EQ(solo_classes(eight[0]), 1);
  EXPECT_EQ(solo_classes(eight[1]), 2);
  EXPECT_EQ(solo_classes(eight[2]), 4);
  EXPECT_EQ(scratch.num_segments, 4);
  // The three-job schedule: core 0 holds CG, Swim and EP; cores 1-3 CG and
  // Swim; cores 4-7 and socket 1's cores CG alone. Four groups; CG has a
  // class in each, Swim in two, EP in one.
  EXPECT_EQ(classes(ThreeJobSchedule("x3-2")), 7);
  EXPECT_EQ(scratch.num_groups, 4);
  EXPECT_EQ(scratch.num_occupied, 16);
}

TEST(SolverEquivalence, ScratchArenaStopsGrowingAfterFirstSolve) {
  const eval::Pipeline& pipeline = PipelineFor("x3-2");
  const MachineTopology& topo = pipeline.machine().topology();
  const WorkloadDescription& desc = Desc("x3-2", "CG");
  const CoSchedulePredictor engine(pipeline.description());
  SolverScratch scratch;
  // Solo jobs of every corpus shape, same-count placements whose class
  // counts differ (one problem shape, so the sizing pass is skipped between
  // them), and joint schedules.
  std::vector<std::vector<CoScheduleRequest>> schedules;
  for (const Placement& placement : PlacementCorpus(topo)) {
    schedules.push_back({{&desc, placement}});
  }
  for (const Placement& placement : EightThreadPlacements(topo)) {
    schedules.push_back({{&desc, placement}});
  }
  schedules.push_back(ThreeJobSchedule("x3-2"));
  schedules.push_back({{&desc, Placement::OnePerCore(topo, topo.NumCores())},
                       {&Desc("x3-2", "Swim"), Placement::OnePerCore(topo, 4)}});
  // Warm the arena up to the largest shape, then re-solving every schedule
  // must not grow any buffer: the zero-allocation property.
  std::vector<int32_t> class_counts;
  for (const std::vector<CoScheduleRequest>& requests : schedules) {
    engine.PredictWithScratch(requests, scratch);
    class_counts.push_back(scratch.num_classes);
  }
  const uint64_t grown = scratch.grow_events;
  EXPECT_GT(grown, 0u);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (size_t i = 0; i < schedules.size(); ++i) {
      engine.PredictWithScratch(schedules[i], scratch);
      EXPECT_EQ(scratch.num_classes, class_counts[i]) << "schedule " << i;
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
    EXPECT_EQ(FirstDifference(predictor.Predict(placement), want.jobs[0]), "")
        << "predictor " << placement.TotalThreads() << "t";
  }
}

}  // namespace
}  // namespace pandia
