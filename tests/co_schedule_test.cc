// Tests for the co-scheduling extension (§8 future work): the joint model
// must reduce exactly to the single-workload model, capture interference
// between jobs, and roughly agree with simulated co-runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>

#include "src/eval/pipeline.h"
#include "src/predictor/co_schedule.h"
#include "src/topology/enumerate.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace {

const eval::Pipeline& X3() {
  static const eval::Pipeline pipeline("x3-2");
  return pipeline;
}

const WorkloadDescription& Desc(const char* name) {
  static std::map<std::string, WorkloadDescription> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, X3().Profile(workloads::ByName(name))).first;
  }
  return it->second;
}

TEST(CoSchedule, SingleJobMatchesPredictorExactly) {
  const WorkloadDescription& desc = Desc("CG");
  const Predictor predictor = X3().MakePredictor(desc);
  const CoSchedulePredictor engine(X3().description());
  const MachineTopology& topo = X3().machine().topology();
  for (const Placement& placement :
       {Placement::OnePerCore(topo, 6), Placement::TwoPerCore(topo, 20)}) {
    const Prediction single = predictor.Predict(placement);
    const CoScheduleRequest request{&desc, placement};
    const CoSchedulePrediction joint =
        engine.Predict(std::span<const CoScheduleRequest>(&request, 1));
    EXPECT_DOUBLE_EQ(single.speedup, joint.jobs[0].speedup);
    EXPECT_DOUBLE_EQ(single.time, joint.jobs[0].time);
    EXPECT_EQ(single.iterations, joint.jobs[0].iterations);
  }
}

TEST(CoSchedule, DisjointComputeJobsDoNotInterfere) {
  const WorkloadDescription& desc = Desc("EP");
  const MachineTopology& topo = X3().machine().topology();
  // EP on socket 0 and EP on socket 1, no shared resources to saturate.
  std::vector<SocketLoad> s0{{4, 0}, {0, 0}};
  std::vector<SocketLoad> s1{{0, 0}, {4, 0}};
  const std::vector<CoScheduleRequest> requests{
      {&desc, Placement::FromSocketLoads(topo, s0)},
      {&desc, Placement::FromSocketLoads(topo, s1)},
  };
  const CoSchedulePredictor engine(X3().description());
  const CoSchedulePrediction joint = engine.Predict(requests);
  const Predictor solo = X3().MakePredictor(desc);
  const Prediction alone = solo.Predict(Placement::FromSocketLoads(topo, s0));
  EXPECT_NEAR(joint.jobs[0].speedup, alone.speedup, alone.speedup * 0.02);
  EXPECT_NEAR(joint.jobs[1].speedup, alone.speedup, alone.speedup * 0.02);
}

TEST(CoSchedule, MemoryJobsOnOneSocketInterfere) {
  const WorkloadDescription& desc = Desc("Swim");
  const MachineTopology& topo = X3().machine().topology();
  // Two bandwidth-bound jobs packed onto the same socket must slow each
  // other; the same jobs on separate sockets must not.
  std::vector<SocketLoad> first_half{{4, 0}, {0, 0}};
  Placement second_half(topo, {0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0});
  const std::vector<CoScheduleRequest> same_socket{
      {&desc, Placement::FromSocketLoads(topo, first_half)},
      {&desc, second_half},
  };
  std::vector<SocketLoad> other_socket{{0, 0}, {4, 0}};
  const std::vector<CoScheduleRequest> split{
      {&desc, Placement::FromSocketLoads(topo, first_half)},
      {&desc, Placement::FromSocketLoads(topo, other_socket)},
  };
  const CoSchedulePredictor engine(X3().description());
  const double same = engine.Predict(same_socket).jobs[0].speedup;
  const double apart = engine.Predict(split).jobs[0].speedup;
  EXPECT_LT(same, apart * 0.92);
}

TEST(CoSchedule, InterferencePredictionTracksSimulatedCoRun) {
  // Simulate CG (foreground) sharing socket 0 with a continuously running
  // Swim (background); the joint prediction of CG's time must land within
  // a factor of ~1.5 of the simulated co-run.
  const WorkloadDescription& cg = Desc("CG");
  const WorkloadDescription& swim = Desc("Swim");
  const MachineTopology& topo = X3().machine().topology();
  const Placement cg_placement(topo, {1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0});
  const Placement swim_placement(topo, {0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0});

  const std::vector<CoScheduleRequest> requests{
      {&cg, cg_placement},
      {&swim, swim_placement},
  };
  const CoSchedulePredictor engine(X3().description());
  const double predicted = engine.Predict(requests).jobs[0].time;

  const sim::WorkloadSpec cg_spec = workloads::ByName("CG");
  const sim::WorkloadSpec swim_spec = workloads::ByName("Swim");
  const std::vector<sim::JobRequest> jobs{
      {&cg_spec, cg_placement, /*background=*/false},
      {&swim_spec, swim_placement, /*background=*/true},
  };
  const double measured = X3().machine().Run(jobs).jobs[0].completion_time;
  EXPECT_LT(predicted, measured * 1.5);
  EXPECT_GT(predicted, measured / 1.5);

  // And the co-run must be slower than CG alone on those cores.
  const double alone =
      X3().machine().RunOne(cg_spec, cg_placement).jobs[0].completion_time;
  EXPECT_GT(measured, alone * 1.02);
  const Predictor solo = X3().MakePredictor(cg);
  EXPECT_GT(predicted, solo.Predict(cg_placement).time * 1.02);
}

TEST(CoSchedule, CombinedResourceLoadIsSumOfJobs) {
  const WorkloadDescription& cg = Desc("CG");
  const MachineTopology& topo = X3().machine().topology();
  std::vector<SocketLoad> s0{{2, 0}, {0, 0}};
  std::vector<SocketLoad> s1{{0, 0}, {2, 0}};
  const std::vector<CoScheduleRequest> requests{
      {&cg, Placement::FromSocketLoads(topo, s0)},
      {&cg, Placement::FromSocketLoads(topo, s1)},
  };
  const CoSchedulePredictor engine(X3().description());
  const CoSchedulePrediction joint = engine.Predict(requests);
  const ResourceIndex index(topo);
  // Both jobs are symmetric, so both DRAM nodes see the same load.
  EXPECT_NEAR(joint.resource_load[index.Dram(0)], joint.resource_load[index.Dram(1)],
              1e-9);
  EXPECT_GT(joint.resource_load[index.Dram(0)], 0.0);
}

// SpeedupCeiling is admissible: no joint solve reports a speedup above it —
// on all four paper machines, with jobs sharing SMT cores and spanning
// sockets, and whether or not the solve converged. The rack's
// bound-and-prune search is exact only because of this.
TEST(CoSchedule, SpeedupNeverExceedsItsCeiling) {
  const std::vector<std::string> suite = {"EP", "CG", "MD", "Swim", "BT", "Bwaves"};
  Rng rng(2017);
  int checked = 0;
  int non_converged = 0;
  int shared_cores = 0;
  int multi_socket = 0;
  for (const char* type : {"x5-2", "x4-2", "x3-2", "x2-4"}) {
    const eval::Pipeline pipeline(type);
    const MachineTopology& topo = pipeline.machine().topology();
    std::vector<WorkloadDescription> descriptions;
    for (const std::string& name : suite) {
      descriptions.push_back(pipeline.Profile(workloads::ByName(name)));
    }
    for (const int max_iterations : {2, 3, 1000}) {
      PredictionOptions options;
      options.max_iterations = max_iterations;
      const CoSchedulePredictor engine(pipeline.description(), options);
      for (int trial = 0; trial < 40; ++trial) {
        // 1-4 jobs of 1-16 threads on random cores; a core's SMT slots may
        // go to different jobs.
        std::vector<uint8_t> free(static_cast<size_t>(topo.NumCores()),
                                  static_cast<uint8_t>(topo.threads_per_core));
        std::vector<int> owners(static_cast<size_t>(topo.NumCores()), 0);
        std::vector<CoScheduleRequest> requests;
        const int jobs = 1 + static_cast<int>(rng.NextBounded(4));
        for (int j = 0; j < jobs; ++j) {
          std::vector<uint8_t> per_core(static_cast<size_t>(topo.NumCores()), 0);
          int threads = 1 + static_cast<int>(rng.NextBounded(16));
          for (int attempt = 0; attempt < 200 && threads > 0; ++attempt) {
            const size_t core = rng.NextBounded(per_core.size());
            if (free[core] > 0) {
              owners[core] += per_core[core] == 0 ? 1 : 0;
              ++per_core[core];
              --free[core];
              --threads;
            }
          }
          Placement placement(topo, std::move(per_core));
          if (placement.TotalThreads() == 0) {
            break;
          }
          multi_socket += placement.NumActiveSockets() > 1 ? 1 : 0;
          requests.push_back(CoScheduleRequest{
              &descriptions[rng.NextBounded(descriptions.size())], std::move(placement)});
        }
        for (const int owner_count : owners) {
          shared_cores += owner_count > 1 ? 1 : 0;
        }
        const CoSchedulePrediction joint = engine.Predict(requests);
        for (size_t j = 0; j < requests.size(); ++j) {
          const double ceiling = engine.SpeedupCeiling(
              *requests[j].workload, requests[j].placement.TotalThreads());
          EXPECT_LE(joint.jobs[j].speedup, ceiling)
              << type << " max_iterations=" << max_iterations << " trial " << trial
              << " job " << j;
          non_converged += joint.jobs[j].converged ? 0 : 1;
          ++checked;
        }
      }
    }
  }
  EXPECT_GT(checked, 1000);
  EXPECT_GT(non_converged, 0);
  EXPECT_GT(shared_cores, 0);
  EXPECT_GT(multi_socket, 0);

  // A solve that stops after one iteration runs no §5.4 clamp: no ceiling.
  const WorkloadDescription& desc = Desc("CG");
  const double inf = std::numeric_limits<double>::infinity();
  PredictionOptions one_pass;
  one_pass.iterate = false;
  EXPECT_EQ(CoSchedulePredictor(X3().description(), one_pass).SpeedupCeiling(desc, 8),
            inf);
  PredictionOptions one_iteration;
  one_iteration.max_iterations = 1;
  EXPECT_EQ(
      CoSchedulePredictor(X3().description(), one_iteration).SpeedupCeiling(desc, 8),
      inf);
  EXPECT_LT(CoSchedulePredictor(X3().description()).SpeedupCeiling(desc, 8), 8.0);
}

// CapacityCeiling is admissible for solo jobs: no prediction of any
// candidate the optimizer searches (x5-2 and x2-4 sampled at 600, as in
// OptimizerSearch.PrunedSearchMatchesTheExhaustiveScan) exceeds it by more
// than kCapacityCeilingSlack, for every suite workload on all four paper
// machines, converged or not. The fixed-point argument covers converged
// solves only; the others rest on this test. The bound is also tight: where
// a placement saturates a shared resource, a prediction meets it.
TEST(CoSchedule, SoloSpeedupNeverExceedsItsCapacityCeiling) {
  int checked = 0;
  int non_converged = 0;
  int violations = 0;
  double worst_excess = -1.0;  // the largest speedup / ceiling - 1
  std::set<std::string> tight;
  for (const char* type : {"x5-2", "x4-2", "x3-2", "x2-4"}) {
    const eval::Pipeline pipeline(type);
    const MachineTopology& topo = pipeline.machine().topology();
    const std::vector<Placement> candidates =
        CountCanonicalPlacements(topo) <= 5000 ? EnumerateCanonicalPlacements(topo)
                                               : SampleCanonicalPlacements(topo, 600, 1);
    for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
      const WorkloadDescription desc = pipeline.Profile(workload);
      for (const int max_iterations : {2, 3, 1000}) {
        PredictionOptions options;
        options.max_iterations = max_iterations;
        const Predictor predictor = pipeline.MakePredictor(desc, options);
        const CoSchedulePredictor engine(pipeline.description(), options);
        for (const Placement& placement : candidates) {
          const Prediction prediction = predictor.Predict(placement);
          const double ceiling =
              engine.CapacityCeiling(desc, placement, placement.PerCore());
          const double excess = prediction.speedup / ceiling - 1.0;
          worst_excess = std::max(worst_excess, excess);
          // Tight where a resource binds: the ceiling is below Amdahl's.
          if (max_iterations == 1000 && prediction.converged && excess > -1e-9 &&
              ceiling < engine.SpeedupCeiling(desc, placement.TotalThreads()) * 0.999) {
            tight.insert(std::string(type) + " " + workload.name);
          }
          if (prediction.speedup > ceiling * (1.0 + kCapacityCeilingSlack) &&
              ++violations <= 5) {
            ADD_FAILURE() << type << " " << workload.name
                          << " max_iterations=" << max_iterations << " "
                          << placement.ToString() << ": speedup " << prediction.speedup
                          << " above capacity ceiling " << ceiling;
          }
          non_converged += prediction.converged ? 0 : 1;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(violations, 0);
  EXPECT_GT(checked, 200000);
  EXPECT_GT(non_converged, 0);
  RecordProperty("worst_relative_excess", StrFormat("%.3g", worst_excess));
  RecordProperty("non_converged", non_converged);
  for (const char* expected : {"x4-2 Swim", "x5-2 Swim", "x5-2 Art"}) {
    EXPECT_TRUE(tight.count(expected) > 0) << expected;
  }
  // Bwaves on x2-4 meets its ceiling where one socket's DRAM saturates, as
  // with 8 threads on socket 0; the 600-placement sample holds no such
  // placement.
  {
    const eval::Pipeline pipeline("x2-4");
    const WorkloadDescription bwaves = pipeline.Profile(workloads::ByName("Bwaves"));
    const Placement one_socket = Placement::OnePerCore(pipeline.machine().topology(), 8);
    const CoSchedulePredictor engine(pipeline.description());
    const double ceiling =
        engine.CapacityCeiling(bwaves, one_socket, one_socket.PerCore());
    EXPECT_NEAR(pipeline.MakePredictor(bwaves).Predict(one_socket).speedup / ceiling, 1.0,
                1e-9);
    EXPECT_LT(ceiling, engine.SpeedupCeiling(bwaves, 8) * 0.999);
  }

  // A solve that stops after one iteration reaches no fixed point: no
  // ceiling, and neither has the predictor's combined one.
  const WorkloadDescription& desc = Desc("Swim");
  const Placement placement = Placement::TwoPerCore(X3().machine().topology(), 16);
  const double inf = std::numeric_limits<double>::infinity();
  for (const bool iterate : {false, true}) {
    PredictionOptions options;
    options.iterate = iterate;
    options.max_iterations = iterate ? 1 : 1000;
    EXPECT_EQ(CoSchedulePredictor(X3().description(), options)
                  .CapacityCeiling(desc, placement, placement.PerCore()),
              inf);
    EXPECT_EQ(X3().MakePredictor(desc, options).SpeedupCeiling(placement), inf);
  }
  EXPECT_LT(CoSchedulePredictor(X3().description())
                .CapacityCeiling(desc, placement, placement.PerCore()),
            CoSchedulePredictor(X3().description()).SpeedupCeiling(desc, 16));
}

// Schedules per machine in JointSpeedupNeverExceedsItsCapacityCeiling.
constexpr int kJointSchedules = 1500;

// A seeded joint schedule of 2-7 jobs drawn from `suite`, within the
// machine's SMT slots, as the rack packs jobs. Each job takes up to two
// sockets' worth of threads, walking the cores from a random one or
// scattering over random cores, one or more threads per core, so jobs
// share cores.
std::vector<CoScheduleRequest> RandomSharedSchedule(
    Rng& rng, const MachineTopology& topo, const std::vector<WorkloadDescription>& suite) {
  const int num_cores = topo.NumCores();
  const int slots = topo.threads_per_core;
  std::vector<int> free(static_cast<size_t>(num_cores), slots);
  int free_total = num_cores * slots;
  std::vector<CoScheduleRequest> requests;
  const int num_jobs = 2 + static_cast<int>(rng.NextBounded(6));
  for (int r = 0; r < num_jobs && free_total > 0; ++r) {
    std::vector<uint8_t> per_core(static_cast<size_t>(num_cores), 0);
    int want = 1 + static_cast<int>(
                       rng.NextBounded(std::min(free_total, 2 * topo.cores_per_socket)));
    const bool scatter = rng.NextBounded(2) == 0;
    const int per_step = 1 + static_cast<int>(rng.NextBounded(slots));
    int core = static_cast<int>(rng.NextBounded(num_cores));
    while (want > 0) {
      core = scatter ? static_cast<int>(rng.NextBounded(num_cores)) : (core + 1) % num_cores;
      const int take = std::min({free[core], per_step, want});
      per_core[core] = static_cast<uint8_t>(per_core[core] + take);
      free[core] -= take;
      free_total -= take;
      want -= take;
    }
    requests.push_back(CoScheduleRequest{&suite[rng.NextBounded(suite.size())],
                                         Placement(topo, std::move(per_core))});
  }
  return requests;
}

// The machine's threads per core, every job's.
std::vector<uint8_t> Occupancy(std::span<const CoScheduleRequest> requests) {
  std::vector<uint8_t> occupancy(requests.front().placement.PerCore().size(), 0);
  for (const CoScheduleRequest& request : requests) {
    for (size_t c = 0; c < occupancy.size(); ++c) {
      occupancy[c] = static_cast<uint8_t>(occupancy[c] + request.placement.PerCore()[c]);
    }
  }
  return occupancy;
}

// CapacityCeiling is admissible inside joint solves: a job's own loads never
// exceed the machine's, so at the machine's combined occupancy no job of a
// seeded joint schedule (2-7 suite jobs sharing SMT cores, on all four
// paper machines, at max_iterations 2, 3 and 1000) exceeds its ceiling by
// more than kCapacityCeilingSlack, converged or not. The rack's probes
// prune by it. Where every core a compute-bound job runs on is shared and
// no plane is over capacity, §5.1's burstiness floor is the binding term
// and a prediction meets it.
TEST(CoSchedule, JointSpeedupNeverExceedsItsCapacityCeiling) {
  int checked = 0;
  int non_converged = 0;
  int violations = 0;
  int shared_between_jobs = 0;  // cores holding threads of two jobs or more
  double worst_excess = -1.0;   // the largest speedup / ceiling - 1
  for (const char* type : {"x5-2", "x4-2", "x3-2", "x2-4"}) {
    const eval::Pipeline pipeline(type);
    const MachineTopology& topo = pipeline.machine().topology();
    std::vector<WorkloadDescription> suite;
    for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
      suite.push_back(pipeline.Profile(workload));
    }
    std::vector<CoSchedulePredictor> engines;
    for (const int max_iterations : {2, 3, 1000}) {
      PredictionOptions options;
      options.max_iterations = max_iterations;
      engines.emplace_back(pipeline.description(), options);
    }
    Rng rng(27);
    for (int schedule = 0; schedule < kJointSchedules; ++schedule) {
      const std::vector<CoScheduleRequest> requests = RandomSharedSchedule(rng, topo, suite);
      const std::vector<uint8_t> occupancy = Occupancy(requests);
      for (int c = 0; c < topo.NumCores(); ++c) {
        int owners = 0;
        for (const CoScheduleRequest& request : requests) {
          owners += request.placement.ThreadsOnCore(c) > 0 ? 1 : 0;
        }
        shared_between_jobs += owners > 1 ? 1 : 0;
      }
      for (const CoSchedulePredictor& engine : engines) {
        const CoSchedulePrediction joint = engine.Predict(requests);
        for (size_t j = 0; j < requests.size(); ++j) {
          const double speedup = joint.jobs[j].speedup;
          const double ceiling = engine.CapacityCeiling(*requests[j].workload,
                                                        requests[j].placement, occupancy);
          worst_excess = std::max(worst_excess, speedup / ceiling - 1.0);
          if (speedup > ceiling * (1.0 + kCapacityCeilingSlack) && ++violations <= 5) {
            ADD_FAILURE() << type << " schedule " << schedule
                          << " max_iterations=" << engine.options().max_iterations
                          << " job " << j << " ("
                          << workloads::EvaluationSuite()[requests[j].workload - suite.data()]
                                 .name
                          << " "
                          << requests[j].placement.ToString() << "): speedup " << speedup
                          << " above capacity ceiling " << ceiling;
          }
          non_converged += joint.jobs[j].converged ? 0 : 1;
          ++checked;
        }
      }
    }
  }
  EXPECT_EQ(violations, 0);
  EXPECT_GT(checked, 70000);
  EXPECT_GT(non_converged, 0);
  EXPECT_GT(shared_between_jobs, 0);
  RecordProperty("worst_relative_excess", StrFormat("%.3g", worst_excess));
  RecordProperty("checked", checked);
  RecordProperty("non_converged", non_converged);

  // PRH, one thread on each core of socket 0, shares every core with a
  // serial job: no plane is over capacity, so each of its threads slows by
  // exactly 1 + b * f_initial, and the floor makes the ceiling its speedup.
  const WorkloadDescription& prh = Desc("PRH");
  ASSERT_GT(prh.burstiness, 0.5);
  WorkloadDescription serial = Desc("EP");
  serial.parallel_fraction = 0.0;
  const MachineTopology& topo = X3().machine().topology();
  const int threads = topo.cores_per_socket;
  const std::vector<SocketLoad> loads{{threads, 0}, {0, 0}};
  const Placement socket0 = Placement::FromSocketLoads(topo, loads);
  const std::vector<CoScheduleRequest> requests{{&prh, socket0}, {&serial, socket0}};
  const CoSchedulePredictor engine(X3().description());
  const Prediction joint = engine.Predict(requests).jobs[0];
  const double ceiling = engine.CapacityCeiling(prh, socket0, Occupancy(requests));
  const double f_initial = engine.SpeedupCeiling(prh, threads) / threads;
  EXPECT_NEAR(ceiling, threads * f_initial / (1.0 + prh.burstiness * f_initial),
              1e-12 * ceiling);
  EXPECT_TRUE(joint.converged);
  EXPECT_NEAR(joint.speedup / ceiling, 1.0, 1e-9);
  // Alone on the same cores it shares none of them: no floor.
  EXPECT_NEAR(engine.CapacityCeiling(prh, socket0, socket0.PerCore()),
              threads * f_initial, 1e-12 * ceiling);
}

TEST(CoScheduleDeath, RejectsEmptyRequests) {
  const CoSchedulePredictor engine(X3().description());
  EXPECT_DEATH(engine.Predict({}), "PANDIA_CHECK");
}

}  // namespace
}  // namespace pandia
