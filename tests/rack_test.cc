// Tests for the rack-scale scheduler (§8 future-work extension).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "src/eval/pipeline.h"
#include "src/obs/metrics.h"
#include "src/rack/rack.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace rack {
namespace {

const eval::Pipeline& X3() {
  static const eval::Pipeline pipeline("x3-2");
  return pipeline;
}

const eval::Pipeline& X5() {
  static const eval::Pipeline pipeline("x5-2");
  return pipeline;
}

JobRequest MakeJob(const std::string& workload, int threads) {
  JobRequest job;
  job.name = workload;
  job.requested_threads = threads;
  job.descriptions.emplace("x3-2", X3().Profile(workloads::ByName(workload)));
  job.descriptions.emplace("x5-2", X5().Profile(workloads::ByName(workload)));
  return job;
}

std::vector<RackMachine> TwoNodeRack() {
  return {{"node0", X3().description()}, {"node1", X3().description()}};
}

// --- batch scheduling (Rack::Schedule) ---

TEST(RackScheduler, PlacesEveryJobWhileRoomRemains) {
  Rack rack(TwoNodeRack());
  const std::vector<JobRequest> jobs{MakeJob("CG", 8), MakeJob("EP", 8),
                                     MakeJob("MD", 8)};
  const std::vector<Assignment> assignments =
      rack.Schedule(jobs, Policy::kBestSpeedup);
  ASSERT_EQ(assignments.size(), 3u);
  for (const Assignment& assignment : assignments) {
    EXPECT_GE(assignment.machine_index, 0) << assignment.job;
    ASSERT_TRUE(assignment.placement.has_value());
    EXPECT_GE(assignment.placement->TotalThreads(), 1);
    EXPECT_LE(assignment.placement->TotalThreads(), 8);
    EXPECT_GT(assignment.predicted_speedup, 0.0);
  }
}

TEST(RackScheduler, NeverOverSubscribesAMachine) {
  Rack rack(TwoNodeRack());
  // Far more thread demand than the rack holds (2 x 32 hardware threads).
  std::vector<JobRequest> jobs;
  for (int i = 0; i < 6; ++i) {
    jobs.push_back(MakeJob("EP", 16));
  }
  const std::vector<Assignment> assignments =
      rack.Schedule(jobs, Policy::kFirstFit);
  std::vector<std::vector<int>> used(2);
  for (auto& u : used) {
    u.assign(static_cast<size_t>(X3().machine().topology().NumCores()), 0);
  }
  for (const Assignment& assignment : assignments) {
    if (assignment.machine_index < 0) {
      continue;
    }
    for (int c = 0; c < X3().machine().topology().NumCores(); ++c) {
      used[assignment.machine_index][c] += assignment.placement->ThreadsOnCore(c);
      EXPECT_LE(used[assignment.machine_index][c], 2);
    }
  }
}

TEST(RackScheduler, FirstFitFillsNodeZeroFirst) {
  Rack rack(TwoNodeRack());
  const std::vector<JobRequest> jobs{MakeJob("EP", 4)};
  const std::vector<Assignment> assignments =
      rack.Schedule(jobs, Policy::kFirstFit);
  EXPECT_EQ(assignments[0].machine_index, 0);
}

TEST(RackScheduler, BestSpeedupAvoidsTheBusyMachine) {
  Rack rack(TwoNodeRack());
  // Saturate node0 with a bandwidth hog, then place another one.
  const std::vector<JobRequest> first{MakeJob("Swim", 16)};
  rack.Schedule(first, Policy::kFirstFit);
  const std::vector<JobRequest> second{MakeJob("Swim", 16)};
  const std::vector<Assignment> assignments =
      rack.Schedule(second, Policy::kBestSpeedup);
  EXPECT_EQ(assignments[0].machine_index, 1);
}

TEST(RackScheduler, HeterogeneousRackPrefersTheBiggerMachine) {
  std::vector<RackMachine> machines{{"small", X3().description()},
                                    {"big", X5().description()}};
  Rack rack(std::move(machines));
  const std::vector<JobRequest> jobs{MakeJob("MD", 36)};
  const std::vector<Assignment> assignments =
      rack.Schedule(jobs, Policy::kBestSpeedup);
  // MD scales: 36 threads on the Haswell beat 32 on the Sandy Bridge.
  EXPECT_EQ(assignments[0].machine_index, 1);
  EXPECT_EQ(assignments[0].placement->TotalThreads(), 36);
}

TEST(RackScheduler, SkipsMachinesWithoutADescription) {
  std::vector<RackMachine> machines{{"small", X3().description()},
                                    {"big", X5().description()}};
  Rack rack(std::move(machines));
  JobRequest job;
  job.name = "CG-x5-only";
  job.requested_threads = 8;
  job.descriptions.emplace("x5-2", X5().Profile(workloads::ByName("CG")));
  const std::vector<Assignment> assignments =
      rack.Schedule(std::vector<JobRequest>{job}, Policy::kFirstFit);
  EXPECT_EQ(assignments[0].machine_index, 1);
}

TEST(RackScheduler, ReportsUnplaceableJobs) {
  std::vector<RackMachine> machines{{"node0", X3().description()}};
  Rack rack(std::move(machines));
  std::vector<JobRequest> jobs{MakeJob("EP", 32), MakeJob("EP", 32),
                               MakeJob("EP", 4)};
  const std::vector<Assignment> assignments =
      rack.Schedule(jobs, Policy::kFirstFit);
  EXPECT_GE(assignments[0].machine_index, 0);
  EXPECT_EQ(assignments[1].machine_index, -1);  // machine already full
  EXPECT_EQ(assignments[2].machine_index, -1);
}

TEST(RackScheduler, LeastInterferenceBeatsFirstFitOnAggregateSpeedup) {
  // Two bandwidth hogs and two compute jobs on two nodes: interference-
  // aware assignment pairs a hog with a compute job instead of stacking
  // the hogs.
  const std::vector<JobRequest> jobs{MakeJob("Swim", 8), MakeJob("Bwaves", 8),
                                     MakeJob("EP", 8), MakeJob("MD", 8)};
  auto aggregate = [&](Policy policy) {
    Rack rack(TwoNodeRack());
    double total = 0.0;
    for (const Assignment& assignment : rack.Schedule(jobs, policy)) {
      total += assignment.predicted_speedup;
    }
    return total;
  };
  EXPECT_GE(aggregate(Policy::kLeastInterference),
            aggregate(Policy::kFirstFit) * 0.99);
}

// --- Rack online mutations (the placement service's state machine) ---

TEST(Rack, AdmitDepartReadmitSequence) {
  Rack rack(TwoNodeRack());
  const StatusOr<Assignment> first = rack.Admit(MakeJob("EP", 8), Policy::kFirstFit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->machine_index, 0);
  EXPECT_TRUE(rack.Has("EP"));
  EXPECT_EQ(rack.JobCount(), 1);

  const StatusOr<Assignment> duplicate =
      rack.Admit(MakeJob("EP", 4), Policy::kFirstFit);
  EXPECT_EQ(duplicate.status().code(), StatusCode::kFailedPrecondition);

  const StatusOr<int> departed = rack.Depart("EP");
  ASSERT_TRUE(departed.ok());
  EXPECT_EQ(*departed, 0);
  EXPECT_FALSE(rack.Has("EP"));
  EXPECT_EQ(rack.JobCount(), 0);
  EXPECT_EQ(rack.Depart("EP").status().code(), StatusCode::kNotFound);

  // Re-admission of the freed name lands exactly where the first one did.
  const StatusOr<Assignment> second =
      rack.Admit(MakeJob("EP", 8), Policy::kFirstFit);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->machine_index, first->machine_index);
  ASSERT_TRUE(second->placement.has_value());
  EXPECT_TRUE(*second->placement == *first->placement);
}

TEST(Rack, RejectsJobWithNoDescriptionForAnyMachineType) {
  Rack rack(TwoNodeRack());  // both machines are x3-2
  JobRequest job;
  job.name = "x5-only";
  job.requested_threads = 4;
  job.descriptions.emplace("x5-2", X5().Profile(workloads::ByName("CG")));
  const StatusOr<Assignment> refused = rack.Admit(job, Policy::kFirstFit);
  EXPECT_EQ(refused.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(rack.JobCount(), 0);
}

TEST(Rack, RejectsAdmissionWhenRackHasZeroFreeThreads) {
  std::vector<RackMachine> machines{{"node0", X3().description()}};
  Rack rack(std::move(machines));
  const MachineTopology& topo = X3().machine().topology();
  // Fill every hardware thread with one recorded admission.
  const std::vector<SocketLoad> full_loads(
      static_cast<size_t>(topo.num_sockets), SocketLoad{0, topo.cores_per_socket});
  const Placement full = Placement::FromSocketLoads(topo, full_loads);
  ASSERT_EQ(full.TotalThreads(), topo.NumHwThreads());
  const JobRequest filler = MakeJob("EP", full.TotalThreads());
  ASSERT_TRUE(rack.AdmitAt("filler", 0, filler.descriptions.at("x3-2"), full).ok());
  EXPECT_EQ(rack.FreeThreadCount(0), 0);

  const StatusOr<Assignment> refused =
      rack.Admit(MakeJob("MD", 1), Policy::kBestSpeedup);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(rack.JobCount(), 1);  // the filler is untouched
}

TEST(Rack, MoveRelocatesAcrossMachinesLikeDepartAndReadmit) {
  Rack rack(TwoNodeRack());
  ASSERT_TRUE(rack.Admit(MakeJob("EP", 4), Policy::kFirstFit).ok());
  // Four threads on the empty machine 1.
  const std::vector<SocketLoad> loads{{4, 0}, {0, 0}};
  const Placement placement =
      Placement::FromSocketLoads(X3().machine().topology(), loads);
  ASSERT_TRUE(rack.Move("EP", 1, placement).ok());
  const StatusOr<int> where = rack.MachineOf("EP");
  ASSERT_TRUE(where.ok());
  EXPECT_EQ(*where, 1);
  EXPECT_TRUE(rack.JobsOn(0).empty());
  ASSERT_EQ(rack.JobsOn(1).size(), 1u);
  EXPECT_TRUE(rack.JobsOn(1)[0].placement == placement);
}

TEST(Rack, TelemetryTracksAdmitSeqMovesAndCoEvents) {
  Rack rack(TwoNodeRack());
  ASSERT_TRUE(rack.Admit(MakeJob("EP", 4), Policy::kFirstFit).ok());
  {
    const Rack::TelemetrySnapshot snapshot = rack.Telemetry();
    EXPECT_EQ(snapshot.mutation_seq, 1u);
    ASSERT_EQ(snapshot.jobs.size(), 1u);
    const Rack::JobTelemetry& job = snapshot.jobs[0];
    EXPECT_EQ(job.name, "EP");
    EXPECT_EQ(job.machine_index, 0);
    EXPECT_EQ(job.threads, 4);
    EXPECT_EQ(job.admit_seq, 1u);
    EXPECT_EQ(job.moves, 0);
    EXPECT_EQ(job.co_events, 0u);
    EXPECT_GT(job.speedup_at_admit, 0.0);
    EXPECT_NEAR(job.slowdown_at_admit, 1.0 / job.speedup_at_admit, 1e-9);
    EXPECT_GT(job.current_speedup, 0.0);
  }

  // A second admission on the same machine is one co-event for EP.
  ASSERT_TRUE(rack.Admit(MakeJob("MD", 4), Policy::kFirstFit).ok());
  {
    const Rack::TelemetrySnapshot snapshot = rack.Telemetry();
    EXPECT_EQ(snapshot.mutation_seq, 2u);
    ASSERT_EQ(snapshot.jobs.size(), 2u);
    for (const Rack::JobTelemetry& job : snapshot.jobs) {
      EXPECT_EQ(job.co_events, job.name == "EP" ? 1u : 0u) << job.name;
    }
  }

  // Moving MD to the empty machine 1 churns machine 0 again and
  // re-baselines MD there.
  const std::vector<SocketLoad> loads{{4, 0}, {0, 0}};
  ASSERT_TRUE(
      rack.Move("MD", 1, Placement::FromSocketLoads(X3().machine().topology(), loads))
          .ok());
  const Rack::TelemetrySnapshot snapshot = rack.Telemetry();
  EXPECT_EQ(snapshot.mutation_seq, 3u);
  for (const Rack::JobTelemetry& job : snapshot.jobs) {
    if (job.name == "MD") {
      EXPECT_EQ(job.machine_index, 1);
      EXPECT_EQ(job.moves, 1);
      EXPECT_EQ(job.co_events, 0u);  // re-baselined at the move
      EXPECT_EQ(job.admit_seq, 2u);  // admit_seq is the admission, not the move
    } else {
      EXPECT_EQ(job.moves, 0);
      EXPECT_EQ(job.co_events, 2u);  // MD's admission and its departure-by-move
    }
  }
}

TEST(Rack, TelemetryAdmitPredictionIsReplayStable) {
  // AdmitAt (journal replay) must reconstruct the same speedup-at-admit the
  // policy scored during the original Admit, so telemetry survives restarts.
  Rack original(TwoNodeRack());
  const JobRequest job = MakeJob("EP", 4);
  const StatusOr<Assignment> admitted = original.Admit(job, Policy::kBestSpeedup);
  ASSERT_TRUE(admitted.ok());
  ASSERT_TRUE(admitted->placement.has_value());

  Rack replayed(TwoNodeRack());
  ASSERT_TRUE(replayed
                  .AdmitAt("EP", admitted->machine_index,
                           job.descriptions.at("x3-2"), *admitted->placement)
                  .ok());
  const Rack::TelemetrySnapshot before = original.Telemetry();
  const Rack::TelemetrySnapshot after = replayed.Telemetry();
  ASSERT_EQ(before.jobs.size(), 1u);
  ASSERT_EQ(after.jobs.size(), 1u);
  EXPECT_DOUBLE_EQ(after.jobs[0].speedup_at_admit,
                   before.jobs[0].speedup_at_admit);
  EXPECT_GT(after.jobs[0].speedup_at_admit, 0.0);
}

TEST(Rack, ResetClearsTelemetry) {
  Rack rack(TwoNodeRack());
  ASSERT_TRUE(rack.Admit(MakeJob("EP", 4), Policy::kFirstFit).ok());
  rack.Reset();
  const Rack::TelemetrySnapshot snapshot = rack.Telemetry();
  EXPECT_EQ(snapshot.mutation_seq, 0u);
  EXPECT_TRUE(snapshot.jobs.empty());
  // Post-reset admissions restart the sequence from 1.
  ASSERT_TRUE(rack.Admit(MakeJob("MD", 2), Policy::kFirstFit).ok());
  EXPECT_EQ(rack.Telemetry().mutation_seq, 1u);
  ASSERT_EQ(rack.Telemetry().jobs.size(), 1u);
  EXPECT_EQ(rack.Telemetry().jobs[0].admit_seq, 1u);
}

TEST(Rack, PredictMachineMatchesResidentOrder) {
  Rack rack(TwoNodeRack());
  ASSERT_TRUE(rack.Admit(MakeJob("EP", 4), Policy::kFirstFit).ok());
  ASSERT_TRUE(rack.Admit(MakeJob("MD", 4), Policy::kFirstFit).ok());
  ASSERT_EQ(rack.JobsOn(0).size(), 2u);
  const std::vector<Prediction> predictions = rack.PredictMachine(0);
  ASSERT_EQ(predictions.size(), 2u);
  for (const Prediction& prediction : predictions) {
    EXPECT_GT(prediction.speedup, 0.0);
  }
  EXPECT_TRUE(rack.PredictMachine(1).empty());
}

TEST(RackScheduler, ResetClearsResidents) {
  Rack rack(TwoNodeRack());
  rack.Schedule(std::vector<JobRequest>{MakeJob("EP", 8)}, Policy::kFirstFit);
  EXPECT_FALSE(rack.JobsOn(0).empty());
  rack.Reset();
  EXPECT_TRUE(rack.JobsOn(0).empty());
}

// --- bound-and-prune search exactness ---

const eval::Pipeline& PipelineFor(const std::string& type) {
  static std::map<std::string, const eval::Pipeline*>* pipelines =
      new std::map<std::string, const eval::Pipeline*>();
  auto it = pipelines->find(type);
  if (it == pipelines->end()) {
    it = pipelines->emplace(type, new eval::Pipeline(type)).first;
  }
  return *it->second;
}

const WorkloadDescription& Profiled(const std::string& type,
                                    const std::string& workload) {
  static std::map<std::string, WorkloadDescription>* descriptions =
      new std::map<std::string, WorkloadDescription>();
  const std::string key = type + "/" + workload;
  auto it = descriptions->find(key);
  if (it == descriptions->end()) {
    it = descriptions
             ->emplace(key, PipelineFor(type).Profile(workloads::ByName(workload)))
             .first;
  }
  return it->second;
}

// The exhaustive scan the pruned search replaced, kept as its oracle: every
// enumerated candidate solved in enumeration order against the residents,
// the first strictly greater objective winning.
std::optional<Rack::Candidate> ExhaustiveBestCandidateOn(const Rack& rack,
                                                         int machine_index,
                                                         const JobRequest& job,
                                                         Policy policy,
                                                         const std::string* exclude_job) {
  const MachineDescription& machine = rack.machines()[machine_index].description;
  const auto desc = job.descriptions.find(machine.topo.name);
  if (desc == job.descriptions.end()) {
    return std::nullopt;
  }
  const CoSchedulePredictor engine(machine, rack.options());
  std::vector<CoScheduleRequest> requests;
  for (const RackJob& resident : rack.JobsOn(machine_index)) {
    if (exclude_job == nullptr || resident.name != *exclude_job) {
      requests.push_back(CoScheduleRequest{&resident.description, resident.placement});
    }
  }
  double before_total = 0.0;
  if (!requests.empty()) {
    for (const Prediction& prediction : engine.Predict(requests).jobs) {
      before_total += prediction.speedup;
    }
  }
  requests.push_back(CoScheduleRequest{
      &desc->second,
      Placement(machine.topo,
                std::vector<uint8_t>(static_cast<size_t>(machine.topo.NumCores()), 0))});
  std::optional<Rack::Candidate> best;
  for (const Placement& placement :
       rack.CandidatePlacements(machine_index, job.requested_threads, exclude_job)) {
    requests.back().placement = placement;
    const CoSchedulePrediction joint = engine.Predict(requests);
    Rack::Candidate candidate{placement, joint.jobs.back().speedup, 0.0};
    for (const Prediction& prediction : joint.jobs) {
      candidate.total_speedup += prediction.speedup;
    }
    candidate.total_speedup -= before_total;
    const bool better =
        !best.has_value() ||
        (policy == Policy::kLeastInterference
             ? candidate.total_speedup > best->total_speedup
             : candidate.job_speedup > best->job_speedup);
    if (better) {
      best = std::move(candidate);
    }
  }
  return best;
}

// Up to `threads` threads on random free hardware threads, either within
// one random socket or anywhere on the machine.
Placement RandomFeasiblePlacement(const MachineTopology& topo,
                                  const std::vector<uint8_t>& free, int threads,
                                  Rng& rng) {
  std::vector<uint8_t> per_core(static_cast<size_t>(topo.NumCores()), 0);
  const bool one_socket = rng.NextBounded(2) == 0;
  const int first = one_socket ? topo.FirstCoreOfSocket(static_cast<int>(
                                     rng.NextBounded(topo.num_sockets)))
                               : 0;
  const int span = one_socket ? topo.cores_per_socket : topo.NumCores();
  for (int attempt = 0; attempt < 8 * span && threads > 0; ++attempt) {
    const int core = first + static_cast<int>(rng.NextBounded(span));
    if (per_core[core] < free[core]) {
      ++per_core[core];
      --threads;
    }
  }
  return Placement(topo, std::move(per_core));
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

// The pruned search is the exhaustive scan, byte for byte: on random racks
// of mixed machine types with 0-10 residents at random feasible placements,
// for 1-16-thread requests under every policy, with and without a resident
// excluded and a must_beat threshold, it picks the same placement with the
// same speedup bits — or, when the scan's best does not beat must_beat, at
// most something the caller rejects too.
TEST(RackSearch, PrunedSearchMatchesTheExhaustiveScanOnRandomRacks) {
  const std::vector<std::string> types = {"x5-2", "x4-2", "x3-2", "x2-4"};
  const std::vector<std::string> suite = {"EP", "CG",     "MD",    "Swim",
                                          "BT", "Bwaves", "NPO-1T"};
  const std::vector<Policy> policies = {Policy::kBestSpeedup,
                                        Policy::kLeastInterference,
                                        Policy::kFirstFit};
  const obs::Counter& candidates =
      obs::MetricsRegistry::Global().counter("rack.probe.candidates");
  const obs::Counter& solves =
      obs::MetricsRegistry::Global().counter("rack.probe.solves");
  const uint64_t candidates_before = candidates.value();
  const uint64_t solves_before = solves.value();
  Rng rng(15);
  int exact = 0;
  int rejected = 0;
  int at_ceiling = 0;
  int excluded = 0;
  for (int trial = 0; trial < 240; ++trial) {
    PredictionOptions options;
    if (trial % 6 == 4) {
      options.max_iterations = 3;  // non-converged solves still clamp
    } else if (trial % 6 == 5) {
      options.iterate = false;  // no clamp: every ceiling is +infinity
    }
    const int machine_count = 1 + static_cast<int>(rng.NextBounded(3));
    std::vector<RackMachine> machines;
    for (int m = 0; m < machine_count; ++m) {
      machines.push_back({StrFormat("node%d", m),
                          PipelineFor(types[rng.NextBounded(types.size())]).description()});
    }
    Rack rack(std::move(machines), options);
    const int residents = static_cast<int>(rng.NextBounded(11));
    for (int r = 0; r < residents; ++r) {
      const int m = static_cast<int>(rng.NextBounded(machine_count));
      const MachineTopology& topo = rack.machines()[m].description.topo;
      const Placement placement = RandomFeasiblePlacement(
          topo, rack.FreeThreads(m), 1 + static_cast<int>(rng.NextBounded(8)), rng);
      if (placement.TotalThreads() == 0) {
        continue;  // machine full
      }
      ASSERT_TRUE(rack.AdmitAt(StrFormat("r%d", r), m,
                               Profiled(topo.name, suite[rng.NextBounded(suite.size())]),
                               placement)
                      .ok());
    }

    for (int query = 0; query < 3; ++query) {
      const int m = static_cast<int>(rng.NextBounded(machine_count));
      const MachineDescription& machine = rack.machines()[m].description;
      JobRequest job;
      job.name = "probe";
      job.requested_threads = 1 + static_cast<int>(rng.NextBounded(16));
      const std::string& workload = suite[rng.NextBounded(suite.size())];
      for (const std::string& type : types) {
        job.descriptions.emplace(type, Profiled(type, workload));
      }
      const Policy policy = policies[(trial * 3 + query) % policies.size()];
      std::string exclude_name;
      const std::string* exclude = nullptr;
      const std::vector<RackJob>& on_machine = rack.JobsOn(m);
      if (!on_machine.empty() && rng.NextBounded(2) == 0) {
        exclude_name = on_machine[rng.NextBounded(on_machine.size())].name;
        exclude = &exclude_name;
        ++excluded;
      }
      const std::optional<Rack::Candidate> reference =
          ExhaustiveBestCandidateOn(rack, m, job, policy, exclude);

      // No threshold, the scan's own best (a tie the caller rejects), the
      // largest double below it, or a random bar around it.
      double must_beat = -std::numeric_limits<double>::infinity();
      if (reference.has_value()) {
        switch (rng.NextBounded(4)) {
          case 1:
            must_beat = reference->job_speedup;
            break;
          case 2:
            must_beat = std::nextafter(reference->job_speedup, 0.0);
            break;
          case 3:
            must_beat = 2.0 * rng.NextDouble() * reference->job_speedup;
            break;
          default:
            break;
        }
      }
      const std::optional<Rack::Candidate> pruned =
          rack.BestCandidateOn(m, job, policy, exclude, must_beat);
      SCOPED_TRACE(StrFormat("trial %d query %d: %s %s x%d, policy %s, must_beat %.17g",
                             trial, query, machine.topo.name.c_str(), workload.c_str(),
                             job.requested_threads, PolicyName(policy).c_str(),
                             must_beat));
      if (!reference.has_value()) {
        EXPECT_FALSE(pruned.has_value());
        continue;
      }
      if (!(reference->job_speedup > must_beat)) {
        ++rejected;
        if (pruned.has_value()) {
          EXPECT_LE(pruned->job_speedup, must_beat);
        }
        continue;
      }
      ASSERT_TRUE(pruned.has_value());
      EXPECT_EQ(pruned->placement.PerCore(), reference->placement.PerCore());
      EXPECT_EQ(Bits(pruned->job_speedup), Bits(reference->job_speedup));
      if (policy == Policy::kLeastInterference) {
        EXPECT_EQ(Bits(pruned->total_speedup), Bits(reference->total_speedup));
      }
      const double ceiling = CoSchedulePredictor(machine, options)
                                 .SpeedupCeiling(job.descriptions.at(machine.topo.name),
                                                 reference->placement.TotalThreads());
      at_ceiling += reference->job_speedup == ceiling ? 1 : 0;
      ++exact;
    }
  }
  // The sample reaches every branch: exact answers (some at their ceiling,
  // where the tie rule decides), rejected thresholds, excluded residents,
  // and candidates that were never solved.
  EXPECT_GE(exact, 300);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(at_ceiling, 0);
  EXPECT_GT(excluded, 0);
  EXPECT_LT(solves.value() - solves_before, candidates.value() - candidates_before);
}

// Choose is the exhaustive scan of every machine, folded: on random racks
// of 1-5 machines (all of one type or all empty often enough that machines
// tie) with 0-10 residents, for 1-16-thread requests that describe a random
// subset of the machine types, under every policy at 1, 2 and 4 workers,
// it picks the lowest-indexed machine with the strictly greatest exhaustive
// objective (under first fit the lowest-indexed machine where the job
// fits), with the same placement and speedup bits, or fails as the fold
// finds nothing. Serial first fit solves on the chosen machine only.
TEST(RackSearch, ChooseMatchesTheExhaustiveFoldAcrossMachines) {
  const std::vector<std::string> types = {"x5-2", "x4-2", "x3-2", "x2-4"};
  const std::vector<std::string> suite = {"EP", "CG",     "MD",    "Swim",
                                          "BT", "Bwaves", "NPO-1T"};
  const std::vector<Policy> policies = {Policy::kBestSpeedup,
                                        Policy::kLeastInterference,
                                        Policy::kFirstFit};
  const obs::Counter& solves =
      obs::MetricsRegistry::Global().counter("rack.probe.solves");
  Rng rng(18);
  int chosen_later = 0;  // answers on a machine other than the first
  int tied = 0;          // folds where a later machine tied the answer
  int unplaced = 0;
  for (int trial = 0; trial < 90; ++trial) {
    const int machine_count = 1 + static_cast<int>(rng.NextBounded(5));
    const bool one_type = rng.NextBounded(3) == 0;
    const std::string& only = types[rng.NextBounded(types.size())];
    std::vector<RackMachine> machines;
    for (int m = 0; m < machine_count; ++m) {
      machines.push_back(
          {StrFormat("node%d", m),
           PipelineFor(one_type ? only : types[rng.NextBounded(types.size())])
               .description()});
    }
    Rack rack(machines);
    const int residents = rng.NextBounded(3) == 0 ? 0 : static_cast<int>(rng.NextBounded(11));
    for (int r = 0; r < residents; ++r) {
      const int m = static_cast<int>(rng.NextBounded(machine_count));
      const MachineTopology& topo = rack.machines()[m].description.topo;
      // Now and then a resident takes every free thread, so jobs stop fitting.
      const Placement placement =
          rng.NextBounded(6) == 0
              ? Placement(topo, rack.FreeThreads(m))
              : RandomFeasiblePlacement(topo, rack.FreeThreads(m),
                                        1 + static_cast<int>(rng.NextBounded(8)), rng);
      if (placement.TotalThreads() == 0) {
        continue;  // machine full
      }
      ASSERT_TRUE(rack.AdmitAt(StrFormat("r%d", r), m,
                               Profiled(topo.name, suite[rng.NextBounded(suite.size())]),
                               placement)
                      .ok());
    }

    for (int query = 0; query < 2; ++query) {
      JobRequest job;
      job.name = "probe";
      job.requested_threads = 1 + static_cast<int>(rng.NextBounded(16));
      const std::string& workload = suite[rng.NextBounded(suite.size())];
      for (const std::string& type : types) {
        if (rng.NextBounded(4) != 0) {
          job.descriptions.emplace(type, Profiled(type, workload));
        }
      }
      const Policy policy = policies[(trial * 2 + query) % policies.size()];
      const auto objective = [&](const Rack::Candidate& candidate) {
        return policy == Policy::kLeastInterference ? candidate.total_speedup
                                                    : candidate.job_speedup;
      };
      bool described = false;
      std::optional<Rack::Candidate> expected;
      int expected_machine = -1;
      for (int m = 0; m < machine_count; ++m) {
        described = described ||
                    job.descriptions.contains(rack.machines()[m].description.topo.name);
        std::optional<Rack::Candidate> best =
            ExhaustiveBestCandidateOn(rack, m, job, policy, nullptr);
        if (!best.has_value() || (policy == Policy::kFirstFit && expected.has_value())) {
          continue;
        }
        if (expected.has_value() && objective(*best) == objective(*expected)) {
          ++tied;
        }
        if (!expected.has_value() || objective(*best) > objective(*expected)) {
          expected = std::move(best);
          expected_machine = m;
        }
      }

      for (const int jobs : {1, 2, 4}) {
        PredictionOptions options;
        options.common.jobs = jobs;
        Rack probed(machines, options);
        ASSERT_TRUE(probed.RestoreState(rack.SaveState()).ok());
        SCOPED_TRACE(StrFormat("trial %d query %d: %d machines, %s x%d, policy %s, jobs %d",
                               trial, query, machine_count, workload.c_str(),
                               job.requested_threads, PolicyName(policy).c_str(), jobs));
        const uint64_t solves_before = solves.value();
        const StatusOr<Assignment> chosen = probed.Choose(job, policy);
        const uint64_t choose_solves = solves.value() - solves_before;
        if (!expected.has_value()) {
          ASSERT_FALSE(chosen.ok());
          EXPECT_EQ(chosen.status().code(), described ? StatusCode::kFailedPrecondition
                                                      : StatusCode::kNotFound);
          unplaced += jobs == 1 ? 1 : 0;
          continue;
        }
        ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
        EXPECT_EQ(chosen->machine_index, expected_machine);
        ASSERT_TRUE(chosen->placement.has_value());
        EXPECT_EQ(chosen->placement->PerCore(), expected->placement.PerCore());
        EXPECT_EQ(Bits(chosen->predicted_speedup), Bits(expected->job_speedup));
        chosen_later += jobs == 1 && expected_machine > 0 ? 1 : 0;
        if (jobs == 1 && policy == Policy::kFirstFit) {
          const uint64_t before = solves.value();
          (void)probed.BestCandidateOn(expected_machine, job, policy);
          EXPECT_EQ(choose_solves, solves.value() - before);
        }
      }
    }
  }
  EXPECT_GT(chosen_later, 0);
  EXPECT_GT(tied, 0);
  EXPECT_GT(unplaced, 0);
}

// A re-placement decision is the exhaustive scan of every machine in its
// scope, folded: on random racks of 1-5 machines (all of one type often
// enough that machines tie) with 1-10 residents, for a random resident, at
// margins -0.5, 0, 0.02 and 10, within the resident's own machine and
// across every machine of its type, ChooseMove picks the lowest-indexed
// machine whose exhaustive best, the resident excluded from its own
// machine, strictly exceeds both the resident's current joint speedup x (1
// + margin) and every earlier machine's best, with the same placement and
// speedup bits, at 1, 2 and 4 workers. At 1 worker it solves exactly what
// a serial machine-by-machine search that carries the incumbent solves.
// A re-placement that only ties the current speedup is never taken.
TEST(RackSearch, MoveMatchesTheExhaustiveFold) {
  const std::vector<std::string> types = {"x5-2", "x4-2", "x3-2", "x2-4"};
  const std::vector<std::string> suite = {"EP", "CG",     "MD",    "Swim",
                                          "BT", "Bwaves", "NPO-1T"};
  const obs::Counter& solves =
      obs::MetricsRegistry::Global().counter("rack.probe.solves");
  Rng rng(26);
  int stayed = 0;       // moves within the resident's own machine
  int elsewhere = 0;    // moves to another machine
  int tied = 0;         // folds where a later machine tied the incumbent
  int unmoved = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int machine_count = 1 + static_cast<int>(rng.NextBounded(5));
    const bool one_type = rng.NextBounded(2) == 0;
    const std::string& only = types[rng.NextBounded(types.size())];
    std::vector<RackMachine> machines;
    for (int m = 0; m < machine_count; ++m) {
      machines.push_back(
          {StrFormat("node%d", m),
           PipelineFor(one_type ? only : types[rng.NextBounded(types.size())])
               .description()});
    }
    Rack rack(machines);
    const int residents = 1 + static_cast<int>(rng.NextBounded(10));
    for (int r = 0; r < residents; ++r) {
      const int m = static_cast<int>(rng.NextBounded(machine_count));
      const MachineTopology& topo = rack.machines()[m].description.topo;
      const Placement placement = RandomFeasiblePlacement(
          topo, rack.FreeThreads(m), 1 + static_cast<int>(rng.NextBounded(8)), rng);
      if (placement.TotalThreads() == 0) {
        continue;  // machine full
      }
      ASSERT_TRUE(rack.AdmitAt(StrFormat("r%d", r), m,
                               Profiled(topo.name, suite[rng.NextBounded(suite.size())]),
                               placement)
                      .ok());
    }
    if (rack.JobCount() == 0) {
      continue;
    }
    // A random resident, its current joint speedup, and the exhaustive best
    // of every machine it may move to.
    int home = -1;
    size_t index = 0;
    do {
      home = static_cast<int>(rng.NextBounded(machine_count));
    } while (rack.JobsOn(home).empty());
    index = rng.NextBounded(rack.JobsOn(home).size());
    const RackJob& resident = rack.JobsOn(home)[index];
    const std::string name = resident.name;
    const std::string& type = rack.machines()[home].description.topo.name;
    const double current = rack.PredictMachine(home)[index].speedup;
    JobRequest job;
    job.name = name;
    job.descriptions.emplace(type, resident.description);
    job.requested_threads = resident.placement.TotalThreads();
    std::vector<std::optional<Rack::Candidate>> exhaustive(machine_count);
    for (int m = 0; m < machine_count; ++m) {
      exhaustive[m] = ExhaustiveBestCandidateOn(rack, m, job, Policy::kBestSpeedup,
                                                m == home ? &name : nullptr);
    }

    for (const Rack::MoveScope scope :
         {Rack::MoveScope::kOwnMachine, Rack::MoveScope::kAnyMachine}) {
      const bool anywhere = scope == Rack::MoveScope::kAnyMachine;
      for (const double margin : {-0.5, 0.0, 0.02, 10.0}) {
        const double threshold = current * (1.0 + margin);
        std::optional<Rack::Candidate> expected;
        int expected_machine = -1;
        for (int m = 0; m < machine_count; ++m) {
          if ((!anywhere && m != home) || !exhaustive[m].has_value()) {
            continue;
          }
          const double bar = expected.has_value() ? expected->job_speedup : threshold;
          tied += expected.has_value() && exhaustive[m]->job_speedup == bar ? 1 : 0;
          if (exhaustive[m]->job_speedup > bar) {
            expected = exhaustive[m];
            expected_machine = m;
          }
        }

        // The serial search the decision replaced: each machine in index
        // order, carrying the best so far as its threshold.
        uint64_t serial_solves = solves.value();
        double must_beat = threshold;
        for (int m = 0; m < machine_count; ++m) {
          if ((anywhere || m == home) &&
              rack.machines()[m].description.topo.name == type) {
            const std::optional<Rack::Candidate> best = rack.BestCandidateOn(
                m, job, Policy::kBestSpeedup, m == home ? &name : nullptr, must_beat);
            if (best.has_value() && best->job_speedup > must_beat) {
              must_beat = best->job_speedup;
            }
          }
        }
        serial_solves = solves.value() - serial_solves;

        for (const int jobs : {1, 2, 4}) {
          PredictionOptions options;
          options.common.jobs = jobs;
          Rack probed(machines, options);
          ASSERT_TRUE(probed.RestoreState(rack.SaveState()).ok());
          SCOPED_TRACE(StrFormat("trial %d: %d machines, %s on node%d, %s, margin %g, "
                                 "jobs %d",
                                 trial, machine_count, name.c_str(), home,
                                 anywhere ? "any machine" : "own machine", margin, jobs));
          const uint64_t solves_before = solves.value();
          const std::optional<Assignment> move = probed.ChooseMove(name, scope, margin);
          const uint64_t move_solves = solves.value() - solves_before;
          if (jobs == 1) {
            EXPECT_EQ(move_solves, serial_solves);
          }
          if (!expected.has_value()) {
            EXPECT_FALSE(move.has_value());
            unmoved += jobs == 1 ? 1 : 0;
            continue;
          }
          ASSERT_TRUE(move.has_value());
          EXPECT_EQ(move->job, name);
          EXPECT_EQ(move->machine_index, expected_machine);
          ASSERT_TRUE(move->placement.has_value());
          EXPECT_EQ(move->placement->PerCore(), expected->placement.PerCore());
          EXPECT_EQ(Bits(move->predicted_speedup), Bits(expected->job_speedup));
          if (jobs == 1) {
            (expected_machine == home ? stayed : elsewhere) += 1;
          }
        }
      }
    }
  }
  EXPECT_GT(stayed, 0);
  EXPECT_GT(elsewhere, 0);
  EXPECT_GT(tied, 0);
  EXPECT_GT(unmoved, 0);

  // A job alone at its best placement only ties itself at margin 0, on its
  // own machine and on an equal empty one, so it is not moved: a tie never
  // turns into a MOVED record.
  Rack rack({{"node0", PipelineFor("x3-2").description()},
             {"node1", PipelineFor("x3-2").description()}});
  JobRequest solo;
  solo.name = "solo";
  solo.descriptions.emplace("x3-2", Profiled("x3-2", "CG"));
  solo.requested_threads = 8;
  const StatusOr<Assignment> admitted = rack.Admit(solo, Policy::kBestSpeedup);
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  ASSERT_EQ(admitted->machine_index, 0);
  ASSERT_EQ(Bits(rack.PredictMachine(0)[0].speedup), Bits(admitted->predicted_speedup));
  for (const Rack::MoveScope scope :
       {Rack::MoveScope::kOwnMachine, Rack::MoveScope::kAnyMachine}) {
    EXPECT_FALSE(rack.ChooseMove("solo", scope, 0.0).has_value());
    EXPECT_TRUE(rack.ChooseMove("solo", scope, -1e-9).has_value());
  }
}

}  // namespace
}  // namespace rack
}  // namespace pandia
