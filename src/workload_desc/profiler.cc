#include "src/workload_desc/profiler.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/counters/counters.h"
#include "src/predictor/predictor.h"
#include "src/stress/stress.h"
#include "src/topology/resource_index.h"
#include "src/util/check.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace pandia {
namespace {

// Salt for the deterministic fault nonces of profiling runs, so profiling
// draws a different fault stream than any other caller of sim::Machine::Run.
constexpr uint64_t kProfileFaultSalt = 0x70726f66696c65ULL;  // "profile"

// Derived parameters further than this outside their model range are
// recorded as diagnostics; smaller excursions are ordinary measurement
// noise and clamp silently (matching the historical profiler).
constexpr double kClampTol = 1e-3;

// Exact for a single sample (no arithmetic), so the one-trial path stays
// byte-identical to the historical single-observation profiler.
double Median(std::vector<double> values) {
  PANDIA_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) {
    return values[mid];
  }
  return 0.5 * (values[mid - 1] + values[mid]);
}

// The six demand-vector rates, named for quality diagnostics.
struct DemandField {
  const char* name;
  double ResourceDemandVector::* field;
};
constexpr DemandField kDemandFields[] = {
    {"instr_rate", &ResourceDemandVector::instr_rate},
    {"l1_bw", &ResourceDemandVector::l1_bw},
    {"l2_bw", &ResourceDemandVector::l2_bw},
    {"l3_bw", &ResourceDemandVector::l3_bw},
    {"dram_local_bw", &ResourceDemandVector::dram_local_bw},
    {"dram_remote_bw", &ResourceDemandVector::dram_remote_bw},
};

}  // namespace

struct WorkloadProfiler::TimedSample {
  double time = 0.0;
  ResourceDemandVector demands;  // populated only when counters were requested
};

WorkloadProfiler::WorkloadProfiler(const sim::Machine& machine,
                                   MachineDescription description)
    : machine_(&machine), description_(std::move(description)) {}

StatusOr<WorkloadProfiler::TimedSample> WorkloadProfiler::RobustTimedRun(
    int run_index, const sim::WorkloadSpec& workload, const Placement& placement,
    const sim::WorkloadSpec* corunner, const Placement* corunner_placement,
    bool want_counters, const ProfileOptions& options,
    ProfileQuality& quality) const {
  PANDIA_CHECK(run_index >= 1 && run_index <= 6);
  std::vector<sim::JobRequest> jobs;
  jobs.push_back(sim::JobRequest{&workload, placement, /*background=*/false});
  if (corunner != nullptr) {
    PANDIA_CHECK(corunner_placement != nullptr);
    jobs.push_back(sim::JobRequest{corunner, *corunner_placement, /*background=*/true});
  }

  ProfileRunQuality& run_quality = quality.runs[static_cast<size_t>(run_index - 1)];
  std::vector<TimedSample> trials;
  trials.reserve(static_cast<size_t>(options.trials));
  for (int trial = 0; trial < options.trials; ++trial) {
    for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
      // Deterministic reseeding as backoff: each retry draws a fresh fault
      // stream, so a failure-prone configuration is not retried into the
      // same injected failure.
      const uint64_t nonce =
          HashCombine(kProfileFaultSalt, static_cast<uint64_t>(run_index),
                      static_cast<uint64_t>(trial), static_cast<uint64_t>(attempt));
      const sim::RunResult result = stress::RunFilled(*machine_, jobs, nonce);
      const double time = result.jobs.front().completion_time;
      if (result.failed || !std::isfinite(time) || time <= 0.0) {
        ++run_quality.retries;
        continue;
      }
      TimedSample sample;
      sample.time = time;
      if (want_counters) {
        sample.demands = MeasuredDemands(*machine_, result, placement);
      }
      trials.push_back(sample);
      break;
    }
  }
  if (trials.empty()) {
    return Status::Unavailable(
        StrFormat("profiling run %d of '%s': all %d trials failed within %d "
                  "attempts each",
                  run_index, workload.name.c_str(), options.trials,
                  options.max_attempts));
  }

  // MAD outlier filter on the trial times (needs at least 3 samples to have
  // a meaningful notion of "the rest agree").
  std::vector<double> times;
  times.reserve(trials.size());
  for (const TimedSample& t : trials) {
    times.push_back(t.time);
  }
  const double center = Median(times);
  std::vector<TimedSample> kept;
  if (trials.size() >= 3) {
    std::vector<double> deviations;
    deviations.reserve(times.size());
    for (double t : times) {
      deviations.push_back(std::abs(t - center));
    }
    const double sigma = 1.4826 * Median(deviations);  // MAD -> normal sigma
    run_quality.rel_spread = center > 0.0 ? sigma / center : 0.0;
    if (sigma > 1e-12 * center) {
      for (const TimedSample& t : trials) {
        if (std::abs(t.time - center) <= 3.0 * sigma) {
          kept.push_back(t);
        } else {
          ++run_quality.outliers_rejected;
        }
      }
    }
  }
  if (kept.empty()) {
    kept = trials;
    run_quality.outliers_rejected = 0;
  }
  run_quality.trials = static_cast<int>(kept.size());

  TimedSample aggregate;
  {
    std::vector<double> kept_times;
    kept_times.reserve(kept.size());
    for (const TimedSample& t : kept) {
      kept_times.push_back(t.time);
    }
    aggregate.time = Median(kept_times);
  }
  if (want_counters) {
    for (const DemandField& field : kDemandFields) {
      std::vector<double> values;
      values.reserve(kept.size());
      int zeros = 0;
      for (const TimedSample& t : kept) {
        const double v = t.demands.*(field.field);
        if (v == 0.0) {
          ++zeros;
        }
        values.push_back(v);
      }
      // A dropped counter reads exactly zero; a genuinely idle counter reads
      // zero in every trial. When both zero and non-zero readings coexist,
      // impute the zeros from the surviving trials.
      if (zeros > 0 && zeros < static_cast<int>(values.size())) {
        values.erase(std::remove(values.begin(), values.end(), 0.0), values.end());
        quality.counters_imputed += zeros;
        quality.diagnostics.push_back(
            StrFormat("run %d: counter '%s' read zero in %d of %d trials; "
                      "imputed from the remaining trials",
                      run_index, field.name, zeros, run_quality.trials));
      }
      aggregate.demands.*(field.field) = Median(std::move(values));
    }
  }
  return aggregate;
}

Predictor ContentionProbe(const MachineDescription& machine,
                          WorkloadDescription partial) {
  partial.parallel_fraction = 1.0;
  partial.inter_socket_overhead = 0.0;
  partial.load_balance = 1.0;
  partial.burstiness = 0.0;
  return Predictor(machine, std::move(partial));
}

bool ContentionFree(const Predictor& probe, const Placement& placement) {
  const Prediction prediction = probe.Predict(placement);
  const std::vector<double> caps = probe.machine().Capacities(placement.PerCore());
  // The shared resources are the last in ResourceIndex order: every
  // socket's aggregate L3, every socket's DRAM, then the links.
  const ResourceIndex index(probe.machine().topo);
  for (int r = index.L3Agg(0); r < index.Count(); ++r) {
    if (prediction.resource_load[r] > caps[r] * 1.02) {
      return false;
    }
  }
  return true;
}

PartialPrediction PredictPartial(const MachineDescription& machine,
                                 const WorkloadDescription& partial,
                                 const Placement& placement) {
  const Predictor predictor(machine, partial);
  const Prediction prediction = predictor.Predict(placement);
  return PartialPrediction{1.0 / prediction.speedup,
                           prediction.amdahl_speedup / prediction.speedup,
                           prediction.threads.front().utilization};
}

int ProfileThreads(const MachineDescription& machine, const WorkloadDescription& partial) {
  // Contention-free by construction requires one thread per core on one
  // socket; find the largest even count whose naive demands oversubscribe
  // nothing (checked with the partial model itself).
  const Predictor probe = ContentionProbe(machine, partial);
  int best = 2;
  for (int n = 2; n <= machine.topo.cores_per_socket; n += 2) {
    if (!ContentionFree(probe, Placement::OnePerCore(machine.topo, n))) {
      break;
    }
    best = n;
  }
  return best;
}

Placement CrossSocketPlacement(const MachineTopology& topo, int n) {
  std::vector<SocketLoad> loads(static_cast<size_t>(topo.num_sockets));
  loads[0] = SocketLoad{n / 2, 0};
  loads[1] = SocketLoad{n - n / 2, 0};
  return Placement::FromSocketLoads(topo, loads);
}

Placement PackedPlacement(const MachineTopology& topo, int n) {
  std::vector<SocketLoad> loads(static_cast<size_t>(topo.num_sockets));
  loads[0] = SocketLoad{0, n / 2};
  return Placement::FromSocketLoads(topo, loads);
}

ResourceDemandVector MeasuredDemands(const sim::Machine& machine,
                                     const sim::RunResult& result,
                                     const Placement& placement) {
  const CounterView view(machine, result, /*job_index=*/0);
  const double time = view.CompletionTime();
  ResourceDemandVector demands;
  demands.instr_rate = view.Instructions() / time;
  demands.l1_bw = view.L1Bytes() / time;
  demands.l2_bw = view.L2Bytes() / time;
  demands.l3_bw = view.L3Bytes() / time;
  const int home = placement.ThreadLocations().front().socket;
  double remote = 0.0;
  for (int s = 0; s < machine.topology().num_sockets; ++s) {
    const double bytes = view.DramBytesOnNode(s);
    if (s == home) {
      demands.dram_local_bw = bytes / time;
    } else {
      remote += bytes;
    }
  }
  demands.dram_remote_bw = remote / time;
  return demands;
}

double RawParallelFraction(double r, int n) { return (1.0 - r) / (1.0 - 1.0 / n); }

double RawInterSocketOverhead(double r, const PartialPrediction& partial, int n) {
  const double u = r / partial.k;
  return (u - 1.0) * partial.f / (n / 2.0);
}

double RawBurstiness(double r, const PartialPrediction& partial, double reference) {
  const double u = r / partial.k_slowdown;
  return (u / reference - 1.0) / partial.f;
}

WorkloadDescription WorkloadProfiler::Profile(const sim::WorkloadSpec& workload) const {
  StatusOr<WorkloadDescription> desc = ProfileRobust(workload, ProfileOptions{});
  // With one trial and no active fault plan every profiling run succeeds, so
  // a failure here is a programming error (e.g. a machine without SMT from
  // inside the evaluation pipeline).
  PANDIA_CHECK_MSG(desc.ok(), desc.status().message().c_str());
  return std::move(*desc);
}

StatusOr<WorkloadDescription> WorkloadProfiler::ProfileRobust(
    const sim::WorkloadSpec& workload, const ProfileOptions& options) const {
  const MachineTopology& topo = description_.topo;
  if (topo.threads_per_core < 2) {
    return Status::FailedPrecondition(
        StrFormat("machine '%s' has threads_per_core = %d; profiling runs 4-6 "
                  "need SMT for co-location",
                  topo.name.c_str(), topo.threads_per_core));
  }
  if (options.trials < 1 || options.max_attempts < 1) {
    return Status::InvalidArgument(
        StrFormat("profile options need trials >= 1 and max_attempts >= 1, got "
                  "trials=%d max_attempts=%d",
                  options.trials, options.max_attempts));
  }
  WorkloadDescription desc;
  desc.workload = workload.name;
  desc.machine = topo.name;
  desc.memory_policy = workload.memory_policy;  // run configuration

  // ---- Run 1: single thread -> t1 and demand vector (§4.1) ----
  {
    const Placement placement = Placement::OnePerCore(topo, 1);
    StatusOr<TimedSample> run1 =
        RobustTimedRun(1, workload, placement, nullptr, nullptr,
                       /*want_counters=*/true, options, desc.quality);
    PANDIA_RETURN_IF_ERROR(run1.status());
    desc.t1 = run1->time;
    desc.demands = run1->demands;
  }

  // ---- Run 2: contention-free scaling -> parallel fraction (§4.2) ----
  const int n2 = ProfileThreads(description_, desc);
  desc.profile_threads = n2;
  const Placement run2_placement = Placement::OnePerCore(topo, n2);
  {
    StatusOr<TimedSample> run2 =
        RobustTimedRun(2, workload, run2_placement, nullptr, nullptr,
                       /*want_counters=*/false, options, desc.quality);
    PANDIA_RETURN_IF_ERROR(run2.status());
    desc.r2 = run2->time / desc.t1;
    const double p = RawParallelFraction(desc.r2, n2);
    desc.parallel_fraction = std::clamp(p, 0.0, 1.0);
    if (p < -kClampTol || p > 1.0 + kClampTol) {
      desc.quality.diagnostics.push_back(
          StrFormat("parallel_fraction %.4g outside [0, 1]; clamped to %g", p,
                    desc.parallel_fraction));
    }
  }

  // ---- Run 3: threads split over two sockets -> o_s (§4.3) ----
  if (topo.num_sockets >= 2) {
    const Placement run3_placement = CrossSocketPlacement(topo, n2);
    StatusOr<TimedSample> run3 =
        RobustTimedRun(3, workload, run3_placement, nullptr, nullptr,
                       /*want_counters=*/false, options, desc.quality);
    PANDIA_RETURN_IF_ERROR(run3.status());
    desc.r3 = run3->time / desc.t1;
    const double os = RawInterSocketOverhead(
        desc.r3, PredictPartial(description_, desc, run3_placement), n2);
    desc.inter_socket_overhead = std::max(os, 0.0);
    if (os < -kClampTol) {
      desc.quality.diagnostics.push_back(StrFormat(
          "inter_socket_overhead %.4g is negative; clamped to 0", os));
    }
  }

  // ---- Runs 4 and 5: slowdown sensitivity -> load balancing l (§4.4) ----
  {
    const sim::WorkloadSpec cpu = stress::CpuStressor();
    // Run 4: every workload thread shares its core with a CPU-bound loop.
    const Placement all_corunners = Placement::OnePerCore(topo, n2);
    StatusOr<TimedSample> run4 =
        RobustTimedRun(4, workload, run2_placement, &cpu, &all_corunners,
                       /*want_counters=*/false, options, desc.quality);
    PANDIA_RETURN_IF_ERROR(run4.status());
    desc.r4 = run4->time / desc.t1;
    // Run 5: only the first thread is slowed.
    const Placement one_corunner = Placement::OnePerCore(topo, 1);
    StatusOr<TimedSample> run5 =
        RobustTimedRun(5, workload, run2_placement, &cpu, &one_corunner,
                       /*want_counters=*/false, options, desc.quality);
    PANDIA_RETURN_IF_ERROR(run5.status());
    desc.r5 = run5->time / desc.t1;

    const double slow = std::max(desc.r4 / desc.r2, 1.0);  // per-thread si in run 4
    const double p = desc.parallel_fraction;
    // Extremes for n-1 threads at s=1 and one thread at s=slow (§4.4).
    const double s_lock = (1.0 - p) + p * slow;
    const double s_bal = (1.0 - p) + n2 * p / ((n2 - 1) + 1.0 / slow);
    const double s_measured = desc.r5 / desc.r2;
    if (s_lock - s_bal > 1e-9) {
      const double l = (s_lock - s_measured) / (s_lock - s_bal);
      desc.load_balance = std::clamp(l, 0.0, 1.0);
      if (l < -kClampTol || l > 1.0 + kClampTol) {
        desc.quality.diagnostics.push_back(
            StrFormat("load_balance %.4g outside [0, 1]; clamped to %g", l,
                      desc.load_balance));
      }
    } else {
      // The workload is insensitive to a single slow thread; l is
      // unidentifiable and has negligible effect. Stay neutral.
      desc.load_balance = 0.5;
    }
  }

  // ---- Run 6: threads packed two per core -> burstiness b (§4.5) ----
  {
    const Placement run6_placement = PackedPlacement(topo, n2);
    StatusOr<TimedSample> run6 =
        RobustTimedRun(6, workload, run6_placement, nullptr, nullptr,
                       /*want_counters=*/false, options, desc.quality);
    PANDIA_RETURN_IF_ERROR(run6.status());
    desc.r6 = run6->time / desc.t1;
    // u6 must stay comparable to u2 = r2 (both contain the Amdahl scaling),
    // so only the contention part of the steps-1..4 prediction divides out,
    // and r2 is the reference since k2 = 1 (§4.5).
    const double b = RawBurstiness(
        desc.r6, PredictPartial(description_, desc, run6_placement), desc.r2);
    desc.burstiness = std::max(b, 0.0);
    if (b < -kClampTol) {
      desc.quality.diagnostics.push_back(
          StrFormat("burstiness %.4g is negative; clamped to 0", b));
    }
  }

  return desc;
}

}  // namespace pandia
