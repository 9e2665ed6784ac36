// Performance of the pipeline itself (google-benchmark). The paper notes
// that "making predictions using Pandia takes a fraction of a second per
// placement" vs 153 machine-days of exhaustive testing on the X5-2; here we
// time single predictions, full placement-space optimization, profiling,
// and simulator runs.
//
// `perf_predictor --convergence-dump` skips the benchmarks and instead
// prints the solver's per-iteration convergence trace (src/obs) for a set of
// representative placements — the tool to reach for when a prediction
// oscillates or crawls toward the 1000-iteration ceiling.
//
// `perf_predictor --parallel [--jobs=N]` skips the benchmarks and measures
// the parallel placement search: it ranks a fixed sampled candidate set
// serially, then with N workers (default: all hardware threads), verifies
// the rankings are identical, and reports predictions/sec for both plus a
// cache-warm pass. Exits non-zero if the parallel ranking ever diverges
// from the serial one.
//
// `perf_predictor --telemetry-overhead` measures the cost of a suppressed
// obs::EventLog call (the disabled fast path is documented as one relaxed
// atomic load) and exits non-zero if it exceeds a generous noise budget.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "src/eval/pipeline.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/prediction_trace.h"
#include "src/predictor/co_schedule.h"
#include "src/predictor/optimizer.h"
#include "src/predictor/prediction_cache.h"
#include "src/topology/enumerate.h"
#include "src/util/parallel.h"
#include "src/workloads/workloads.h"

namespace {

using namespace pandia;

const eval::Pipeline& X5Pipeline() {
  static const eval::Pipeline pipeline("x5-2");
  return pipeline;
}

const Predictor& MdPredictor() {
  static const Predictor predictor = [] {
    const sim::WorkloadSpec workload = workloads::ByName("MD");
    return X5Pipeline().MakePredictor(X5Pipeline().Profile(workload));
  }();
  return predictor;
}

void BM_PredictOnePlacement(benchmark::State& state) {
  const MachineTopology& topo = X5Pipeline().machine().topology();
  const Placement placement =
      Placement::OnePerCore(topo, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MdPredictor().Predict(placement));
  }
}
BENCHMARK(BM_PredictOnePlacement)->Arg(1)->Arg(18)->Arg(36);

void BM_PredictPackedFullMachine(benchmark::State& state) {
  const MachineTopology& topo = X5Pipeline().machine().topology();
  const Placement placement = Placement::TwoPerCore(topo, topo.NumHwThreads());
  for (auto _ : state) {
    benchmark::DoNotOptimize(MdPredictor().Predict(placement));
  }
}
BENCHMARK(BM_PredictPackedFullMachine);

// The solve shape of a rack probe on a busy machine: an x3-2 (2 sockets x 8
// cores x 2 SMT slots) holding seven 4-thread jobs, 28 of its 32 hardware
// threads. Pairs of jobs share cores through SMT, two jobs pack two threads
// per core, and one spans both sockets.
void BM_PredictJointMachine(benchmark::State& state) {
  static const eval::Pipeline pipeline("x3-2");
  const MachineTopology& topo = pipeline.machine().topology();
  const auto cores = [&](const std::vector<std::pair<int, int>>& counts) {
    std::vector<uint8_t> per_core(static_cast<size_t>(topo.NumCores()), 0);
    for (const auto& [core, threads] : counts) {
      per_core[static_cast<size_t>(core)] = static_cast<uint8_t>(threads);
    }
    return Placement(topo, std::move(per_core));
  };
  static const struct {
    const char* workload;
    std::vector<std::pair<int, int>> cores;  // (core, threads)
  } kJobs[] = {
      {"CG", {{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
      {"Swim", {{0, 1}, {1, 1}, {2, 1}, {3, 1}}},
      {"MD", {{8, 1}, {9, 1}, {10, 1}, {11, 1}}},
      {"FT", {{8, 1}, {9, 1}, {10, 1}, {11, 1}}},
      {"EP", {{4, 2}, {5, 2}}},
      {"IS", {{12, 2}, {13, 2}}},
      {"BT", {{6, 1}, {7, 1}, {14, 1}, {15, 1}}},
  };
  static const std::vector<WorkloadDescription> descriptions = [] {
    std::vector<WorkloadDescription> profiled;
    for (const auto& job : kJobs) {
      profiled.push_back(pipeline.Profile(workloads::ByName(job.workload)));
    }
    return profiled;
  }();
  std::vector<CoScheduleRequest> requests;
  for (size_t j = 0; j < std::size(kJobs); ++j) {
    requests.push_back({&descriptions[j], cores(kJobs[j].cores)});
  }
  const CoSchedulePredictor engine(pipeline.description());
  CoSchedulePrediction joint;
  for (auto _ : state) {
    engine.PredictInto(requests, &joint);
    benchmark::DoNotOptimize(joint.jobs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PredictJointMachine);

void BM_FindBestPlacementSampled(benchmark::State& state) {
  OptimizerOptions options;
  options.exhaustive_limit = 1;  // force sampling
  options.sample_count = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindBestPlacement(MdPredictor(), options));
  }
}
BENCHMARK(BM_FindBestPlacementSampled)->Arg(100)->Arg(1000);

// One search-cold query for a bursty workload: x3-2 PRH (burstiness 0.71,
// where the capacity ceiling's burstiness floor prunes most), the best
// placement then the cheapest reaching 95% of it, on one worker. The
// prediction cache is cleared before each query, so the cheapest search
// hits only what the best search solved.
void BM_FindBestAndCheapest(benchmark::State& state) {
  static const eval::Pipeline pipeline("x3-2");
  static const Predictor predictor =
      pipeline.MakePredictor(pipeline.Profile(workloads::ByName("PRH")));
  OptimizerOptions options;
  options.common.jobs = 1;
  for (auto _ : state) {
    PredictionCache::Global().Clear();
    benchmark::DoNotOptimize(FindBestPlacement(predictor, options));
    benchmark::DoNotOptimize(FindCheapestPlacement(predictor, 0.95, options));
  }
}
BENCHMARK(BM_FindBestAndCheapest);

void BM_SimulatorRun(benchmark::State& state) {
  const sim::WorkloadSpec workload = workloads::ByName("CG");
  const MachineTopology& topo = X5Pipeline().machine().topology();
  const Placement placement =
      Placement::TwoPerCore(topo, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(X5Pipeline().machine().RunOne(workload, placement));
  }
}
BENCHMARK(BM_SimulatorRun)->Arg(4)->Arg(36)->Arg(72);

void BM_ProfileWorkload(benchmark::State& state) {
  const sim::WorkloadSpec workload = workloads::ByName("CG");
  for (auto _ : state) {
    benchmark::DoNotOptimize(X5Pipeline().Profile(workload));
  }
}
BENCHMARK(BM_ProfileWorkload);

void BM_EnumerateCanonicalPlacements(benchmark::State& state) {
  const MachineTopology& topo = X5Pipeline().machine().topology();
  for (auto _ : state) {
    benchmark::DoNotOptimize(EnumerateCanonicalPlacements(topo));
  }
}
BENCHMARK(BM_EnumerateCanonicalPlacements);

// Sibling-ranking benchmark: score every canonical 18-thread placement on
// the x5-2, the shape of one optimizer ranking run. One benchmark iteration
// = one full pass.
const std::vector<Placement>& SiblingPlacements() {
  static const std::vector<Placement> siblings = [] {
    const MachineTopology& topo = X5Pipeline().machine().topology();
    std::vector<Placement> all = EnumerateCanonicalPlacements(topo);
    std::erase_if(all, [&](const Placement& p) {
      return p.TotalThreads() != topo.cores_per_socket;
    });
    return all;
  }();
  return siblings;
}

void BM_PredictSiblings(benchmark::State& state) {
  const std::vector<Placement>& siblings = SiblingPlacements();
  for (auto _ : state) {
    for (const Placement& placement : siblings) {
      benchmark::DoNotOptimize(MdPredictor().Predict(placement));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(siblings.size()));
}
BENCHMARK(BM_PredictSiblings);

// --parallel: serial vs parallel RankPlacements throughput on a fixed
// sampled candidate set, with a ranking-equality check and a cache-warm
// pass. The candidate sample is seeded, so every run ranks the same set.
int ParallelComparison(int jobs) {
  using Clock = std::chrono::steady_clock;
  const size_t kTopK = 1u << 20;  // keep the full ranking for comparison
  OptimizerOptions options;
  options.exhaustive_limit = 1;  // force sampling
  options.sample_count = 2000;
  options.sample_seed = 1;

  auto rank = [&](int run_jobs, bool use_cache, double* seconds) {
    OptimizerOptions run = options;
    run.common.jobs = run_jobs;
    run.common.use_cache = use_cache;
    const Clock::time_point start = Clock::now();
    std::vector<RankedPlacement> ranked = RankPlacements(MdPredictor(), kTopK, run);
    *seconds = std::chrono::duration<double>(Clock::now() - start).count();
    return ranked;
  };

  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    jobs = jobs > 0 ? jobs : 1;
  }
  PredictionCache::Global().Clear();
  double serial_s = 0.0, parallel_s = 0.0, cached_s = 0.0;
  const std::vector<RankedPlacement> serial = rank(1, false, &serial_s);
  const std::vector<RankedPlacement> parallel = rank(jobs, false, &parallel_s);

  if (serial.size() != parallel.size()) {
    std::fprintf(stderr, "FAIL: serial ranked %zu placements, parallel %zu\n",
                 serial.size(), parallel.size());
    return 1;
  }
  for (size_t i = 0; i < serial.size(); ++i) {
    if (!(serial[i].placement == parallel[i].placement) ||
        serial[i].prediction.speedup != parallel[i].prediction.speedup) {
      std::fprintf(stderr, "FAIL: rankings diverge at position %zu (%s vs %s)\n",
                   i, serial[i].placement.ToString().c_str(),
                   parallel[i].placement.ToString().c_str());
      return 1;
    }
  }

  // Cache-warm pass: populate the global cache once, then rank again — all
  // hits, so this bounds the search's best case for repeated queries.
  rank(jobs, true, &cached_s);
  const std::vector<RankedPlacement> cached = rank(jobs, true, &cached_s);
  if (cached.size() != serial.size()) {
    std::fprintf(stderr, "FAIL: cached ranking has %zu placements, serial %zu\n",
                 cached.size(), serial.size());
    return 1;
  }

  const double n = static_cast<double>(serial.size());
  std::printf("parallel placement search, %zu candidates (MD on x5-2):\n",
              serial.size());
  std::printf("  serial  (jobs=1):   %8.0f predictions/sec  (%.3fs)\n",
              n / serial_s, serial_s);
  std::printf("  parallel (jobs=%d): %8.0f predictions/sec  (%.3fs)  speedup %.2fx\n",
              jobs, n / parallel_s, parallel_s, serial_s / parallel_s);
  std::printf("  cache-warm (jobs=%d): %6.0f predictions/sec  (%.3fs)  speedup %.2fx\n",
              jobs, n / cached_s, cached_s, serial_s / cached_s);
  std::printf("  rankings identical: yes\n");
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name.rfind("prediction_cache.", 0) == 0 ||
        counter.name.rfind("parallel.", 0) == 0) {
      std::printf("  %s = %llu\n", counter.name.c_str(),
                  static_cast<unsigned long long>(counter.value));
    }
  }
  return 0;
}

// Per-iteration convergence dump: slowdown spread, worst delta, modal
// bottleneck, and dampening state for each solver iteration.
int ConvergenceDump() {
  const MachineTopology& topo = X5Pipeline().machine().topology();
  const struct {
    const char* workload;
    Placement placement;
  } cases[] = {
      {"MD", Placement::OnePerCore(topo, topo.NumCores())},
      {"MD", Placement::TwoPerCore(topo, topo.NumHwThreads())},
      {"CG", Placement::TwoPerCore(topo, topo.NumHwThreads())},
      {"FT", Placement::OnePerCore(topo, topo.NumCores() / 2)},
  };
  for (const auto& c : cases) {
    obs::PredictionTrace trace;
    PredictionOptions options;
    options.common.trace = &trace;
    const Predictor predictor = X5Pipeline().MakePredictor(
        X5Pipeline().Profile(workloads::ByName(c.workload)), options);
    const Prediction prediction = predictor.Predict(c.placement);
    std::printf("%s on x5-2, placement %s: speedup %.2f\n", c.workload,
                c.placement.ToString().c_str(), prediction.speedup);
    std::fputs(trace.Summary().c_str(), stdout);
    std::printf("\n");
  }
  return 0;
}

// --telemetry-overhead: the structured event log promises that an event
// below the minimum level costs one relaxed atomic load — cheap enough to
// leave call sites in hot paths unconditionally. Measure a tight loop with
// and without a suppressed Log() call and fail if the per-call overhead
// exceeds a generous noise budget.
int TelemetryOverhead() {
  using Clock = std::chrono::steady_clock;
  obs::EventLog log;
  log.SetMinLevel(obs::LogLevel::kError);  // Info events take the fast path
  constexpr int kIterations = 2000000;
  constexpr double kBudgetNsPerOp = 100.0;

  // Warm-up plus baseline: the loop body alone.
  uint64_t sink = 0;
  for (int i = 0; i < kIterations; ++i) {
    benchmark::DoNotOptimize(sink += static_cast<uint64_t>(i));
  }
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    benchmark::DoNotOptimize(sink += static_cast<uint64_t>(i));
  }
  const Clock::time_point t1 = Clock::now();
  for (int i = 0; i < kIterations; ++i) {
    benchmark::DoNotOptimize(sink += static_cast<uint64_t>(i));
    log.Log(obs::LogLevel::kInfo, "bench.telemetry", "suppressed");
  }
  const Clock::time_point t2 = Clock::now();

  const double baseline_ns =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / kIterations;
  const double disabled_ns =
      std::chrono::duration<double, std::nano>(t2 - t1).count() / kIterations;
  const double overhead_ns =
      disabled_ns > baseline_ns ? disabled_ns - baseline_ns : 0.0;
  std::printf("disabled-telemetry overhead (%d iterations):\n", kIterations);
  std::printf("  loop baseline:       %7.2f ns/op\n", baseline_ns);
  std::printf("  with suppressed Log: %7.2f ns/op\n", disabled_ns);
  std::printf("  overhead:            %7.2f ns/op  (budget %.0f)\n",
              overhead_ns, kBudgetNsPerOp);
  if (overhead_ns > kBudgetNsPerOp) {
    std::fprintf(stderr,
                 "FAIL: suppressed event log call costs %.2f ns/op, over the "
                 "%.0f ns budget — the disabled path is no longer one "
                 "relaxed load\n",
                 overhead_ns, kBudgetNsPerOp);
    return 1;
  }
  return 0;
}

// Pins the benchmark thread to one CPU so timings do not absorb migrations
// and the recorded context names the core the numbers came from. Returns
// the pinned CPU, or -1 when pinning is unsupported or fails (non-Linux,
// restricted affinity mask).
int PinBenchThread() {
#ifdef __linux__
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return -1;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) {
      continue;
    }
    cpu_set_t pin;
    CPU_ZERO(&pin);
    CPU_SET(cpu, &pin);
    if (sched_setaffinity(0, sizeof(pin), &pin) == 0) {
      return cpu;
    }
  }
#endif
  return -1;
}

}  // namespace

#ifndef PANDIA_BUILD_TYPE
#define PANDIA_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  bool parallel = false;
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--convergence-dump") == 0) {
      return ConvergenceDump();
    }
    if (std::strcmp(argv[i], "--telemetry-overhead") == 0) {
      return TelemetryOverhead();
    }
    if (std::strcmp(argv[i], "--parallel") == 0) {
      parallel = true;
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      jobs = std::atoi(argv[i] + 7);
    }
  }
  if (parallel) {
    return ParallelComparison(jobs);
  }
  // google-benchmark's own num_cpus comes from its CPU-info probe, which
  // reads 1 inside minimal containers; record the real hardware thread
  // count, the pinned CPU, and this binary's build type so baseline JSONs
  // are comparable (the regression checker keys on these).
  const int pinned_cpu = PinBenchThread();
  const unsigned hw_threads = std::thread::hardware_concurrency();
  benchmark::AddCustomContext("pandia_hardware_threads",
                              std::to_string(hw_threads > 0 ? hw_threads : 1));
  benchmark::AddCustomContext(
      "pandia_pinned_cpu",
      pinned_cpu >= 0 ? std::to_string(pinned_cpu) : "unpinned");
  benchmark::AddCustomContext("pandia_build_type", PANDIA_BUILD_TYPE);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
