// Structure-of-arrays implementation of the iterative joint model (§5).
//
// The solver is the hottest code in the system — every optimizer ranking
// and every rack admission calls it thousands of times — so it is written
// against flat, contiguous arrays in a reusable SolverScratch arena (see
// solver_scratch.h) rather than per-call std::vectors, and a solve of an
// already-seen shape allocates nothing. Results are byte-identical to the
// retained reference implementation (tests/reference_solver.cc);
// the equivalence property test (tests/solver_equivalence_test.cc) pins
// this down across all four paper machines, every canonical x3-2
// placement, random joint schedules and an edge-case corpus.
//
// The solver iterates over thread classes, not threads. A class is the
// threads of one job on one socket whose cores have the same composition
// (every job's thread count on the core). By induction over iterations its
// threads hold the same utilization: their cores carry the same per-core
// loads and capacities, they share one demand tail, and every step maps
// equal operands to equal results. So each class keeps one utilization,
// one resource slowdown, one set of penalties and one bottleneck plane,
// and one socket's cores of one composition (a core group) accumulate
// their four per-core planes once. Classes are found once per solve by
// refining the occupied cores job by job. A solo job is the one-job case:
// its classes are (socket, threads on the core).
//
// Three sums stay per thread, because floating-point addition is not
// associative and the reference adds one term per thread in thread order:
// each tail resource's load (several threads, often of several classes,
// feed it), step 2's total and per-socket work, and AssembleJob's harmonic
// sum. They walk segments, the runs of consecutive threads of one class,
// adding the class's term once per thread. A per-core plane sums too, but
// a core holds one class of each job and the jobs add in job order, so the
// group's sum is each core's sum. The PredictionTrace hook expands classes
// to threads only when a trace is attached.
//
// The demand layout exploits the model's structure: a thread's demand list
// is a fixed-width per-core part (core issue, L1, L2, L3 port — rates
// shared by the whole job) followed by a per-(job, socket) tail (L3
// aggregate, DRAM, interconnect — identical for all of the job's threads
// on that socket). The bottleneck scan reuses one (max, argmax) per tail
// for every class sharing it — exact, because the reference's scan is a
// strict-> first-wins argmax and the tail entries come last in its demand
// order.
//
// Further recompute-avoidance, all bit-exact against the reference:
//   * contention factors load/caps are divided out inline and only when
//     load > caps — a factor <= 1.0 can never win a scan whose running
//     worst starts at 1.0;
//   * thread-utilization factors are computed once during result assembly
//     (and inline where the communication step reads them) — every
//     in-loop recompute the reference performs is either overwritten
//     unread or reproduces the same bits;
//   * the communication step is skipped for single-socket jobs (all its
//     terms are exactly +0.0) and the §5.4 clamp pass is skipped when no
//     slowdown falls outside [1, ceiling] (every clamp is the identity);
//   * capacities are MachineDescription::Capacities' scalars, read per
//     core group and per tail entry; the per-solve sizing pass is skipped
//     when the problem shape matches the previous solve, and only the
//     previous solve's touched load entries are re-zeroed.
//
// The per-class loops run job-major (hoisting each job's rates, masks and
// model constants out of the inner loop) over __restrict-qualified raw
// pointers — the scratch buffers never alias, but without the qualifier
// every store to a double array forces the compiler to reload every other
// double array.
#include "src/predictor/co_schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "src/obs/metrics.h"
#include "src/obs/prediction_trace.h"
#include "src/obs/trace.h"
#include "src/topology/memory_policy.h"
#include "src/util/check.h"

namespace pandia {
namespace {

SolverScratch& ThreadLocalScratch() {
  static thread_local SolverScratch scratch;
  return scratch;
}

// One static init-guard for the whole counter set instead of one per
// counter — registry lookups happen once, per-call cost is the increments.
struct SolverMetrics {
  obs::Counter& predictions;
  obs::Counter& total_iterations;
  obs::Counter& converged;
  obs::Counter& non_converged;
  obs::Histogram& iterations_histogram;

  static SolverMetrics& Get() {
    static SolverMetrics metrics{
        obs::MetricsRegistry::Global().counter("predictor.predictions"),
        obs::MetricsRegistry::Global().counter("predictor.iterations"),
        obs::MetricsRegistry::Global().counter("predictor.converged"),
        obs::MetricsRegistry::Global().counter("predictor.non_converged"),
        obs::MetricsRegistry::Global().histogram(
            "predictor.iterations_per_predict",
            {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0})};
    return metrics;
  }
};

// Largest relative move max_t |s[t] - p[t]| / s[t]; p == nullptr means the
// all-ones initial state of the first iteration. Each element's subtract,
// |.| (sign-bit clear), and divide are the same IEEE operations as the
// scalar loop's std::fabs(s - p) / s, and reordering the max reduction
// cannot change its value: the merge is pure selection, and the NaN-skip
// semantics match (std::max(worst, q) keeps worst when q is NaN; so does
// _mm_max_pd(q, acc), which returns acc when the comparison is unordered).
// For the same reason the maximum over classes is the maximum over threads.
inline double MaxRelativeDelta(const double* __restrict s,
                               const double* __restrict p, int n) {
  double worst = 0.0;
  int t = 0;
#if defined(__SSE2__)
  __m128d acc = _mm_setzero_pd();
  const __m128d abs_mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
  const __m128d ones = _mm_set1_pd(1.0);
  for (; t + 2 <= n; t += 2) {
    const __m128d sv = _mm_loadu_pd(s + t);
    const __m128d pv = p != nullptr ? _mm_loadu_pd(p + t) : ones;
    const __m128d q = _mm_div_pd(_mm_and_pd(_mm_sub_pd(sv, pv), abs_mask), sv);
    acc = _mm_max_pd(q, acc);
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, acc);
  worst = std::max(lanes[1], std::max(worst, lanes[0]));
#endif
  for (; t < n; ++t) {
    const double pv = p != nullptr ? p[t] : 1.0;
    worst = std::max(worst, std::fabs(s[t] - pv) / s[t]);
  }
  return worst;
}

// The per-core demand planes, in the reference's demand order: core issue,
// L1, L2, L3 port. Plane k of core c is resource k * num_cores + c.
constexpr int kCorePlanes = 4;

// CapacityCeiling's burstiness floor holds at fixed points only. A solve
// capped at a few iterations can stop in its transient, where the first
// iteration's penalties still hold a thread's utilization below f_initial
// and its slowdown below the floor: random joint schedules find solves
// above the floored ceiling at max_iterations 2 to 6, and to 10 when the
// damping starts at the first iteration, but none from 20 to 1000. So a
// cap below this many iterations (the default dampen_after) gets no floor.
constexpr int kFloorMinIterations = 100;

// A thread's bottleneck resource from its class's: a core plane names that
// plane of the thread's own core; a tail resource (>= 4 * num_cores) and -1
// (no oversubscribed resource) stay as they are.
inline int ThreadBottleneck(int class_bottleneck, int core, int num_cores) {
  return class_bottleneck >= 0 && class_bottleneck < kCorePlanes
             ? class_bottleneck * num_cores + core
             : class_bottleneck;
}

// Calls visit(core, slot, class) once per thread of job j, in thread order
// (cores in index order, SMT slots in order), as Placement::ThreadLocations
// lists them.
template <typename Visit>
inline void ForEachThread(const SolverScratch& s, size_t j, Visit&& visit) {
  for (int32_t i = s.job_first_touch[j]; i < s.job_first_touch[j + 1]; ++i) {
    const int32_t core = s.touched_cores[i];
    const int32_t cls = s.touched_class[i];
    for (int32_t slot = 0; slot < s.class_core_threads[cls]; ++slot) {
      visit(core, slot, cls);
    }
  }
}

}  // namespace

CoSchedulePredictor::CoSchedulePredictor(MachineDescription machine,
                                         PredictionOptions options)
    : machine_(std::move(machine)), options_(options), index_(machine_.topo) {}

CoSchedulePrediction CoSchedulePredictor::Predict(
    std::span<const CoScheduleRequest> requests) const {
  return PredictWithScratch(requests, ThreadLocalScratch());
}

void CoSchedulePredictor::PredictInto(std::span<const CoScheduleRequest> requests,
                                      CoSchedulePrediction* out) const {
  PredictIntoWithScratch(requests, ThreadLocalScratch(), out);
}

Prediction CoSchedulePredictor::PredictOne(const WorkloadDescription& workload,
                                           const Placement& placement) const {
  SolverScratch& s = ThreadLocalScratch();
  const SolverJobRef job{&workload, &placement};
  const SolveOutcome outcome = Solve(std::span<const SolverJobRef>(&job, 1), s);
  Prediction prediction;
  AssembleJob(0, s, outcome, workload.t1, &prediction);
  prediction.resource_load.assign(s.load.begin(), s.load.end());
  return prediction;
}

CoSchedulePrediction CoSchedulePredictor::PredictWithScratch(
    std::span<const CoScheduleRequest> requests, SolverScratch& s) const {
  CoSchedulePrediction result;
  PredictIntoWithScratch(requests, s, &result);
  return result;
}

void CoSchedulePredictor::PredictIntoWithScratch(
    std::span<const CoScheduleRequest> requests, SolverScratch& s,
    CoSchedulePrediction* out) const {
  PANDIA_CHECK(!requests.empty());
  const size_t num_jobs = requests.size();
  s.Size(s.job_refs, num_jobs);
  for (size_t r = 0; r < num_jobs; ++r) {
    s.job_refs[r] = SolverJobRef{requests[r].workload, &requests[r].placement};
  }
  const SolveOutcome outcome =
      Solve(std::span<const SolverJobRef>(s.job_refs.data(), num_jobs), s);

  out->resource_load.assign(s.load.begin(), s.load.end());
  out->jobs.resize(num_jobs);
  for (size_t j = 0; j < num_jobs; ++j) {
    AssembleJob(j, s, outcome, requests[j].workload->t1, &out->jobs[j]);
    out->jobs[j].resource_load = out->resource_load;
  }
}

CoSchedulePredictor::SolveOutcome CoSchedulePredictor::Solve(
    std::span<const SolverJobRef> jobs, SolverScratch& s) const {
  PANDIA_CHECK(!jobs.empty());
  const obs::TraceSpan predict_span("predict", static_cast<int64_t>(jobs.size()));
  obs::PredictionTrace* trace = options_.common.trace;
  if (trace != nullptr) {
    trace->Clear();
  }
  const MachineTopology& topo = machine_.topo;
  const int num_cores = topo.NumCores();
  const int num_sockets = topo.num_sockets;
  const int cores_per_socket = topo.cores_per_socket;
  // A job holds 0..threads_per_core threads on a core.
  const int counts_per_core = topo.threads_per_core + 1;
  const size_t num_jobs = jobs.size();
  const size_t num_resources = static_cast<size_t>(index_.Count());

  int n_total = 0;
  for (const SolverJobRef& job : jobs) {
    PANDIA_CHECK(job.workload != nullptr);
    PANDIA_CHECK(job.workload->t1 > 0.0);
    const MachineTopology& placement_topo = job.placement->topology();
    PANDIA_CHECK_MSG(placement_topo.num_sockets == topo.num_sockets &&
                         placement_topo.cores_per_socket == topo.cores_per_socket &&
                         placement_topo.threads_per_core == topo.threads_per_core,
                     "placement topology does not match machine description");
    n_total += job.placement->TotalThreads();
  }

  // Sizing pass — skipped entirely when the problem shape matches the
  // previous solve (the steady state for rankings and benchmarks). Every
  // buffer is sized to its bound here, so a solve never grows one later:
  // classes, segments and (job, core) pairs are each at most the thread
  // count, and core groups at most the core count.
  const size_t n = static_cast<size_t>(n_total);
  const size_t cores = static_cast<size_t>(num_cores);
  const size_t num_tails = num_jobs * static_cast<size_t>(num_sockets);
  const size_t max_tail = 1 + 2 * static_cast<size_t>(num_sockets);
  if (s.shape_jobs != static_cast<int64_t>(num_jobs) ||
      s.shape_threads != n_total || s.shape_cores != num_cores ||
      s.shape_sockets != num_sockets ||
      s.shape_threads_per_core != topo.threads_per_core ||
      s.shape_resources != static_cast<int64_t>(num_resources)) {
    s.Size(s.class_socket, n);
    s.Size(s.class_group, n);
    s.Size(s.class_core_threads, n);
    s.Size(s.class_opens_group, n);
    s.Size(s.class_f, n);
    s.Size(s.s_overall, n);
    s.Size(s.s_prev, n);
    s.Size(s.s_resource, n);
    s.Size(s.comm_penalty, n);
    s.Size(s.balance_penalty, n);
    s.Size(s.bottleneck, n);
    s.Size(s.touched_cores, n);
    s.Size(s.touched_socket, n);
    s.Size(s.touched_class, n);
    s.Size(s.segment_class, n);
    s.Size(s.segment_threads, n);

    s.Size(s.job_num_threads, num_jobs);
    s.Size(s.job_first_touch, num_jobs + 1);
    s.Size(s.job_first_class, num_jobs + 1);
    s.Size(s.job_first_segment, num_jobs + 1);
    s.Size(s.job_amdahl, num_jobs);
    s.Size(s.job_f_initial, num_jobs);
    s.Size(s.job_os, num_jobs);
    s.Size(s.job_l, num_jobs);
    s.Size(s.job_b, num_jobs);
    s.Size(s.job_single_socket, num_jobs);
    s.Size(s.job_core_rates, 4 * num_jobs);
    s.Size(s.job_core_mask, 4 * num_jobs);

    s.Size(s.tail_offset, num_tails + 1);
    s.Size(s.tail_res, num_tails * max_tail);
    s.Size(s.tail_rate, num_tails * max_tail);
    s.Size(s.tail_cap, num_tails * max_tail);
    s.Size(s.tail_threads, num_tails);
    s.Size(s.tail_max, num_tails);
    s.Size(s.tail_arg, num_tails);

    s.Size(s.group_load, kCorePlanes * cores);
    s.Size(s.group_caps, kCorePlanes * cores);
    s.Size(s.group_shared, cores);
    s.Size(s.class_of_group, cores);
    s.Size(s.occupied_core, cores);
    s.Size(s.occupied_group, cores);
    s.Size(s.core_group, cores);
    // Refinement's parents are sockets or groups, both at most the cores.
    s.Size(s.refine_next, cores * static_cast<size_t>(counts_per_core));

    s.Size(s.load, num_resources);
    s.Size(s.combined_per_core, cores);
    s.Size(s.socket_work, static_cast<size_t>(num_sockets));
    s.Size(s.active_sockets, static_cast<size_t>(num_sockets));
    s.Size(s.memory_weights, static_cast<size_t>(num_sockets));
    s.Size(s.resource_seen, num_resources);
    s.Size(s.resource_touched, num_tails * max_tail);

    s.shape_jobs = static_cast<int64_t>(num_jobs);
    s.shape_threads = n_total;
    s.shape_cores = num_cores;
    s.shape_sockets = num_sockets;
    s.shape_threads_per_core = topo.threads_per_core;
    s.shape_resources = static_cast<int64_t>(num_resources);

    // The previous touched lists may index a differently-sized load array;
    // re-establish the "zero outside the touched set" invariant wholesale.
    s.num_touched = 0;
    s.num_occupied = 0;
    std::fill(s.load.begin(), s.load.end(), 0.0);
  } else {
    // Invariant: load[] is all-zero outside the previous solve's touched
    // tail resources and occupied cores' planes. Zero those stale entries
    // instead of the whole resource vector; this solve's tail entries are
    // zeroed at the top of each iteration, and its cores' planes written
    // once at the final export.
    double* const load = s.load.data();
    for (int32_t i = 0; i < s.num_touched; ++i) {
      load[s.resource_touched[i]] = 0.0;
    }
    for (int32_t i = 0; i < s.num_occupied; ++i) {
      const int32_t core = s.occupied_core[i];
      for (int k = 0; k < kCorePlanes; ++k) {
        load[k * num_cores + core] = 0.0;
      }
    }
  }

  // Every job's threads per core; a solo job's own counts serve as is.
  const uint8_t* combined = jobs[0].placement->PerCore().data();
  if (num_jobs > 1) {
    std::fill(s.combined_per_core.begin(), s.combined_per_core.end(),
              static_cast<uint8_t>(0));
    for (const SolverJobRef& job : jobs) {
      const std::vector<uint8_t>& per_core = job.placement->PerCore();
      for (int c = 0; c < num_cores; ++c) {
        s.combined_per_core[c] =
            static_cast<uint8_t>(s.combined_per_core[c] + per_core[c]);
      }
    }
    combined = s.combined_per_core.data();
  }

  // Distinct touched resources, marked by epoch so no per-solve clear is
  // needed; the marking follows the tail construction below.
  if (++s.seen_epoch == 0) {
    std::fill(s.resource_seen.begin(), s.resource_seen.end(), 0u);
    s.seen_epoch = 1;
  }
  const uint32_t epoch = s.seen_epoch;
  int32_t num_touched = 0;

  // --- Jobs: model constants, occupied cores and demand tails ---
  int32_t tail_index = 0;
  int32_t num_touched_cores = 0;
  int first_core = num_cores;  // span of the cores any job occupies
  int last_core = -1;
  for (size_t r = 0; r < num_jobs; ++r) {
    const WorkloadDescription& workload = *jobs[r].workload;
    const Placement& placement = *jobs[r].placement;
    const std::vector<uint8_t>& per_core = placement.PerCore();
    const int num_threads = placement.TotalThreads();
    s.job_num_threads[r] = num_threads;
    const double p = workload.parallel_fraction;
    PANDIA_CHECK(p >= 0.0 && p <= 1.0);
    s.job_amdahl[r] = 1.0 / ((1.0 - p) + p / num_threads);
    s.job_f_initial[r] = s.job_amdahl[r] / num_threads;
    s.job_os[r] = options_.model_communication ? workload.inter_socket_overhead : 0.0;
    s.job_l[r] = options_.model_load_balance ? workload.load_balance : 1.0;
    PANDIA_CHECK(s.job_l[r] >= 0.0 && s.job_l[r] <= 1.0);
    s.job_b[r] = options_.model_burstiness ? workload.burstiness : 0.0;

    // Non-positive rates are zeroed, not just masked: the unconditional
    // core adds in step 1 rely on a zero rate contributing exactly +0.0
    // (the reference skips non-positive entries outright).
    const ResourceDemandVector& d = workload.demands;
    double* const rates = &s.job_core_rates[4 * r];
    uint8_t* const mask = &s.job_core_mask[4 * r];
    const double raw_rates[4] = {d.instr_rate, d.l1_bw, d.l2_bw, d.l3_bw};
    for (int k = 0; k < 4; ++k) {
      const bool positive = raw_rates[k] > 0.0;
      rates[k] = positive ? raw_rates[k] : 0.0;
      mask[k] = positive ? 1 : 0;
    }

    // The job's occupied cores in thread order (cores in index order) —
    // Placement::ThreadLocations' order without allocating. Socket-major
    // iteration keeps the same global core order while avoiding a
    // core->socket integer division per core.
    std::fill(s.active_sockets.begin(), s.active_sockets.end(),
              static_cast<uint8_t>(0));
    int32_t* const socket_threads = &s.tail_threads[r * num_sockets];
    std::fill_n(socket_threads, num_sockets, 0);
    s.job_first_touch[r] = num_touched_cores;
    int home_socket = -1;
    int sockets_used = 0;
    int remaining = num_threads;
    for (int socket = 0; socket < num_sockets && remaining > 0; ++socket) {
      const int core_base = socket * cores_per_socket;
      for (int local = 0; local < cores_per_socket && remaining > 0; ++local) {
        const int core = core_base + local;
        const int count = per_core[core];
        if (count == 0) {
          continue;
        }
        remaining -= count;
        if (home_socket < 0) {
          home_socket = socket;  // first thread's socket
        }
        if (s.active_sockets[socket] == 0) {
          s.active_sockets[socket] = 1;
          ++sockets_used;
        }
        socket_threads[socket] += count;
        s.touched_cores[num_touched_cores] = core;
        s.touched_socket[num_touched_cores++] = socket;
      }
    }
    s.job_single_socket[r] = sockets_used <= 1 ? 1 : 0;
    if (num_touched_cores > s.job_first_touch[r]) {
      first_core = std::min(first_core, s.touched_cores[s.job_first_touch[r]]);
      last_core = std::max(last_core, s.touched_cores[num_touched_cores - 1]);
    }

    // Per-(job, socket) demand tails, entries in the reference's demand
    // order (L3Agg, then DRAM/link per memory node), each with its
    // capacity. Zero-rate entries are excluded, exactly as the reference
    // excludes them — a zero-rate entry must not join the bottleneck scan,
    // since another job can oversubscribe the same resource.
    const double dram_total = d.dram_total_bw();
    for (int socket = 0; socket < num_sockets; ++socket) {
      s.tail_offset[r * num_sockets + socket] = tail_index;
      if (s.active_sockets[socket] == 0) {
        continue;
      }
      if (d.l3_bw > 0.0) {
        s.tail_res[tail_index] = index_.L3Agg(socket);
        s.tail_rate[tail_index] = d.l3_bw;
        s.tail_cap[tail_index++] = machine_.l3_agg_bw;
      }
      if (dram_total > 0.0) {
        MemoryNodeWeightsInto(workload.memory_policy, num_sockets, s.active_sockets,
                              socket, home_socket,
                              std::span<double>(s.memory_weights.data(), num_sockets));
        for (int m = 0; m < num_sockets; ++m) {
          if (s.memory_weights[m] <= 0.0) {
            continue;
          }
          s.tail_res[tail_index] = index_.Dram(m);
          s.tail_rate[tail_index] = dram_total * s.memory_weights[m];
          s.tail_cap[tail_index++] = machine_.dram_bw;
          if (m != socket) {
            s.tail_res[tail_index] = index_.Link(socket, m);
            s.tail_rate[tail_index] = dram_total * s.memory_weights[m];
            s.tail_cap[tail_index++] = machine_.link_bw;
          }
        }
      }
    }
  }
  s.job_first_touch[num_jobs] = num_touched_cores;
  s.tail_offset[num_tails] = tail_index;
  for (int32_t d = 0; d < tail_index; ++d) {
    const int32_t res = s.tail_res[d];
    if (s.resource_seen[res] != epoch) {
      s.resource_seen[res] = epoch;
      s.resource_touched[num_touched++] = res;
    }
  }
  s.num_touched = num_touched;

  // --- Core groups: refine the occupied cores job by job ---
  // Every occupied core, once and in core order, starts in its socket's
  // group. After job r, two cores share a group iff they shared one before
  // and job r holds as many threads on both; refine_next hands out the
  // new dense ids, so the final ids are exactly the groups.
  int32_t num_occupied = 0;
  for (int socket = 0; socket * cores_per_socket <= last_core; ++socket) {
    const int end = std::min(last_core + 1, (socket + 1) * cores_per_socket);
    for (int core = std::max(first_core, socket * cores_per_socket); core < end; ++core) {
      if (combined[core] != 0) {
        s.occupied_core[num_occupied] = core;
        s.occupied_group[num_occupied] = socket;
        ++num_occupied;
      }
    }
  }
  int32_t num_groups = num_sockets;
  int32_t* const refine_next = s.refine_next.data();
  for (size_t r = 0; r < num_jobs; ++r) {
    const uint8_t* const per_core = jobs[r].placement->PerCore().data();
    std::fill_n(refine_next, num_groups * counts_per_core, -1);
    int32_t next = 0;
    for (int32_t i = 0; i < num_occupied; ++i) {
      int32_t& child =
          refine_next[s.occupied_group[i] * counts_per_core + per_core[s.occupied_core[i]]];
      if (child < 0) {
        child = next++;
      }
      s.occupied_group[i] = child;
    }
    num_groups = next;
  }
  s.num_occupied = num_occupied;
  s.num_groups = num_groups;
  // A group's plane capacities, as MachineDescription::Capacities sets
  // them: only the issue plane depends on the core, through whether it
  // holds two threads or more. Cores of one group write the same values.
  int32_t* const class_of_group = s.class_of_group.data();
  for (int32_t i = 0; i < num_occupied; ++i) {
    const int32_t core = s.occupied_core[i];
    const int32_t group = s.occupied_group[i];
    s.core_group[core] = group;
    class_of_group[group] = -1;
    const bool shared = combined[core] > 1;
    s.group_shared[group] = shared ? 1 : 0;
    double* const caps = &s.group_caps[kCorePlanes * group];
    caps[0] = shared ? machine_.smt_combined_ops : machine_.core_ops;
    caps[1] = machine_.l1_bw;
    caps[2] = machine_.l2_bw;
    caps[3] = machine_.l3_port_bw;
  }

  // --- Classes and segments, in thread order ---
  // Classes are job-major: a job's first core in a group opens its class
  // there, so a class id below the job's first is an earlier job's. The
  // first class of a group (the lowest job's) starts the group's plane sums
  // at each iteration. §5.4: every class starts from its job's Amdahl
  // utilization. Step 2 writes the penalties of multi-socket jobs with
  // os > 0 at every iteration; every other class's stays the reference's
  // +0.0.
  int32_t num_classes = 0;
  int32_t num_segments = 0;
  for (size_t r = 0; r < num_jobs; ++r) {
    const uint8_t* const per_core = jobs[r].placement->PerCore().data();
    const int32_t first_class = num_classes;
    const int32_t first_segment = num_segments;
    s.job_first_class[r] = first_class;
    s.job_first_segment[r] = first_segment;
    for (int32_t i = s.job_first_touch[r]; i < s.job_first_touch[r + 1]; ++i) {
      const int32_t core = s.touched_cores[i];
      const int32_t count = per_core[core];
      const int32_t group = s.core_group[core];
      int32_t cls = class_of_group[group];
      if (cls < first_class) {
        const bool opens_group = cls < 0;
        cls = num_classes++;
        class_of_group[group] = cls;
        s.class_opens_group[cls] = opens_group ? 1 : 0;
        s.class_group[cls] = group;
        s.class_core_threads[cls] = count;
        s.class_socket[cls] = s.touched_socket[i];
        s.class_f[cls] = s.job_f_initial[r];
        s.comm_penalty[cls] = 0.0;
      }
      s.touched_class[i] = cls;
      if (num_segments > first_segment && s.segment_class[num_segments - 1] == cls) {
        s.segment_threads[num_segments - 1] += count;
      } else {
        s.segment_class[num_segments] = cls;
        s.segment_threads[num_segments] = count;
        ++num_segments;
      }
    }
  }
  s.job_first_class[num_jobs] = num_classes;
  s.job_first_segment[num_jobs] = num_segments;
  s.num_classes = num_classes;
  s.num_segments = num_segments;

  // --- Iterative joint model (§5, generalized over jobs) ---
  // s_overall needs no initialization: step 1 overwrites every entry, and
  // the first iteration's delta is computed against the literal 1.0 initial
  // state instead of a materialized all-ones buffer.
  bool any_comm = false;
  for (size_t j = 0; j < num_jobs; ++j) {
    any_comm |= s.job_os[j] > 0.0 && s.job_single_socket[j] == 0;
  }

  double slowdown_ceiling = 0.0;
  int iterations = 0;
  bool converged = false;
  double final_delta = 0.0;
  const int max_iterations = options_.iterate ? options_.max_iterations : 1;

  // Raw __restrict views of the scratch buffers. None of them overlap; the
  // qualifier lets the compiler keep values live across stores to the
  // double arrays instead of reloading after every write.
  double* __restrict const load = s.load.data();
  double* __restrict const group_load = s.group_load.data();
  const double* __restrict const group_caps = s.group_caps.data();
  const uint8_t* __restrict const group_shared = s.group_shared.data();
  const int32_t* __restrict const touched = s.resource_touched.data();
  const int32_t* __restrict const t_off = s.tail_offset.data();
  const int32_t* __restrict const t_res = s.tail_res.data();
  const double* __restrict const t_rate = s.tail_rate.data();
  const double* __restrict const t_cap = s.tail_cap.data();
  const int32_t* __restrict const class_socket = s.class_socket.data();
  const int32_t* __restrict const class_group = s.class_group.data();
  const int32_t* __restrict const class_core_threads = s.class_core_threads.data();
  const uint8_t* __restrict const class_opens_group = s.class_opens_group.data();
  const int32_t* __restrict const segment_class = s.segment_class.data();
  const int32_t* __restrict const segment_threads = s.segment_threads.data();
  const int32_t* __restrict const job_first_class = s.job_first_class.data();
  const int32_t* __restrict const job_first_segment = s.job_first_segment.data();
  double* __restrict const class_f = s.class_f.data();
  double* __restrict const s_resource = s.s_resource.data();
  double* __restrict const comm_penalty = s.comm_penalty.data();
  double* __restrict const balance_penalty = s.balance_penalty.data();
  int* __restrict const bottleneck = s.bottleneck.data();
  double* __restrict const tail_max = s.tail_max.data();
  int32_t* __restrict const tail_arg = s.tail_arg.data();
  double* __restrict const socket_work = s.socket_work.data();

  for (int iter = 0; iter < max_iterations; ++iter) {
    const obs::TraceSpan iteration_span("predict.iteration", iter + 1);
    ++iterations;
    // Double-buffer: last iteration's s_overall becomes `prev` by swapping
    // buffers (step 1 below overwrites every s_overall entry).
    s.s_overall.swap(s.s_prev);
    const double* __restrict const prev = s.s_prev.data();
    double* __restrict const s_overall = s.s_overall.data();

    // Step 1: resource contention, including cross-job load (§5.1).
    // Each group's per-core planes: every core of the group holds
    // class_core_threads of each of its classes' jobs, and those add in job
    // order, one term per thread, as the reference adds a core's threads.
    // Adding a zero-rate core term contributes exactly +0.0 and is a
    // bitwise no-op, so the four plane adds run unconditionally.
    for (size_t j = 0; j < num_jobs; ++j) {
      const double* const rates = &s.job_core_rates[4 * j];
      const double r0 = rates[0], r1 = rates[1], r2 = rates[2], r3 = rates[3];
      for (int32_t c = job_first_class[j]; c < job_first_class[j + 1]; ++c) {
        const double f = class_f[c];
        const double x0 = r0 * f, x1 = r1 * f, x2 = r2 * f, x3 = r3 * f;
        double* const gl = &group_load[kCorePlanes * class_group[c]];
        if (class_opens_group[c] != 0) {
          gl[0] = 0.0;
          gl[1] = 0.0;
          gl[2] = 0.0;
          gl[3] = 0.0;
        }
        for (int32_t k = 0; k < class_core_threads[c]; ++k) {
          gl[0] += x0;
          gl[1] += x1;
          gl[2] += x2;
          gl[3] += x3;
        }
      }
    }
    // Tail loads accumulate in the resource vector one term per thread, in
    // thread order: a run of m threads of one class adds its term m times.
    for (int32_t i = 0; i < num_touched; ++i) {
      load[touched[i]] = 0.0;
    }
    for (size_t j = 0; j < num_jobs; ++j) {
      const size_t tail_base = j * static_cast<size_t>(num_sockets);
      for (int32_t g = job_first_segment[j]; g < job_first_segment[j + 1]; ++g) {
        const int32_t c = segment_class[g];
        const int32_t threads = segment_threads[g];
        const double f = class_f[c];
        const size_t js = tail_base + class_socket[c];
        for (int32_t d = t_off[js]; d < t_off[js + 1]; ++d) {
          const double x = t_rate[d] * f;
          double sum = load[t_res[d]];
          for (int32_t k = 0; k < threads; ++k) {
            sum += x;
          }
          load[t_res[d]] = sum;
        }
      }
    }
    // One (max, first-argmax) per tail, shared by every class of that
    // (job, socket), with the contention divide load/caps done inline and
    // only for oversubscribed entries: fl(load/caps) <= 1.0 otherwise,
    // which can never beat a merged scan whose running worst starts at
    // 1.0. Exact: tail entries come last in the reference's per-thread
    // demand order, and its scan is strict-> first-wins — the first tail
    // entry attaining the tail max is the only one that can update the
    // merged result.
    for (size_t js = 0; js < num_tails; ++js) {
      double mt = 0.0;
      int32_t arg = -1;
      for (int32_t d = t_off[js]; d < t_off[js + 1]; ++d) {
        const double ld = load[t_res[d]];
        const double cp = t_cap[d];
        if (ld > cp) {
          const double fr = ld / cp;
          if (fr > mt) {
            mt = fr;
            arg = t_res[d];
          }
        }
      }
      tail_max[js] = mt;
      tail_arg[js] = arg;
    }
    for (size_t j = 0; j < num_jobs; ++j) {
      const uint8_t* const mask = &s.job_core_mask[4 * j];
      const bool m0 = mask[0] != 0, m1 = mask[1] != 0, m2 = mask[2] != 0,
                 m3 = mask[3] != 0;
      const double b = s.job_b[j];
      const size_t tail_base = j * static_cast<size_t>(num_sockets);
      for (int32_t c = job_first_class[j]; c < job_first_class[j + 1]; ++c) {
        const int32_t group = class_group[c];
        const double* const gl = &group_load[kCorePlanes * group];
        const double* const c4 = &group_caps[kCorePlanes * group];
        double worst = 1.0;
        int worst_resource = -1;  // a core plane 0..3 or a tail resource
        // Contiguous any-oversubscribed check first; the full masked scan
        // (reference plane order, strict-> first-wins) only runs when some
        // plane is over capacity — in the common uncontended case this is
        // four compares on one cache line.
        if (gl[0] > c4[0] || gl[1] > c4[1] || gl[2] > c4[2] || gl[3] > c4[3]) {
          if (m0 && gl[0] > c4[0]) {
            const double fr = gl[0] / c4[0];
            if (fr > worst) {
              worst = fr;
              worst_resource = 0;
            }
          }
          if (m1 && gl[1] > c4[1]) {
            const double fr = gl[1] / c4[1];
            if (fr > worst) {
              worst = fr;
              worst_resource = 1;
            }
          }
          if (m2 && gl[2] > c4[2]) {
            const double fr = gl[2] / c4[2];
            if (fr > worst) {
              worst = fr;
              worst_resource = 2;
            }
          }
          if (m3 && gl[3] > c4[3]) {
            const double fr = gl[3] / c4[3];
            if (fr > worst) {
              worst = fr;
              worst_resource = 3;
            }
          }
        }
        const size_t js = tail_base + class_socket[c];
        if (tail_max[js] > worst) {
          worst = tail_max[js];
          worst_resource = tail_arg[js];
        }
        if (group_shared[group] != 0 && b > 0.0) {
          worst *= 1.0 + b * class_f[c];
        }
        s_resource[c] = worst;
        bottleneck[c] = worst_resource;
        s_overall[c] = worst;
      }
    }

    // Step 2: off-socket communication, within each job (§5.2). Single-
    // socket jobs are skipped: every term is exactly +0.0 (no remote peers,
    // remote_work cancels bitwise), so the reference's pass is the identity.
    // The work sums add one term per thread in thread order; the penalty
    // depends only on the class.
    if (any_comm) {
      for (size_t j = 0; j < num_jobs; ++j) {
        if (s.job_os[j] <= 0.0 || s.job_single_socket[j] != 0) {
          continue;
        }
        const int num_threads = s.job_num_threads[j];
        const double os = s.job_os[j];
        const double l = s.job_l[j];
        const double f_initial = s.job_f_initial[j];
        const size_t tail_base = j * static_cast<size_t>(num_sockets);
        double total_work = 0.0;
        std::fill_n(socket_work, num_sockets, 0.0);
        for (int32_t g = job_first_segment[j]; g < job_first_segment[j + 1]; ++g) {
          const int32_t c = segment_class[g];
          const double inv = 1.0 / s_overall[c];
          double work = socket_work[class_socket[c]];
          for (int32_t k = 0; k < segment_threads[g]; ++k) {
            total_work += inv;
            work += inv;
          }
          socket_work[class_socket[c]] = work;
        }
        for (int32_t c = job_first_class[j]; c < job_first_class[j + 1]; ++c) {
          const int socket = class_socket[c];
          const double lockstep =
              os * (num_threads - s.tail_threads[tail_base + socket]);
          const double remote_work = total_work - socket_work[socket];
          const double independent = num_threads * os * (remote_work / total_work);
          const double comm = l * independent + (1.0 - l) * lockstep;
          // The reference reads the step-1 utilization here; computing it in
          // place from the same operands yields the same bits.
          const double penalty = comm * (f_initial / s_overall[c]);
          comm_penalty[c] = penalty;
          s_overall[c] += penalty;
        }
      }
    }

    // Step 3: load balancing, within each job (§5.3). The global extrema of
    // the written slowdowns decide below whether the §5.4 clamp pass can do
    // anything.
    double global_max = 0.0;
    double global_min = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < num_jobs; ++j) {
      const double l = s.job_l[j];
      const int32_t first = job_first_class[j];
      const int32_t last = job_first_class[j + 1];
      double s_max = 0.0;
      for (int32_t c = first; c < last; ++c) {
        s_max = std::max(s_max, s_overall[c]);
      }
      const double pull = (1.0 - l) * s_max;
      for (int32_t c = first; c < last; ++c) {
        const double pulled = l * s_overall[c] + pull;
        balance_penalty[c] = pulled - s_overall[c];
        s_overall[c] = pulled;
        global_max = std::max(global_max, pulled);
        global_min = std::min(global_min, pulled);
      }
    }

    // §5.4: bounded by the first iteration's maximal slowdown. The pass
    // only runs when some slowdown actually falls outside [1, ceiling];
    // otherwise every clamp is the identity and skipping it is exact.
    if (iter == 0) {
      slowdown_ceiling = global_max;
    } else if (global_max > slowdown_ceiling || global_min < 1.0) {
      for (int32_t c = 0; c < num_classes; ++c) {
        s_overall[c] = std::clamp(s_overall[c], 1.0, slowdown_ceiling);
      }
    }

    // For the first iteration the previous state is the implicit all-ones
    // initial state (s_prev holds stale data then — it is never read), so
    // the delta is "distance moved this iteration" throughout; convergence
    // is still only declared from the second iteration on.
    const double worst_delta =
        MaxRelativeDelta(s_overall, iter == 0 ? nullptr : prev, num_classes);
    final_delta = worst_delta;
    converged = iter > 0 && worst_delta < options_.convergence_eps;
    const bool dampened = !converged && iter + 1 >= options_.dampen_after;
    if (trace != nullptr) {
      obs::PredictionIterationTrace iteration_trace;
      iteration_trace.iteration = iterations;
      iteration_trace.max_delta = worst_delta;
      iteration_trace.converged = converged;
      iteration_trace.dampened = dampened;
      iteration_trace.thread_slowdowns.reserve(n);
      iteration_trace.thread_bottlenecks.reserve(n);
      for (size_t j = 0; j < num_jobs; ++j) {
        ForEachThread(s, j, [&](int32_t core, int32_t, int32_t c) {
          iteration_trace.thread_slowdowns.push_back(s_overall[c]);
          iteration_trace.thread_bottlenecks.push_back(
              ThreadBottleneck(bottleneck[c], core, num_cores));
        });
      }
      trace->iterations.push_back(std::move(iteration_trace));
    }
    if (converged) {
      break;
    }

    // Elementwise with the uniform dampening branch hoisted, so both loop
    // versions auto-vectorize.
    for (size_t j = 0; j < num_jobs; ++j) {
      const double f_initial = s.job_f_initial[j];
      const int32_t first = job_first_class[j];
      const int32_t last = job_first_class[j + 1];
      if (!dampened) {
        for (int32_t c = first; c < last; ++c) {
          class_f[c] = f_initial * (s_resource[c] / s_overall[c]);
        }
      } else {
        for (int32_t c = first; c < last; ++c) {
          class_f[c] = 0.5 * (f_initial * (s_resource[c] / s_overall[c]) + class_f[c]);
        }
      }
    }
  }

  // Write each occupied core's planes, its group's, into the
  // ResourceIndex-ordered resource vector (tail entries accumulated there
  // directly), so `load` exports the full combined resource loads.
  for (int32_t i = 0; i < num_occupied; ++i) {
    const int32_t core = s.occupied_core[i];
    const double* const gl = &group_load[kCorePlanes * s.occupied_group[i]];
    for (int k = 0; k < kCorePlanes; ++k) {
      load[k * num_cores + core] = gl[k];
    }
  }

  if (trace != nullptr) {
    trace->converged = converged || !options_.iterate;
    trace->final_delta = final_delta;
  }
  {
    SolverMetrics& metrics = SolverMetrics::Get();
    metrics.predictions.Increment();
    metrics.total_iterations.Increment(static_cast<uint64_t>(iterations));
    ((converged || !options_.iterate) ? metrics.converged : metrics.non_converged)
        .Increment();
    metrics.iterations_histogram.Observe(static_cast<double>(iterations));
  }

  SolveOutcome outcome;
  outcome.iterations = iterations;
  outcome.converged = converged || !options_.iterate;
  outcome.final_delta = final_delta;
  return outcome;
}

double CoSchedulePredictor::SpeedupCeiling(const WorkloadDescription& workload,
                                           int threads) const {
  if (!options_.iterate || options_.max_iterations < 2) {
    return std::numeric_limits<double>::infinity();
  }
  const double p = workload.parallel_fraction;
  const double amdahl = 1.0 / ((1.0 - p) + p / threads);
  return amdahl * static_cast<double>(threads) / threads;
}

double CoSchedulePredictor::CapacityCeiling(const WorkloadDescription& workload,
                                            const Placement& placement,
                                            std::span<const uint8_t> occupancy) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (!options_.iterate || options_.max_iterations < 2) {
    return kInf;
  }
  PANDIA_CHECK(occupancy.size() == placement.PerCore().size());
  // Per-socket rows, grown on a thread's first call.
  struct Rows {
    std::vector<uint8_t> active;
    std::vector<double> bound;    // the socket's Σ u so far
    std::vector<double> weights;  // per active socket, its memory-node weights
  };
  static thread_local Rows rows;
  const int num_sockets = machine_.topo.num_sockets;
  const int cores_per_socket = machine_.topo.cores_per_socket;
  rows.active.resize(static_cast<size_t>(num_sockets));
  rows.bound.resize(static_cast<size_t>(num_sockets));
  rows.weights.resize(static_cast<size_t>(num_sockets) * num_sockets);
  uint8_t* const active = rows.active.data();
  double* const bound = rows.bound.data();

  // The solver's f_initial, by the same operations.
  const int threads = placement.TotalThreads();
  const double p = workload.parallel_fraction;
  const double f_initial = (1.0 / ((1.0 - p) + p / threads)) / threads;
  // §5.1's burstiness floor: at a fixed point a thread on a shared core has
  // s_overall >= 1 + b * f_initial, b as the solver applies it.
  const double burstiness =
      options_.model_burstiness && options_.max_iterations >= kFloorMinIterations
          ? workload.burstiness
          : 0.0;
  const double f_shared =
      burstiness > 0.0 ? f_initial / (1.0 + burstiness * f_initial) : f_initial;
  // A plane binds only where the workload's rate is positive, as in the
  // solver's bottleneck scan.
  const ResourceDemandVector& d = workload.demands;
  const auto capped = [](double bound_so_far, double cap, double rate) {
    return rate > 0.0 ? std::min(bound_so_far, cap / rate) : bound_so_far;
  };
  const double private_planes =
      capped(capped(capped(kInf, machine_.l1_bw, d.l1_bw), machine_.l2_bw, d.l2_bw),
             machine_.l3_port_bw, d.l3_bw);
  const double one_thread = capped(private_planes, machine_.core_ops, d.instr_rate);
  const double shared_core =
      capped(private_planes, machine_.smt_combined_ops, d.instr_rate);
  const double socket_planes = capped(kInf, machine_.l3_agg_bw, d.l3_bw);

  // Branch-free over the cores: an idle core adds min(0, cap) = +0.0, and
  // a placement's pattern of idle, single and shared cores is too irregular
  // to predict. The machine's occupancy, every job's threads, decides
  // whether a core is shared.
  const uint8_t* const per_core = placement.PerCore().data();
  const uint8_t* const occupied = occupancy.data();
  int home_socket = -1;
  for (int socket = 0; socket < num_sockets; ++socket) {
    double sum = 0.0;
    int on_socket = 0;
    for (int core = socket * cores_per_socket; core < (socket + 1) * cores_per_socket;
         ++core) {
      const int count = per_core[core];
      const bool shared = occupied[core] >= 2;
      on_socket += count;
      sum += std::min(count * (shared ? f_shared : f_initial),
                      shared ? shared_core : one_thread);
    }
    const bool used = on_socket > 0;
    active[socket] = used ? 1 : 0;
    bound[socket] = used ? std::min(sum, socket_planes) : 0.0;
    if (used && home_socket < 0) {
      home_socket = socket;
    }
  }
  const auto bounds_total = [&] {
    double sum = 0.0;
    for (int socket = 0; socket < num_sockets; ++socket) {
      sum += bound[socket];
    }
    return sum;
  };
  // Every memory-node weight is at most 1, so no DRAM node or link can
  // bind when the tightest of them admits the whole total at the full
  // dram_total rate: compute-bound workloads stop here.
  const double dram_total = d.dram_total_bw();
  const double total = bounds_total();
  const double tightest = num_sockets > 1 ? std::min(machine_.dram_bw, machine_.link_bw)
                                          : machine_.dram_bw;
  if (!(dram_total > 0.0) || home_socket < 0 || tightest / dram_total >= total) {
    return total;
  }

  // Each DRAM node and link is one constraint Σ_s rate(s) · U_s ≤ cap, U_s
  // being socket s's Σ u, over the sockets that send it traffic. The rates
  // are the solver's tail rates: dram_total × the memory-node weight.
  double* const weights = rows.weights.data();
  for (int socket = 0; socket < num_sockets; ++socket) {
    if (active[socket] != 0) {
      MemoryNodeWeightsInto(
          workload.memory_policy, num_sockets,
          std::span<const uint8_t>(active, static_cast<size_t>(num_sockets)), socket,
          home_socket,
          std::span<double>(weights + socket * num_sockets,
                            static_cast<size_t>(num_sockets)));
    }
  }
  const auto rate = [&](int from, int node) {
    return active[from] != 0 ? dram_total * weights[from * num_sockets + node] : 0.0;
  };
  // The first pass lets a constraint fed by one socket cap that socket. The
  // second, on those bounds, lets one fed by several cap their sum at cap
  // over their least rate, the other sockets adding their own bounds.
  double capped_total = total;
  double ceiling = total;
  const auto constrain = [&](bool first_pass, double cap, const auto& rate_from) {
    int senders = 0;
    int sender = -1;
    double sum = 0.0;
    double least_rate = kInf;
    for (int socket = 0; socket < num_sockets; ++socket) {
      const double r = rate_from(socket);
      if (r > 0.0) {
        ++senders;
        sender = socket;
        sum += bound[socket];
        least_rate = std::min(least_rate, r);
      }
    }
    if (first_pass && senders == 1) {
      bound[sender] = std::min(bound[sender], cap / least_rate);
    } else if (!first_pass && senders >= 2) {
      ceiling =
          std::min(ceiling, (capped_total - sum) + std::min(sum, cap / least_rate));
    }
  };
  for (const bool first_pass : {true, false}) {
    if (!first_pass) {
      capped_total = bounds_total();
      ceiling = capped_total;
    }
    for (int node = 0; node < num_sockets; ++node) {
      constrain(first_pass, machine_.dram_bw, [&](int from) { return rate(from, node); });
    }
    for (int a = 0; a < num_sockets; ++a) {
      for (int b = a + 1; b < num_sockets; ++b) {
        constrain(first_pass, machine_.link_bw, [&](int from) {
          return from == a ? rate(a, b) : from == b ? rate(b, a) : 0.0;
        });
      }
    }
  }
  return ceiling;
}


// --- Final per-job predictions (§5.5) ---
void CoSchedulePredictor::AssembleJob(size_t j, const SolverScratch& s,
                                      const SolveOutcome& outcome, double t1,
                                      Prediction* out) const {
  out->amdahl_speedup = s.job_amdahl[j];
  const int num_threads = s.job_num_threads[j];
  const int num_cores = machine_.topo.NumCores();
  // The final thread-utilization factor f_initial / s_overall is computed
  // here rather than in the solver loop: the reference recomputes it after
  // every step, but every intermediate write is either consumed in step 2
  // (recomputed inline there from the same operands) or overwritten, and
  // s_overall does not change after the reference's last write on any exit
  // path. The harmonic sum adds one term per thread, in thread order.
  const double f_initial = s.job_f_initial[j];
  double harmonic = 0.0;
  out->threads.resize(static_cast<size_t>(num_threads));
  ThreadPrediction* tp = out->threads.data();
  ForEachThread(s, j, [&](int32_t core, int32_t slot, int32_t c) {
    harmonic += 1.0 / s.s_overall[c];
    tp->location = ThreadLocation{s.class_socket[c], core, slot};
    tp->resource_slowdown = s.s_resource[c];
    tp->comm_penalty = s.comm_penalty[c];
    tp->balance_penalty = s.balance_penalty[c];
    tp->overall_slowdown = s.s_overall[c];
    tp->utilization = f_initial / s.s_overall[c];
    tp->bottleneck = ThreadBottleneck(s.bottleneck[c], core, num_cores);
    ++tp;
  });
  out->speedup = s.job_amdahl[j] * harmonic / num_threads;
  out->time = t1 / out->speedup;
  out->iterations = outcome.iterations;
  out->converged = outcome.converged;
  out->final_delta = outcome.final_delta;
}

}  // namespace pandia
