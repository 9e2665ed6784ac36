// Reusable solver state for the co-scheduling predictor's hot path.
//
// One CoSchedulePredictor::Predict call needs roughly a dozen working
// arrays whose sizes depend only on the problem shape (threads, jobs,
// resources, sockets, cores). Allocating them per call dominated the cost
// of a single prediction, so the solver keeps them in a SolverScratch arena
// instead: every buffer is resized (grow-only in capacity) at the top of a
// solve and reused across calls. After the first solve of a given shape, a
// solve performs zero heap allocations inside the solver loop — only the
// returned Prediction owns freshly allocated vectors.
//
// Layout: the solver iterates over thread classes, not threads. A class is
// the threads of one job on one socket whose cores hold the same threads
// (the same count of every job); they see the same loads, capacities,
// demand tails and penalties at every iteration, so each class keeps one
// utilization, one set of slowdowns and penalties, and one bottleneck
// plane. Cores with the same composition on one socket form a core group,
// whose four per-core planes (core issue + L1 + L2 + L3 port) are
// accumulated once. A thread's socket-level demand is a per-(job, socket)
// "tail" (L3 aggregate + DRAM + interconnect entries), a small CSR
// structure-of-arrays (tail_offset / tail_res / tail_rate / tail_cap)
// built once per solve. The sums whose rounding depends on thread order —
// each tail resource's load, step 2's work sums and the final harmonic sum
// — still add one term per thread in thread order, walking segments (runs
// of consecutive threads of one class). The previous iteration's slowdowns
// live in a second buffer (s_prev) that is swapped — not copied — with
// s_overall at the top of each iteration.
//
// Lifetime rules: a SolverScratch may be reused across solves of any shape
// and any CoSchedulePredictor, but never concurrently — callers either own
// one per thread or use the solver's built-in thread-local arena (the
// default Predict path). Contents are meaningless between calls, apart
// from the counts of the last solve (num_classes and the rest below); only
// capacity is retained.
#ifndef PANDIA_SRC_PREDICTOR_SOLVER_SCRATCH_H_
#define PANDIA_SRC_PREDICTOR_SOLVER_SCRATCH_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pandia {

struct WorkloadDescription;
class Placement;

// One job's inputs by pointer — the solver core reads (workload, placement)
// pairs through these so single-job callers can pass a stack array instead
// of materializing a CoScheduleRequest (whose by-value Placement would cost
// an allocation per call).
struct SolverJobRef {
  const WorkloadDescription* workload = nullptr;
  const Placement* placement = nullptr;
};

struct SolverScratch {
  // --- per-class state (SoA), classes job-major ---
  std::vector<int32_t> class_socket;
  std::vector<int32_t> class_group;
  std::vector<int32_t> class_core_threads;  // the job's threads on each core
  std::vector<uint8_t> class_opens_group;   // the group's first class
  std::vector<double> class_f;              // utilization fed to step 1
  std::vector<double> s_overall;
  std::vector<double> s_prev;  // last iteration's s_overall (swapped, not copied)
  std::vector<double> s_resource;
  std::vector<double> comm_penalty;
  std::vector<double> balance_penalty;
  // Core plane 0..3 (the resource is plane * num_cores + the thread's
  // core), a tail resource (>= 4 * num_cores), or -1.
  std::vector<int> bottleneck;

  // --- thread order ---
  // The cores each job occupies, job-major and in core order, with their
  // socket and the class of that job's threads there; job j's run starts
  // at job_first_touch[j]. A core shared by jobs appears once per job.
  std::vector<int32_t> touched_cores;
  std::vector<int32_t> touched_socket;
  std::vector<int32_t> touched_class;
  // Maximal runs of consecutive threads of one class, in thread order.
  std::vector<int32_t> segment_class;
  std::vector<int32_t> segment_threads;

  // --- per-job state (SoA); the three CSR offsets have num_jobs + 1 ---
  std::vector<int32_t> job_num_threads;
  std::vector<int32_t> job_first_touch;
  std::vector<int32_t> job_first_class;
  std::vector<int32_t> job_first_segment;
  std::vector<double> job_amdahl;
  std::vector<double> job_f_initial;
  std::vector<double> job_os;
  std::vector<double> job_l;
  std::vector<double> job_b;
  std::vector<uint8_t> job_single_socket;  // per job: all threads on one socket
  // Per-core demand rates {instr, l1, l2, l3}, 4 per job, plus 0/1 flags for
  // which of the four are > 0 (zero-rate entries must not join the
  // bottleneck scan: the resource may be oversubscribed by another job).
  std::vector<double> job_core_rates;
  std::vector<uint8_t> job_core_mask;

  // Per-(job, socket) demand tails: the socket-dependent entries (L3
  // aggregate, DRAM channels, interconnect links) shared by every thread of
  // job j on socket s. CSR over the flattened (job, socket) index.
  std::vector<int32_t> tail_offset;  // size num_jobs * num_sockets + 1
  std::vector<int32_t> tail_res;
  std::vector<double> tail_rate;
  std::vector<double> tail_cap;
  std::vector<int32_t> tail_threads;  // job j's threads on socket s
  // Per-iteration max contention factor (and its resource) within each
  // tail, shared by all classes of that (job, socket).
  std::vector<double> tail_max;
  std::vector<int32_t> tail_arg;

  // --- core groups: one socket's cores of one composition ---
  // The four per-core planes accumulate per group, core-major
  // (group_load[4 * group + k], group_caps alike), and are written into
  // `load` for each occupied core once per solve, so `load` still exports
  // the full resource vector. The tail entries accumulate in `load`
  // directly (ResourceIndex order).
  std::vector<double> group_load;
  std::vector<double> group_caps;
  std::vector<uint8_t> group_shared;  // the group's cores hold >= 2 threads
  std::vector<int32_t> class_of_group;  // latest class per group, while built
  // The occupied cores, each once and in core order, with their group.
  // Refinement computes the group: starting from the core's socket, job by
  // job, (group so far, that job's count on the core) maps to a new dense
  // id through refine_next.
  std::vector<int32_t> occupied_core;
  std::vector<int32_t> occupied_group;
  std::vector<int32_t> core_group;  // per core, valid for occupied cores
  std::vector<int32_t> refine_next;

  // --- per-resource / per-socket ---
  std::vector<double> load;
  // Every job's threads per core, for joint solves (a solo job's placement
  // serves as is).
  std::vector<uint8_t> combined_per_core;
  std::vector<double> socket_work;
  std::vector<uint8_t> active_sockets;  // current job's active-socket flags

  // Distinct tail resources referenced by any demand entry (indices into
  // `load`). Iterations zero and refresh only these instead of sweeping the
  // full resource vector, and the next solve zeroes them and the occupied
  // cores' planes. resource_seen holds the epoch of the last solve that
  // touched the tail entry, so no per-solve clear is needed.
  std::vector<int32_t> resource_touched;
  std::vector<uint32_t> resource_seen;
  uint32_t seen_epoch = 0;
  int32_t num_touched = 0;

  // Counts of the last solve.
  int32_t num_occupied = 0;
  int32_t num_groups = 0;
  int32_t num_classes = 0;
  int32_t num_segments = 0;

  // Row buffer for MemoryNodeWeightsInto (num_sockets entries).
  std::vector<double> memory_weights;

  // Job input pointers for the multi-request entry point.
  std::vector<SolverJobRef> job_refs;

  // Shape of the last solve. When it matches, the per-solve sizing pass is
  // skipped entirely.
  int64_t shape_jobs = -1;
  int64_t shape_threads = -1;
  int64_t shape_cores = -1;
  int64_t shape_sockets = -1;
  int64_t shape_threads_per_core = -1;
  int64_t shape_resources = -1;

  // Incremented whenever any buffer's capacity grows. Steady-state solves of
  // a shape already seen leave it unchanged — the zero-allocation property
  // the equivalence tests pin down.
  uint64_t grow_events = 0;

  // Grows `v` to exactly `n` elements, counting capacity growth.
  template <typename T>
  void Size(std::vector<T>& v, std::size_t n) {
    if (v.size() == n) {
      return;
    }
    if (v.capacity() < n) {
      ++grow_events;
    }
    v.resize(n);
  }
};

}  // namespace pandia

#endif  // PANDIA_SRC_PREDICTOR_SOLVER_SCRATCH_H_
