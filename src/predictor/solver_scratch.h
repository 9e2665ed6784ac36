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
// Layout: a thread's demand list factors into a fixed-width per-core part
// (core issue + L1 + L2 + L3 port, rates shared by every thread of the
// job) and a per-(job, socket) "tail" (L3 aggregate + DRAM + interconnect
// entries, identical for all of the job's threads on that socket). The
// tails are a small CSR structure-of-arrays (tail_offset / tail_res /
// tail_rate) built once per solve, so the iteration loop walks flat
// contiguous arrays and shares the tail work across threads. The previous
// iteration's slowdowns live in a second buffer (s_prev) that is swapped —
// not copied — with s_overall at the top of each iteration.
//
// Lifetime rules: a SolverScratch may be reused across solves of any shape
// and any CoSchedulePredictor, but never concurrently — callers either own
// one per thread or use the solver's built-in thread-local arena (the
// default Predict path). Contents are meaningless between calls; only
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
  // --- per-thread state (SoA) ---
  std::vector<int32_t> thread_socket;
  std::vector<int32_t> thread_core;
  std::vector<int32_t> thread_slot;
  std::vector<int32_t> remote_peers;
  std::vector<double> f_start;
  std::vector<double> s_overall;
  std::vector<double> s_prev;  // last iteration's s_overall (swapped, not copied)
  std::vector<double> s_resource;
  std::vector<double> comm_penalty;
  std::vector<double> balance_penalty;
  std::vector<int> bottleneck;

  // --- per-job state (SoA) ---
  std::vector<int32_t> job_first_thread;
  std::vector<int32_t> job_num_threads;
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
  // Per-iteration max contention factor (and its resource) within each
  // tail, shared by all threads of that (job, socket).
  std::vector<double> tail_max;
  std::vector<int32_t> tail_arg;

  // --- per-resource / per-core / per-socket ---
  // The four per-core planes (core issue, L1, L2, L3 port) accumulate in a
  // core-major mirror (core_load[4 * core + k], with caps4 mirroring the
  // matching capacities) so a thread's per-core demand occupies one
  // contiguous 32-byte block — the accumulate / zero / scan loops touch one
  // cache line per core instead of four plane-strided ones. The socket-level
  // tail entries accumulate directly in `load` (ResourceIndex order), and
  // the core planes are scattered back into `load` once per solve, so
  // `load` still exports the full resource vector.
  std::vector<double> load;
  std::vector<double> core_load;
  std::vector<double> caps;
  std::vector<double> caps4;
  std::vector<uint8_t> combined_per_core;
  std::vector<double> socket_work;
  std::vector<uint8_t> active_sockets;      // current job's active-socket flags
  std::vector<int32_t> job_socket_threads;  // current job's threads per socket

  // Distinct tail resources referenced by any demand entry (indices into
  // `load`), plus the occupied cores (indices into `core_load` / `load`'s
  // core planes; may repeat a core once per job sharing it). Iterations
  // zero and refresh only these instead of sweeping the full resource
  // vector. resource_seen holds the epoch of the last solve that touched
  // the tail entry, so no per-solve clear is needed.
  std::vector<int32_t> resource_touched;
  std::vector<int32_t> touched_cores;
  std::vector<uint32_t> resource_seen;
  uint32_t seen_epoch = 0;
  int32_t num_touched = 0;
  int32_t num_touched_cores = 0;
  // True while comm_penalty is known to be all-zero (resizing preserves
  // this: shrink keeps the zero prefix, growth value-initializes).
  bool comm_penalty_zeroed = false;

  // Row buffer for MemoryNodeWeightsInto (num_sockets entries).
  std::vector<double> memory_weights;

  // Capacity memo key: the caps vector is a pure function of the topology
  // dims, the eight capacity scalars, and the per-core SMT mask. When all
  // of these match the previous solve, CapacitiesInto is skipped.
  std::vector<uint8_t> caps_key_mask;
  double caps_key_scalars[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  int32_t caps_key_dims[3] = {-1, -1, -1};

  // Job input pointers for the multi-request entry point.
  std::vector<SolverJobRef> job_refs;

  // Shape of the last solve. When it matches, the per-solve sizing pass is
  // skipped entirely.
  int64_t shape_jobs = -1;
  int64_t shape_threads = -1;
  int64_t shape_cores = -1;
  int64_t shape_sockets = -1;
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
