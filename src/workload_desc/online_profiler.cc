#include "src/workload_desc/online_profiler.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/workload_desc/profiler.h"

namespace pandia {
namespace {

enum class EpochKind {
  kSingle,       // one thread
  kParallel,     // one socket, one per core, contention-free
  kCrossSocket,  // even one-per-core split over two sockets
  kSmt,          // one socket, every core doubled
  kOther,
};

EpochKind Classify(const Placement& placement) {
  if (placement.TotalThreads() == 1) {
    return EpochKind::kSingle;
  }
  int active = 0;
  int singles = 0;
  int doubles = 0;
  int most = 0;  // threads on the busiest socket
  for (const SocketLoad& load : placement.SocketLoads()) {
    active += load.Threads() > 0 ? 1 : 0;
    singles += load.singles;
    doubles += load.doubles;
    most = std::max(most, load.Threads());
  }
  if (active == 1 && doubles == 0) {
    return EpochKind::kParallel;
  }
  if (active == 1 && singles == 0 && doubles >= 1) {
    return EpochKind::kSmt;
  }
  // Even split over exactly two sockets.
  if (active == 2 && doubles == 0 && 2 * most == singles) {
    return EpochKind::kCrossSocket;
  }
  return EpochKind::kOther;
}

}  // namespace

OnlineProfiler::OnlineProfiler(MachineDescription machine, std::string workload_name,
                               MemoryPolicy policy)
    : machine_(std::move(machine)) {
  description_.workload = std::move(workload_name);
  description_.machine = machine_.topo.name;
  description_.memory_policy = policy;
  description_.load_balance = 0.5;  // unobservable without perturbation
}

bool OnlineProfiler::Observe(const EpochObservation& epoch) {
  PANDIA_CHECK(epoch.time > 0.0);
  switch (Classify(epoch.placement)) {
    case EpochKind::kSingle: {
      description_.t1 = Refine(description_.t1, epoch.time, epochs_single_);
      const ResourceDemandVector& sample = epoch.demands;
      ResourceDemandVector& d = description_.demands;
      d.instr_rate = Refine(d.instr_rate, sample.instr_rate, epochs_single_);
      d.l1_bw = Refine(d.l1_bw, sample.l1_bw, epochs_single_);
      d.l2_bw = Refine(d.l2_bw, sample.l2_bw, epochs_single_);
      d.l3_bw = Refine(d.l3_bw, sample.l3_bw, epochs_single_);
      d.dram_local_bw = Refine(d.dram_local_bw, sample.dram_local_bw, epochs_single_);
      d.dram_remote_bw =
          Refine(d.dram_remote_bw, sample.dram_remote_bw, epochs_single_);
      ++epochs_single_;
      return true;
    }
    case EpochKind::kParallel: {
      if (!demands_known()) {
        return false;  // needs t1 first (§4 step ordering)
      }
      if (!ContentionFree(ContentionProbe(machine_, description_), epoch.placement)) {
        return false;  // a contended epoch would contaminate Amdahl's law
      }
      const double p = std::clamp(RawParallelFraction(epoch.time / description_.t1,
                                                      epoch.placement.TotalThreads()),
                                  0.0, 1.0);
      description_.parallel_fraction =
          Refine(parallel_fraction_known() ? description_.parallel_fraction : 0.0, p,
                 epochs_parallel_);
      ++epochs_parallel_;
      return true;
    }
    case EpochKind::kCrossSocket: {
      if (!demands_known() || !parallel_fraction_known()) {
        return false;
      }
      WorkloadDescription base = description_;
      base.inter_socket_overhead = 0.0;
      const double os = std::max(
          0.0, RawInterSocketOverhead(epoch.time / description_.t1,
                                      PredictPartial(machine_, base, epoch.placement),
                                      epoch.placement.TotalThreads()));
      description_.inter_socket_overhead =
          Refine(inter_socket_overhead_known() ? description_.inter_socket_overhead
                                               : 0.0,
                 os, epochs_cross_socket_);
      ++epochs_cross_socket_;
      return true;
    }
    case EpochKind::kSmt: {
      if (!demands_known() || !parallel_fraction_known()) {
        return false;
      }
      WorkloadDescription base = description_;
      base.burstiness = 0.0;
      // Reference: the Amdahl time for n threads (an online runtime has no
      // dedicated contention-free run 2 at this thread count).
      const double p = description_.parallel_fraction;
      const double amdahl_time = (1.0 - p) + p / epoch.placement.TotalThreads();
      const double b = std::max(
          0.0, RawBurstiness(epoch.time / description_.t1,
                             PredictPartial(machine_, base, epoch.placement), amdahl_time));
      description_.burstiness =
          Refine(burstiness_known() ? description_.burstiness : 0.0, b, epochs_smt_);
      ++epochs_smt_;
      return true;
    }
    case EpochKind::kOther:
      return false;
  }
  return false;
}

std::optional<Placement> OnlineProfiler::SuggestNextProbe() const {
  const MachineTopology& topo = machine_.topo;
  if (!demands_known()) {
    return Placement::OnePerCore(topo, 1);
  }
  const int n2 = ProfileThreads(machine_, description_);
  if (!parallel_fraction_known()) {
    return Placement::OnePerCore(topo, n2);
  }
  if (!inter_socket_overhead_known() && topo.num_sockets >= 2) {
    return CrossSocketPlacement(topo, n2);
  }
  if (!burstiness_known() && topo.threads_per_core >= 2) {
    return PackedPlacement(topo, n2);
  }
  return std::nullopt;
}

bool OnlineProfiler::ObserveRun(const sim::Machine& machine,
                                const sim::WorkloadSpec& workload,
                                const Placement& placement) {
  // No filler: a runtime sees its epochs as they run.
  const sim::RunResult result = machine.RunOne(workload, placement);
  EpochObservation epoch{placement};
  epoch.time = result.jobs.front().completion_time;
  epoch.demands = MeasuredDemands(machine, result, placement);
  return Observe(epoch);
}

}  // namespace pandia
