#include "src/workload_desc/online_profiler.h"

#include <algorithm>
#include <cmath>

#include "src/predictor/predictor.h"
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
  const std::vector<SocketLoad> loads = placement.SocketLoads();
  int active = 0;
  int singles = 0;
  int doubles = 0;
  for (const SocketLoad& load : loads) {
    active += load.Threads() > 0 ? 1 : 0;
    singles += load.singles;
    doubles += load.doubles;
  }
  if (active == 1 && doubles == 0) {
    return EpochKind::kParallel;
  }
  if (active == 1 && singles == 0 && doubles >= 1) {
    return EpochKind::kSmt;
  }
  if (active == 2 && doubles == 0) {
    // Even split over exactly two sockets.
    std::vector<int> counts;
    for (const SocketLoad& load : loads) {
      if (load.Threads() > 0) {
        counts.push_back(load.Threads());
      }
    }
    if (std::abs(counts[0] - counts[1]) <= 0) {
      return EpochKind::kCrossSocket;
    }
  }
  return EpochKind::kOther;
}

// Predicted relative time, contention-only slowdown, and utilization under
// the partial description (as in the offline profiler's k_x factors).
struct Partial {
  double k = 1.0;
  double k_slowdown = 1.0;
  double f = 1.0;
};

Partial PredictPartial(const MachineDescription& machine,
                       const WorkloadDescription& description,
                       const Placement& placement) {
  const Predictor predictor(machine, description);
  const Prediction prediction = predictor.Predict(placement);
  return Partial{1.0 / prediction.speedup,
                 prediction.amdahl_speedup / prediction.speedup,
                 prediction.threads.front().utilization};
}

}  // namespace

OnlineProfiler::OnlineProfiler(MachineDescription machine, std::string workload_name,
                               MemoryPolicy policy)
    : machine_(std::move(machine)) {
  description_.workload = std::move(workload_name);
  description_.machine = machine_.topo.name;
  description_.memory_policy = policy;
  description_.load_balance = 0.5;  // unobservable without perturbation
  description_.inter_socket_overhead = 0.0;
  description_.burstiness = 0.0;
}

bool OnlineProfiler::Observe(const EpochObservation& epoch) {
  PANDIA_CHECK(epoch.time > 0.0);
  switch (Classify(epoch.placement)) {
    case EpochKind::kSingle: {
      description_.t1 = Refine(description_.t1, epoch.time, epochs_single_);
      ResourceDemandVector sample;
      sample.instr_rate = epoch.instructions / epoch.time;
      sample.l1_bw = epoch.l1_bytes / epoch.time;
      sample.l2_bw = epoch.l2_bytes / epoch.time;
      sample.l3_bw = epoch.l3_bytes / epoch.time;
      sample.dram_local_bw = epoch.dram_local_bytes / epoch.time;
      sample.dram_remote_bw = epoch.dram_remote_bytes / epoch.time;
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
      const int n = epoch.placement.TotalThreads();
      const double u2 = epoch.time / description_.t1;
      const double p = std::clamp((1.0 - u2) / (1.0 - 1.0 / n), 0.0, 1.0);
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
      const Partial partial = PredictPartial(machine_, base, epoch.placement);
      const double u3 = epoch.time / description_.t1 / partial.k;
      const int n = epoch.placement.TotalThreads();
      const double os = std::max(0.0, (u3 - 1.0) * partial.f / (n / 2.0));
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
      const Partial partial = PredictPartial(machine_, base, epoch.placement);
      const int n = epoch.placement.TotalThreads();
      // Reference: the Amdahl time for n threads (an online runtime has no
      // dedicated contention-free run 2 at this thread count).
      const double p = description_.parallel_fraction;
      const double amdahl_time = (1.0 - p) + p / n;
      const double u6 = epoch.time / description_.t1 / partial.k_slowdown;
      const double b = std::max(0.0, (u6 / amdahl_time - 1.0) / partial.f);
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
  // Largest even same-socket one-per-core count that stays contention-free
  // (mirrors the offline profiler's run-2 choice).
  const Predictor probe = ContentionProbe(machine_, description_);
  int n2 = 2;
  for (int n = 2; n <= topo.cores_per_socket; n += 2) {
    if (!ContentionFree(probe, Placement::OnePerCore(topo, n))) {
      break;
    }
    n2 = n;
  }
  if (!parallel_fraction_known()) {
    return Placement::OnePerCore(topo, n2);
  }
  if (!inter_socket_overhead_known() && topo.num_sockets >= 2) {
    std::vector<SocketLoad> loads(static_cast<size_t>(topo.num_sockets));
    loads[0] = SocketLoad{n2 / 2, 0};
    loads[1] = SocketLoad{n2 / 2, 0};
    return Placement::FromSocketLoads(topo, loads);
  }
  if (!burstiness_known() && topo.threads_per_core >= 2) {
    std::vector<SocketLoad> loads(static_cast<size_t>(topo.num_sockets));
    loads[0] = SocketLoad{0, n2 / 2};
    return Placement::FromSocketLoads(topo, loads);
  }
  return std::nullopt;
}

bool OnlineProfiler::ObserveRun(const sim::Machine& machine,
                                const sim::WorkloadSpec& workload,
                                const Placement& placement) {
  const sim::RunResult result = machine.RunOne(workload, placement);
  const CounterView view(machine, result, 0);
  EpochObservation epoch{placement};
  epoch.time = view.CompletionTime();
  epoch.instructions = view.Instructions();
  epoch.l1_bytes = view.L1Bytes();
  epoch.l2_bytes = view.L2Bytes();
  epoch.l3_bytes = view.L3Bytes();
  const int home = placement.ThreadLocations().front().socket;
  epoch.dram_local_bytes = view.DramBytesOnNode(home);
  double remote = 0.0;
  for (int s = 0; s < machine.topology().num_sockets; ++s) {
    if (s != home) {
      remote += view.DramBytesOnNode(s);
    }
  }
  epoch.dram_remote_bytes = remote;
  return Observe(epoch);
}

}  // namespace pandia
