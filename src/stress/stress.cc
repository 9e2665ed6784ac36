#include "src/stress/stress.h"

#include <vector>

namespace pandia {
namespace stress {
namespace {

// Stressors are embarrassingly parallel streaming loops: fully parallel, no
// barriers, no cross-thread communication, smooth demand.
sim::WorkloadSpec BaseStressor(const char* name) {
  sim::WorkloadSpec spec;
  spec.name = name;
  spec.total_work = 100.0;
  spec.parallel_fraction = 1.0;
  spec.balance = sim::BalanceMode::kDynamic;
  spec.chunk_fraction = 0.0;
  spec.ops_per_work = 1.0;
  spec.l1_bpw = 0.0;
  spec.l2_bpw = 0.0;
  spec.l3_bpw = 0.0;
  spec.dram_bpw = 0.0;
  spec.duty_cycle = 1.0;
  spec.memory_policy = MemoryPolicy::kLocal;
  return spec;
}

}  // namespace

sim::WorkloadSpec CpuStressor() {
  sim::WorkloadSpec spec = BaseStressor("stress.cpu");
  // Unrolled independent integer ops; the dataset sits in L1. Even a tuned
  // loop leaves some issue width unused, so an SMT sibling gains throughput.
  spec.ops_per_work = 1.0;
  spec.l1_bpw = 2.0;
  spec.single_thread_ipc = 0.75;
  return spec;
}

sim::WorkloadSpec L1Stressor() {
  sim::WorkloadSpec spec = BaseStressor("stress.l1");
  // One 64-byte line per couple of instructions.
  spec.ops_per_work = 2.0;
  spec.l1_bpw = 64.0;
  return spec;
}

sim::WorkloadSpec L2Stressor() {
  sim::WorkloadSpec spec = BaseStressor("stress.l2");
  spec.ops_per_work = 2.0;
  spec.l1_bpw = 64.0;  // fills transit the L1
  spec.l2_bpw = 64.0;
  return spec;
}

sim::WorkloadSpec L3Stressor() {
  sim::WorkloadSpec spec = BaseStressor("stress.l3");
  spec.ops_per_work = 2.0;
  spec.l1_bpw = 64.0;
  spec.l2_bpw = 64.0;
  spec.l3_bpw = 64.0;
  return spec;
}

sim::WorkloadSpec DramStressor() {
  sim::WorkloadSpec spec = BaseStressor("stress.dram");
  // Address generation and limited MLP cap a single thread's streaming rate
  // well below the channel bandwidth; several cores saturate the channel.
  spec.ops_per_work = 36.0;
  spec.l1_bpw = 64.0;
  spec.l2_bpw = 64.0;
  spec.l3_bpw = 64.0;
  spec.dram_bpw = 64.0;
  spec.memory_policy = MemoryPolicy::kLocal;
  return spec;
}

sim::WorkloadSpec RemoteDramStressor(int home_socket) {
  sim::WorkloadSpec spec = DramStressor();
  spec.name = "stress.remote-dram";
  spec.memory_policy = MemoryPolicy::kHomeSocket;
  spec.home_socket = home_socket;
  return spec;
}

sim::WorkloadSpec BackgroundFiller() {
  sim::WorkloadSpec spec = BaseStressor("stress.filler");
  spec.ops_per_work = 1.0;
  spec.l1_bpw = 0.0;
  return spec;
}

std::optional<Placement> FillerPlacement(const MachineTopology& topo,
                                         std::span<const Placement> occupied) {
  std::vector<uint8_t> per_core(static_cast<size_t>(topo.NumCores()), 1);
  int free_cores = topo.NumCores();
  for (const Placement& placement : occupied) {
    for (int c = 0; c < topo.NumCores(); ++c) {
      if (placement.ThreadsOnCore(c) > 0 && per_core[c] > 0) {
        per_core[c] = 0;
        --free_cores;
      }
    }
  }
  if (free_cores == 0) {
    return std::nullopt;
  }
  return Placement(topo, std::move(per_core));
}

sim::RunResult RunFilled(const sim::Machine& machine,
                         std::span<const sim::JobRequest> jobs, uint64_t fault_nonce) {
  std::vector<Placement> occupied;
  occupied.reserve(jobs.size());
  for (const sim::JobRequest& job : jobs) {
    occupied.push_back(job.placement);
  }
  const std::optional<Placement> filler_placement =
      FillerPlacement(machine.topology(), occupied);
  if (!filler_placement.has_value()) {
    return machine.Run(jobs, fault_nonce);
  }
  const sim::WorkloadSpec filler = BackgroundFiller();
  std::vector<sim::JobRequest> filled(jobs.begin(), jobs.end());
  filled.push_back(sim::JobRequest{&filler, *filler_placement, /*background=*/true});
  return machine.Run(filled, fault_nonce);
}

}  // namespace stress
}  // namespace pandia
