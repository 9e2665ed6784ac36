#include "src/machine_desc/generator.h"

#include <vector>

#include "src/counters/counters.h"
#include "src/stress/stress.h"
#include "src/util/check.h"

namespace pandia {
namespace {

// Runs `stressor` under `placement` with idle cores background-filled and
// returns the counter view of the stressor job (index 0). The RunResult is
// returned through `result` to keep the view valid.
CounterView MeasureRun(const sim::Machine& machine, const sim::WorkloadSpec& stressor,
                       const Placement& placement, sim::RunResult& result) {
  const sim::JobRequest job{&stressor, placement, /*background=*/false};
  result = stress::RunFilled(machine, std::span(&job, 1));
  return CounterView(machine, result, /*job_index=*/0);
}

}  // namespace

MachineDescription GenerateMachineDescription(const sim::Machine& machine) {
  const MachineTopology& topo = machine.topology();
  const ResourceIndex& index = machine.index();

  MachineDescription desc;
  desc.topo = topo;

  sim::RunResult result;

  // Peak core instruction rate: one CPU-stressor thread on core 0.
  {
    const sim::WorkloadSpec cpu = stress::CpuStressor();
    const CounterView view =
        MeasureRun(machine, cpu, Placement::OnePerCore(topo, 1), result);
    desc.core_ops = view.Instructions() / view.CompletionTime();
  }

  // SMT co-run loss: two CPU-stressor threads sharing core 0 (§3.2).
  if (topo.threads_per_core >= 2) {
    const sim::WorkloadSpec cpu = stress::CpuStressor();
    const CounterView view =
        MeasureRun(machine, cpu, Placement::TwoPerCore(topo, 2), result);
    desc.smt_combined_ops = view.Instructions() / view.CompletionTime();
  } else {
    desc.smt_combined_ops = desc.core_ops;
  }

  // Private-cache link bandwidths: one streaming thread on core 0.
  {
    const sim::WorkloadSpec l1 = stress::L1Stressor();
    const CounterView view =
        MeasureRun(machine, l1, Placement::OnePerCore(topo, 1), result);
    desc.l1_bw = view.L1Bytes() / view.CompletionTime();
  }
  {
    const sim::WorkloadSpec l2 = stress::L2Stressor();
    const CounterView view =
        MeasureRun(machine, l2, Placement::OnePerCore(topo, 1), result);
    desc.l2_bw = view.L2Bytes() / view.CompletionTime();
  }
  {
    const sim::WorkloadSpec l3 = stress::L3Stressor();
    const CounterView view =
        MeasureRun(machine, l3, Placement::OnePerCore(topo, 1), result);
    desc.l3_port_bw = view.L3Bytes() / view.CompletionTime();
  }

  // Aggregate L3 bandwidth: every core of socket 0 streaming at once. The
  // per-core port limit and the aggregate limit are both part of the
  // description (§3.1's 360-per-core / 5000-aggregate example).
  {
    const sim::WorkloadSpec l3 = stress::L3Stressor();
    const CounterView view = MeasureRun(
        machine, l3, Placement::OnePerCore(topo, topo.cores_per_socket), result);
    const double observed =
        view.ResourceConsumption(index.L3Agg(0)) / view.CompletionTime();
    // The cache cannot deliver more than its ports can request.
    desc.l3_agg_bw = observed;
  }

  // Memory channel bandwidth: every core of socket 0 streaming from local
  // memory (array >= 100x LLC, numactl-bound local).
  {
    const sim::WorkloadSpec dram = stress::DramStressor();
    const CounterView view = MeasureRun(
        machine, dram, Placement::OnePerCore(topo, topo.cores_per_socket), result);
    desc.dram_bw = view.ResourceConsumption(index.Dram(0)) / view.CompletionTime();
  }

  // Interconnect link bandwidth: every core of socket 1 streaming from
  // socket 0's memory; all traffic crosses link 0-1. Homogeneous
  // interconnect assumed (§2.2), so one link stands for all.
  if (topo.num_sockets >= 2) {
    const sim::WorkloadSpec remote = stress::RemoteDramStressor(/*home_socket=*/0);
    std::vector<SocketLoad> loads(static_cast<size_t>(topo.num_sockets));
    loads[1] = SocketLoad{topo.cores_per_socket, 0};
    const Placement placement = Placement::FromSocketLoads(topo, loads);
    const CounterView view = MeasureRun(machine, remote, placement, result);
    desc.link_bw = view.ResourceConsumption(index.Link(0, 1)) / view.CompletionTime();
  } else {
    desc.link_bw = 0.0;
  }

  PANDIA_CHECK(desc.core_ops > 0.0 && desc.l1_bw > 0.0 && desc.dram_bw > 0.0);
  return desc;
}

}  // namespace pandia
