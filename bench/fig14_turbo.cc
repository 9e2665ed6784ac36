// Figure 14: the effect of Turbo Boost on the instruction rate of a simple
// CPU-bound loop on the 2-socket X5-2, for 1..72 threads (1-36: one thread
// per core; 37-72: two threads per core), in three configurations:
//   * Turbo Boost enabled, no background load,
//   * Turbo Boost enabled, CPU-bound background load on idle cores,
//   * Turbo Boost disabled.
// Paper: turbo-enabled starts higher and converges toward the background-
// loaded line as cores fill; turbo-disabled is strictly lower even when all
// threads are active.
#include "bench/common.h"

#include "src/counters/counters.h"
#include "src/sim/machine_spec.h"
#include "src/stress/stress.h"

namespace {

// Total instruction rate of n CPU-stressor threads (compact SMT-last
// placement, as in the figure's x-axis).
double InstructionRate(const pandia::sim::Machine& machine, int n, bool background) {
  using namespace pandia;
  const MachineTopology& topo = machine.topology();
  // 1..cores: one per core; beyond: second SMT slots.
  Placement placement = [&] {
    if (n <= topo.NumCores()) {
      return Placement::OnePerCore(topo, n);
    }
    std::vector<uint8_t> per_core(static_cast<size_t>(topo.NumCores()), 1);
    for (int i = 0; i < n - topo.NumCores(); ++i) {
      per_core[i] = 2;
    }
    return Placement(topo, std::move(per_core));
  }();
  const sim::WorkloadSpec loop = stress::CpuStressor();
  const sim::JobRequest job{&loop, placement, false};
  const sim::RunResult result = background ? stress::RunFilled(machine, std::span(&job, 1))
                                           : machine.Run(std::span(&job, 1));
  const CounterView view(machine, result, 0);
  return view.Instructions() / view.CompletionTime();
}

}  // namespace

int main() {
  using namespace pandia;
  std::printf("=== Figure 14: Turbo Boost and a CPU-bound loop on the X5-2 ===\n\n");
  const sim::Machine turbo_on{sim::MakeX5_2()};
  sim::MachineSpec disabled_spec = sim::MakeX5_2();
  disabled_spec.turbo_enabled = false;
  const sim::Machine turbo_off{disabled_spec};

  Table table({"threads", "turbo, idle", "turbo, background", "turbo disabled"});
  const int total = turbo_on.topology().NumHwThreads();
  for (int n = 1; n <= total; n += (n < 8 ? 1 : 4)) {
    table.AddRow({StrFormat("%d", n),
                  StrFormat("%.1f", InstructionRate(turbo_on, n, false)),
                  StrFormat("%.1f", InstructionRate(turbo_on, n, true)),
                  StrFormat("%.1f", InstructionRate(turbo_off, n, false))});
  }
  table.Print();
  std::printf("\npaper reference: with turbo and idle cores the rate per thread "
              "starts high and falls toward the all-core bin; filling idle cores "
              "with background load removes the effect; disabling turbo is "
              "strictly slower (nominal 2.3GHz vs 2.8-3.6GHz boost bins).\n");
  return 0;
}
