#include "src/workload_desc/assumptions.h"

#include <algorithm>

#include "src/counters/counters.h"
#include "src/stress/stress.h"
#include "src/util/check.h"
#include "src/util/strings.h"

namespace pandia {
namespace {

constexpr double kWorkGrowthTolerance = 0.02;  // per added thread
constexpr double kBusySkewTolerance = 0.08;

}  // namespace

AssumptionReport ValidateAssumptions(const sim::Machine& machine,
                                     const MachineDescription& description,
                                     const sim::WorkloadSpec& workload) {
  const MachineTopology& topo = description.topo;
  AssumptionReport report;

  // A modest same-socket thread count, as contention-free as run 2; an odd
  // count exposes quantized loops that happen to divide evenly.
  const int n = std::max(3, std::min(topo.cores_per_socket - 1, 7));

  const sim::JobRequest solo_job{&workload, Placement::OnePerCore(topo, 1),
                                 /*background=*/false};
  const sim::JobRequest multi_job{&workload, Placement::OnePerCore(topo, n),
                                  /*background=*/false};
  const sim::RunResult solo_run = stress::RunFilled(machine, std::span(&solo_job, 1));
  const sim::RunResult multi_run = stress::RunFilled(machine, std::span(&multi_job, 1));
  const CounterView solo(machine, solo_run, 0);
  const CounterView multi(machine, multi_run, 0);

  // --- constant total work (§2.3; violated by equake, §6.3) ---
  PANDIA_CHECK(solo.Instructions() > 0.0);
  const double instruction_ratio = multi.Instructions() / solo.Instructions();
  report.work_growth_per_thread = (instruction_ratio - 1.0) / (n - 1);
  if (report.work_growth_per_thread > kWorkGrowthTolerance) {
    report.constant_work_ok = false;
    report.warnings.push_back(StrFormat(
        "total work grows with the thread count (%.1f%% more instructions per "
        "added thread): the constant-work assumption of the model does not hold; "
        "expect optimistic predictions at high thread counts",
        report.work_growth_per_thread * 100.0));
  }

  // --- plentiful fine-grained parallelism (§2.3; violated by BT-small, §6.4) ---
  double busy_min = multi.ThreadBusyTime(0);
  double busy_max = busy_min;
  for (int t = 1; t < multi.NumThreads(); ++t) {
    busy_min = std::min(busy_min, multi.ThreadBusyTime(t));
    busy_max = std::max(busy_max, multi.ThreadBusyTime(t));
  }
  PANDIA_CHECK(busy_max > 0.0);
  report.busy_time_skew = (busy_max - busy_min) / busy_max;
  if (report.busy_time_skew > kBusySkewTolerance) {
    report.fine_grained_ok = false;
    report.warnings.push_back(StrFormat(
        "per-thread busy times differ by %.0f%% in a contention-free run with %d "
        "threads: the parallel loop appears too coarse to divide evenly; expect "
        "scaling plateaus between divisor thread counts",
        report.busy_time_skew * 100.0, n));
  }
  return report;
}

}  // namespace pandia
