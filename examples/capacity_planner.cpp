// Capacity planner: Pandia's second headline use case (§1) — find where
// additional resources stop buying performance, and hand the freed cores to
// other tenants.
//
// For each workload the planner reports the smallest placement predicted to
// reach 95% of the achievable performance, the resources it frees compared
// with grabbing the whole machine, and a verification run. Poorly scaling
// workloads (the single-threaded NPO join, serial-heavy Apsi) shrink to a
// handful of cores; embarrassingly parallel EP keeps the machine.
//
// Run: build/examples/capacity_planner [machine] [target-fraction]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/eval/pipeline.h"
#include "src/predictor/optimizer.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/workloads/workloads.h"

int main(int argc, char** argv) {
  using namespace pandia;
  const std::string machine_name = argc > 1 ? argv[1] : "x3-2";
  const double target = argc > 2 ? std::atof(argv[2]) : 0.95;
  std::printf("== Capacity planning on %s: smallest placement reaching %.0f%% of "
              "peak ==\n\n",
              machine_name.c_str(), target * 100.0);
  const eval::Pipeline pipeline(machine_name);
  const int machine_threads = pipeline.machine().topology().NumHwThreads();

  Table table({"workload", "threads", "sockets", "freed hw threads", "pred speedup",
               "measured speedup"});
  for (const char* name : {"EP", "MD", "CG", "Swim", "Apsi", "NPO-1T"}) {
    const sim::WorkloadSpec workload = workloads::ByName(name);
    const WorkloadDescription desc = pipeline.Profile(workload);
    const Predictor predictor = pipeline.MakePredictor(desc);
    const RankedPlacement cheapest = FindCheapestPlacement(predictor, target);
    const double measured = pipeline.machine()
                                .RunOne(workload, cheapest.placement)
                                .jobs[0]
                                .completion_time;
    table.AddRow({name, StrFormat("%d", cheapest.placement.TotalThreads()),
                  StrFormat("%d", cheapest.placement.NumActiveSockets()),
                  StrFormat("%d", machine_threads - cheapest.placement.TotalThreads()),
                  StrFormat("%.1fx", cheapest.prediction.speedup),
                  StrFormat("%.1fx", desc.t1 / measured)});
  }
  table.Print();

  std::printf("\nWorkloads with poor scaling keep almost all of their performance "
              "on a fraction of the machine — Pandia quantifies how much can be "
              "reclaimed (§1: \"limiting a workload to a small number of cores "
              "when its scaling is poor\").\n");
  return 0;
}
