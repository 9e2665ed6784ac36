// Pins the bits of every description the measurement side produces: the
// machine descriptions of the four paper machines, the six-run profiles of
// every workload on each, robust profiles under injected faults (with their
// quality reports), online profiles driven by the profiler's own probe
// suggestions, and the assumption checks' two figures. Every double is
// printed at %.17g, so a refactor of a §4 step or of the filled measurement
// run that moves one bit fails here. On a mismatch the actual text is
// written to descriptions.actual.txt in the test temp directory.
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/eval/pipeline.h"
#include "src/serialize/serialize.h"
#include "src/sim/fault_plan.h"
#include "src/util/strings.h"
#include "src/workload_desc/assumptions.h"
#include "src/workload_desc/online_profiler.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace {

const char* const kMachines[] = {"x5-2", "x4-2", "x3-2", "x2-4"};

// The evaluation suite plus the three workloads that break the model's
// assumptions (Figure 13, §6.3, §6.4).
std::vector<sim::WorkloadSpec> AllWorkloads() {
  std::vector<sim::WorkloadSpec> all = workloads::EvaluationSuite();
  all.push_back(workloads::NpoSingleThreaded());
  all.push_back(workloads::Equake());
  all.push_back(workloads::BtSmall());
  return all;
}

std::string QualityText(const ProfileQuality& quality) {
  std::string out;
  for (size_t i = 0; i < quality.runs.size(); ++i) {
    const ProfileRunQuality& run = quality.runs[i];
    out += StrFormat("run %zu: trials = %d, retries = %d, outliers_rejected = %d, "
                     "rel_spread = %.17g\n",
                     i + 1, run.trials, run.retries, run.outliers_rejected,
                     run.rel_spread);
  }
  out += StrFormat("counters_imputed = %d\n", quality.counters_imputed);
  for (const std::string& diagnostic : quality.diagnostics) {
    out += "diagnostic: " + diagnostic + "\n";
  }
  return out;
}

std::string DescriptionsText() {
  const std::vector<sim::WorkloadSpec> all = AllWorkloads();
  std::string out;
  for (const char* name : kMachines) {
    const eval::Pipeline pipeline(name);
    out += StrFormat("== machine %s\n", name);
    out += MachineDescriptionToText(pipeline.description());
    for (const sim::WorkloadSpec& workload : all) {
      out += StrFormat("== profile %s %s\n", name, workload.name.c_str());
      out += WorkloadDescriptionToText(pipeline.Profile(workload));
    }
  }

  // Trials, retries, medians and imputation: three trials per run under the
  // documented fault mix, on a pipeline of its own so the plan stays armed.
  {
    eval::Pipeline pipeline("x3-2");
    pipeline.SetFaultPlan(sim::FaultPlan::Defaults(1));
    ProfileOptions options;
    options.trials = 3;
    for (const char* name : {"MD", "CG", "Swim", "EP", "FT", "BT-small"}) {
      out += StrFormat("== robust x3-2 %s trials = 3 fault-seed = 1\n", name);
      const StatusOr<WorkloadDescription> desc =
          pipeline.ProfileRobust(workloads::ByName(name), options);
      if (!desc.ok()) {
        out += "error: " + desc.status().ToString() + "\n";
        continue;
      }
      out += QualityText(desc->quality);
      out += WorkloadDescriptionToText(*desc);
    }
  }

  // The online profiler, probing where it suggests until it is complete.
  for (const char* name : {"x3-2", "x2-4"}) {
    const eval::Pipeline pipeline(name);
    for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
      out += StrFormat("== online %s %s\n", name, workload.name.c_str());
      OnlineProfiler profiler(pipeline.description(), workload.name,
                              workload.memory_policy);
      while (!profiler.Complete()) {
        const std::optional<Placement> probe = profiler.SuggestNextProbe();
        if (!probe.has_value()) {
          out += "no probe suggested\n";
          break;
        }
        const bool refined = profiler.ObserveRun(pipeline.machine(), workload, *probe);
        out += StrFormat("probe %s refined = %d\n", probe->ToString().c_str(),
                         refined ? 1 : 0);
        if (!refined) {
          break;
        }
      }
      out += WorkloadDescriptionToText(profiler.description());
    }
  }

  {
    const eval::Pipeline pipeline("x3-2");
    for (const sim::WorkloadSpec& workload : all) {
      const AssumptionReport report =
          ValidateAssumptions(pipeline.machine(), pipeline.description(), workload);
      out += StrFormat("== assumptions x3-2 %s\n", workload.name.c_str());
      out += StrFormat("work_growth_per_thread = %.17g\n", report.work_growth_per_thread);
      out += StrFormat("busy_time_skew = %.17g\n", report.busy_time_skew);
    }
  }
  return out;
}

TEST(DescriptionGolden, EveryDescriptionMatchesItsGolden) {
  const std::string actual = DescriptionsText();
  const StatusOr<std::string> golden =
      ReadTextFile(PANDIA_TEST_DATA_DIR "/golden/descriptions.txt");
  if (golden.ok() && *golden == actual) {
    return;
  }
  const std::string path = ::testing::TempDir() + "/descriptions.actual.txt";
  ASSERT_TRUE(WriteTextFile(path, actual).ok());
  ADD_FAILURE() << "descriptions differ from tests/data/golden/descriptions.txt ("
                << golden.status().ToString() << "); actual written to " << path;
}

}  // namespace
}  // namespace pandia
