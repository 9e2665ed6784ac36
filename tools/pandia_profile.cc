// pandia-profile: run the six profiling runs for a workload (paper §4) and
// emit its workload description.
//
//   pandia_profile [flags] <machine> <workload> [output-file]
//
// <workload> is one of the evaluation-suite names (plus NPO-1T / Equake);
// on real hardware this step would pin and time the actual binary.
//
// Robustness flags (see tools/tool_common.h): --trials=N repeats every
// profiling run N times and aggregates by median with outlier rejection;
// --fault-seed=S (and the --fault-* knobs) inject deterministic measurement
// faults to exercise that path. With the default single trial and no faults
// the output is byte-identical to earlier versions.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/pandia.h"
#include "tools/tool_common.h"

int main(int argc, char** argv) {
  using namespace pandia;
  tools::RobustnessFlags robustness;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const tools::FlagParse parsed = robustness.Match(argv[i]);
    if (parsed == tools::FlagParse::kError) {
      return 2;
    }
    if (parsed == tools::FlagParse::kOk) {
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return 2;
    }
    positional.push_back(argv[i]);
  }
  if (positional.size() < 2 || positional.size() > 3) {
    std::fprintf(stderr,
                 "usage: %s [--trials=N] [--fault-seed=S] [--fault-jitter=X] "
                 "[--fault-dropout=P] [--fault-corrupt=P] [--fault-fail=P] "
                 "<machine> <workload> [output-file]\n",
                 argv[0]);
    return 2;
  }
  const std::vector<std::string> known = sim::KnownMachineNames();
  if (std::find(known.begin(), known.end(), positional[0]) == known.end()) {
    std::fprintf(stderr, "error: unknown machine '%s' (known: x5-2, x4-2, x3-2, x2-4)\n",
                 positional[0].c_str());
    return 2;
  }
  if (!workloads::Exists(positional[1])) {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (the 22 evaluation workloads plus "
                 "NPO-1T, Equake, BT-small)\n",
                 positional[1].c_str());
    return 2;
  }
  eval::Pipeline pipeline(positional[0]);
  const sim::WorkloadSpec workload = workloads::ByName(positional[1]);
  // Two extra validation runs: refuse silently-wrong descriptions for
  // workloads like equake or BT-small that break the model's assumptions.
  const AssumptionReport assumptions =
      ValidateAssumptions(pipeline.machine(), pipeline.description(), workload);
  for (const std::string& warning : assumptions.warnings) {
    std::fprintf(stderr, "warning: %s\n", warning.c_str());
  }
  const std::optional<WorkloadDescription> desc = robustness.Profile(pipeline, workload);
  if (!desc.has_value()) {
    return 1;
  }
  const std::string text = WorkloadDescriptionToText(*desc);
  if (positional.size() == 3) {
    const Status written = WriteTextFile(positional[2], text);
    if (!written.ok()) {
      return tools::FailWith(written);
    }
    std::printf("wrote %s (p=%.4f o_s=%.4f l=%.2f b=%.3f, %d profile threads)\n",
                positional[2].c_str(), desc->parallel_fraction,
                desc->inter_socket_overhead, desc->load_balance, desc->burstiness,
                desc->profile_threads);
  } else {
    std::fputs(text.c_str(), stdout);
  }
  return 0;
}
