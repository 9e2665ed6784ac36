// pandia-predict: predict placements from stored descriptions (paper §5).
//
//   pandia_predict [flags] <machine> <workload> [placement ...]
//
// <machine> is either a stored machine-description file or the name of a
// simulated machine ("x5-2", "x4-2", "x3-2", "x2-4" — the description is
// then generated from stress runs). <workload> is either a stored workload
// description or an evaluation-suite workload name (profiled on the spot;
// requires a simulated machine). Placements use the textual grammar of
// ParsePlacement ("s0:8x1+2x2,s1:4x1", "12", "24x2"). Without placements,
// the tool searches the canonical placement space and reports the best
// placement, the cheapest placement within 95% of it, and a Figure-7-style
// explanation of the winner.
//
// All inputs are validated: malformed description files, implausible field
// values, and bad placements produce a structured error naming the problem
// (never an abort).
//
// Flags:
//   --jobs=N          fan the placement-space search out over N worker
//                     threads (default: the PANDIA_JOBS environment
//                     variable, else serial); the chosen placements are
//                     byte-identical at every job count
//
// Robustness flags (apply when the workload is profiled on the spot; see
// tools/tool_common.h):
//   --trials=N, --fault-seed=S, --fault-jitter/dropout/corrupt/fail=P
//
// Observability flags (src/obs):
//   --trace-out=FILE  write a Chrome trace_event JSON file (open via
//                     chrome://tracing or https://ui.perfetto.dev)
//   --metrics         print the metrics table and per-span wall-time summary
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/pandia.h"
#include "tools/tool_common.h"

namespace {

using namespace pandia;

bool IsKnownMachine(const std::string& name) {
  const std::vector<std::string> known = sim::KnownMachineNames();
  return std::find(known.begin(), known.end(), name) != known.end();
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs=N] [--trials=N] [--fault-seed=S] "
               "[--trace-out=FILE] [--metrics] "
               "<machine-desc-file|machine-name> "
               "<workload-desc-file|workload-name> [placement ...]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  tools::CommonFlags common;
  tools::RobustnessFlags robustness;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    tools::FlagParse parsed = common.Match(argv[i]);
    if (parsed == tools::FlagParse::kNoMatch) {
      parsed = robustness.Match(argv[i]);
    }
    if (parsed == tools::FlagParse::kError) {
      return 2;
    }
    if (parsed == tools::FlagParse::kOk) {
      continue;
    }
    if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
    positional.push_back(argv[i]);
  }
  if (positional.size() < 2) {
    return Usage(argv[0]);
  }
  common.ActivateTracing();

  std::optional<eval::Pipeline> pipeline;
  std::optional<MachineDescription> machine;
  if (const StatusOr<std::string> text = ReadTextFile(positional[0]); text.ok()) {
    StatusOr<MachineDescription> parsed = MachineDescriptionFromText(*text);
    if (!parsed.ok()) {
      return tools::FailWith(parsed.status(), positional[0]);
    }
    machine = std::move(*parsed);
  } else if (IsKnownMachine(positional[0])) {
    pipeline.emplace(positional[0]);
    machine = pipeline->description();
  } else {
    std::fprintf(stderr,
                 "error: '%s' is neither a readable machine description (%s) nor a "
                 "known machine (x5-2, x4-2, x3-2, x2-4)\n",
                 positional[0].c_str(), text.status().ToString().c_str());
    return 1;
  }

  std::optional<WorkloadDescription> workload;
  if (const StatusOr<std::string> text = ReadTextFile(positional[1]); text.ok()) {
    StatusOr<WorkloadDescription> parsed = WorkloadDescriptionFromText(*text);
    if (!parsed.ok()) {
      return tools::FailWith(parsed.status(), positional[1]);
    }
    workload = std::move(*parsed);
  } else if (workloads::Exists(positional[1])) {
    if (!pipeline.has_value()) {
      if (!IsKnownMachine(machine->topo.name)) {
        std::fprintf(stderr,
                     "error: profiling workload '%s' needs a simulated machine, "
                     "but '%s' is not one\n",
                     positional[1].c_str(), machine->topo.name.c_str());
        return 1;
      }
      pipeline.emplace(machine->topo.name);
    }
    workload = robustness.Profile(*pipeline, workloads::ByName(positional[1]));
    if (!workload.has_value()) {
      return 1;
    }
  } else {
    std::fprintf(stderr,
                 "error: '%s' is neither a readable workload description (%s) nor a "
                 "known workload name\n",
                 positional[1].c_str(), text.status().ToString().c_str());
    return 1;
  }

  if (workload->machine != machine->topo.name) {
    std::fprintf(stderr,
                 "note: workload was profiled on '%s', predicting on '%s' "
                 "(portability mode, expect larger errors; paper §6.1)\n",
                 workload->machine.c_str(), machine->topo.name.c_str());
  }

  const StatusOr<Predictor> predictor = Predictor::Create(*machine, *workload);
  if (!predictor.ok()) {
    return tools::FailWith(predictor.status());
  }
  if (positional.size() > 2) {
    for (size_t i = 2; i < positional.size(); ++i) {
      std::string error;
      const std::optional<Placement> placement =
          ParsePlacement(machine->topo, positional[i], &error);
      if (!placement.has_value()) {
        std::fprintf(stderr, "error: placement '%s': %s\n", positional[i].c_str(),
                     error.c_str());
        return 1;
      }
      const StatusOr<Prediction> prediction = predictor->TryPredict(*placement);
      if (!prediction.ok()) {
        return tools::FailWith(prediction.status(),
                               "placement '" + positional[i] + "'");
      }
      std::fputs(ExplainPrediction(*machine, *placement, *prediction).c_str(),
                 stdout);
    }
  } else {
    OptimizerOptions optimizer_options;
    common.Apply(optimizer_options.common);
    const StatusOr<RankedPlacement> best =
        TryFindBestPlacement(*predictor, optimizer_options);
    if (!best.ok()) {
      return tools::FailWith(best.status());
    }
    std::printf("best predicted placement:\n");
    std::fputs(ExplainPrediction(*machine, best->placement, best->prediction).c_str(),
               stdout);
    const StatusOr<RankedPlacement> cheap =
        TryFindCheapestPlacement(*predictor, 0.95, optimizer_options);
    if (!cheap.ok()) {
      return tools::FailWith(cheap.status());
    }
    if (!(cheap->placement == best->placement)) {
      std::printf("\ncheapest placement within 95%% of the best:\n");
      std::fputs(
          ExplainPrediction(*machine, cheap->placement, cheap->prediction).c_str(),
          stdout);
    }
  }

  return common.Finish(stdout);
}
