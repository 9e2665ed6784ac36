// pandia-sweep: measure and predict a workload over the canonical placement
// space and emit a plottable CSV series (the raw data behind Figures 1/10).
//
//   pandia_sweep [flags] <machine> <workload> [sample-count]
//
// Output columns: placement index (paper order), placement, threads,
// measured time, predicted time, normalized measured/predicted performance.
//
// Flags:
//   --jobs=N          fan per-placement measure/predict work out over N
//                     worker threads (default: the PANDIA_JOBS environment
//                     variable, else serial). Output is byte-identical at
//                     every job count.
//
// Robustness flags (see tools/tool_common.h): --trials=N and --fault-* make
// the profiling phase noisy-but-robust; the sweep's measurement runs stay
// fault-free so predicted-vs-measured errors reflect description quality.
//
// Observability flags (src/obs):
//   --trace-out=FILE  write a Chrome trace_event JSON file of the sweep
//                     (per-placement measure/predict spans)
//   --metrics         print the metrics table and per-span wall-time summary
//                     to stderr (stdout stays parseable CSV)
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
      return 2;
    }
    positional.push_back(argv[i]);
  }
  if (positional.size() < 2 || positional.size() > 3) {
    std::fprintf(stderr,
                 "usage: %s [--jobs=N] [--trials=N] [--fault-seed=S] "
                 "[--trace-out=FILE] [--metrics] <machine> "
                 "<workload> [sample-count]\n",
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
  eval::SweepOptions options;
  common.Apply(options.common);
  if (positional.size() == 3) {
    const StatusOr<int> samples = tools::ParseIntFlag(positional[2].c_str(), "sample-count");
    if (!samples.ok() || *samples < 1) {
      std::fprintf(stderr, "error: sample-count needs a positive integer, got '%s'\n",
                   positional[2].c_str());
      return 2;
    }
    options.sample_count = static_cast<size_t>(*samples);
    options.exhaustive_limit = options.sample_count;
  }
  common.ActivateTracing();
  eval::Pipeline pipeline(positional[0]);
  const sim::WorkloadSpec workload = workloads::ByName(positional[1]);
  const std::optional<WorkloadDescription> desc = robustness.Profile(pipeline, workload);
  if (!desc.has_value()) {
    return 1;
  }
  // Measurement runs below compare against fault-free ground truth.
  pipeline.SetFaultPlan(sim::FaultPlan{});
  const Predictor predictor = pipeline.MakePredictor(*desc);
  const eval::SweepResult result =
      eval::RunSweep(pipeline.machine(), predictor, workload, options);

  std::printf("# %s on %s: %zu placements, error mean %.2f%% median %.2f%%, "
              "offset %.2f%%/%.2f%%, best-placement gap %.2f%%\n",
              result.workload.c_str(), result.machine.c_str(),
              result.placements.size(), result.error_mean, result.error_median,
              result.offset_error_mean, result.offset_error_median,
              result.best_placement_gap_pct);
  std::printf("index,placement,threads,measured_time,predicted_time,"
              "measured_norm,predicted_norm\n");
  for (size_t i = 0; i < result.placements.size(); ++i) {
    const eval::PlacementResult& pr = result.placements[i];
    std::printf("%zu,\"%s\",%d,%.6g,%.6g,%.4f,%.4f\n", i,
                pr.placement.ToString().c_str(), pr.placement.TotalThreads(),
                pr.measured_time, pr.predicted_time, pr.measured_norm,
                pr.predicted_norm);
  }

  // stdout stays parseable CSV; the observability tables go to stderr.
  return common.Finish(stderr);
}
