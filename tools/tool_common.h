// Shared helpers for the pandia_* CLI front-ends: common flag parsing
// (--jobs, --trace-out, --metrics, --trials, --fault-*) and uniform Status
// error reporting. Tools never abort on bad input; every failure path
// prints a structured error naming the offending flag, field, or file and
// exits non-zero.
//
// Tools include only this header and the umbrella src/pandia.h — never
// internal src/ headers directly.
#ifndef PANDIA_TOOLS_TOOL_COMMON_H_
#define PANDIA_TOOLS_TOOL_COMMON_H_

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "src/pandia.h"

namespace pandia {
namespace tools {

enum class FlagParse { kNoMatch, kOk, kError };

// Parses a whole decimal integer flag value; `flag` names it in the error.
inline StatusOr<int> ParseIntFlag(const char* value, const char* flag) {
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (*value == '\0' || *end != '\0' || parsed < INT_MIN || parsed > INT_MAX) {
    return Status::InvalidArgument(
        StrFormat("%s needs an integer, got '%s'", flag, value));
  }
  return static_cast<int>(parsed);
}

// The shared fan-out/observability flags, threaded through CommonOptions so
// every tool parses and applies them the same way:
//   --jobs=N          fan parallelizable phases out over N worker threads
//                     (default: the PANDIA_JOBS environment variable, else
//                     serial); results are byte-identical at any job count
//   --trace-out=FILE  write a Chrome trace_event JSON file (open via
//                     chrome://tracing or https://ui.perfetto.dev)
//   --metrics         print the metrics table and per-span wall-time summary
//   --metrics-out=FILE  dump the final metrics snapshot as CSV on clean
//                     shutdown (machine-readable companion to --metrics)
struct CommonFlags {
  int jobs = 0;  // 0: defer to PANDIA_JOBS
  std::string trace_out;
  std::string metrics_out;
  bool metrics = false;

  // Tries to consume one argv entry; prints to stderr on kError.
  FlagParse Match(const char* arg) {
    if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
      return FlagParse::kOk;
    }
    if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      metrics_out = arg + 14;
      if (metrics_out.empty()) {
        std::fprintf(stderr, "error: --metrics-out needs a file path\n");
        return FlagParse::kError;
      }
      return FlagParse::kOk;
    }
    if (std::strcmp(arg, "--metrics") == 0) {
      metrics = true;
      return FlagParse::kOk;
    }
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      const StatusOr<int> parsed = ParseIntFlag(arg + 7, "--jobs");
      if (!parsed.ok() || *parsed < 1) {
        std::fprintf(stderr, "error: --jobs needs a positive integer, got '%s'\n",
                     arg + 7);
        return FlagParse::kError;
      }
      jobs = *parsed;
      return FlagParse::kOk;
    }
    return FlagParse::kNoMatch;
  }

  // Call once after flag parsing: spans are recorded only while the tracer
  // is enabled (--metrics needs them for the per-span summary too).
  void ActivateTracing() const {
    if (!trace_out.empty() || metrics) {
      obs::Tracer::Global().SetEnabled(true);
    }
  }

  // Copies the flags into any options struct carrying a CommonOptions.
  void Apply(CommonOptions& common) const { common.jobs = jobs; }

  // Emits the requested artifacts: the trace file, and the metrics/span
  // tables on `out`. Returns a non-zero exit code on write failure.
  int Finish(std::FILE* out = stdout) const {
    if (!trace_out.empty()) {
      const Status written =
          WriteTextFile(trace_out, obs::Tracer::Global().ChromeTraceJson());
      if (!written.ok()) {
        std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote trace to %s (open via chrome://tracing)\n",
                   trace_out.c_str());
    }
    if (!metrics_out.empty()) {
      std::FILE* file = std::fopen(metrics_out.c_str(), "w");
      if (file == nullptr) {
        std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                     metrics_out.c_str());
        return 1;
      }
      obs::RenderTable(obs::MetricsRegistry::Global().Snapshot()).PrintCsv(file);
      if (std::fclose(file) != 0) {
        std::fprintf(stderr, "error: cannot write '%s'\n", metrics_out.c_str());
        return 1;
      }
      std::fprintf(stderr, "wrote metrics CSV to %s\n", metrics_out.c_str());
    }
    if (metrics) {
      std::fprintf(out, "\nmetrics:\n");
      obs::RenderTable(obs::MetricsRegistry::Global().Snapshot()).Print(out);
      std::fprintf(out, "\nspan summary:\n");
      obs::Tracer::Global().SummaryTable().Print(out);
    }
    return 0;
  }
};

// Robustness flags shared by the measuring tools, and the one path by which
// those tools profile a workload (Profile below):
//   --trials=N         profiling trials per run (default 1; median aggregate)
//   --fault-seed=S     arm the default fault plan (3% time jitter, 5% counter
//                      dropout, 1-in-20 run failure) with seed S
//   --fault-jitter=X   override the time-jitter magnitude (in [0, 0.9])
//   --fault-dropout=P  override the counter-dropout probability
//   --fault-corrupt=P  override the counter-corruption probability
//   --fault-fail=P     override the run-failure probability (in [0, 0.9])
// Any --fault-* flag arms fault injection; knob overrides given without
// --fault-seed start from an otherwise-quiet plan with seed 1.
struct RobustnessFlags {
  int trials = 1;
  std::optional<uint64_t> fault_seed;
  std::optional<double> jitter;
  std::optional<double> dropout;
  std::optional<double> corrupt;
  std::optional<double> fail;

  // Tries to consume one argv entry; prints to stderr on kError.
  FlagParse Match(const char* arg) {
    const auto value_of = [arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value_of("--trials=")) {
      char* end = nullptr;
      const long parsed = std::strtol(v, &end, 10);
      if (*v == '\0' || *end != '\0' || parsed < 1 || parsed > 1000) {
        std::fprintf(stderr, "error: --trials needs an integer in [1, 1000], got '%s'\n", v);
        return FlagParse::kError;
      }
      trials = static_cast<int>(parsed);
      return FlagParse::kOk;
    }
    if (const char* v = value_of("--fault-seed=")) {
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') {
        std::fprintf(stderr, "error: --fault-seed needs an unsigned integer, got '%s'\n", v);
        return FlagParse::kError;
      }
      fault_seed = static_cast<uint64_t>(parsed);
      return FlagParse::kOk;
    }
    const auto parse_rate = [](const char* flag, const char* v, double max_value,
                               std::optional<double>& out) {
      char* end = nullptr;
      const double parsed = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(parsed >= 0.0 && parsed <= max_value)) {
        std::fprintf(stderr, "error: %s needs a number in [0, %g], got '%s'\n", flag,
                     max_value, v);
        return FlagParse::kError;
      }
      out = parsed;
      return FlagParse::kOk;
    };
    if (const char* v = value_of("--fault-jitter=")) {
      return parse_rate("--fault-jitter", v, 0.9, jitter);
    }
    if (const char* v = value_of("--fault-dropout=")) {
      return parse_rate("--fault-dropout", v, 1.0, dropout);
    }
    if (const char* v = value_of("--fault-corrupt=")) {
      return parse_rate("--fault-corrupt", v, 1.0, corrupt);
    }
    if (const char* v = value_of("--fault-fail=")) {
      return parse_rate("--fault-fail", v, 0.9, fail);
    }
    return FlagParse::kNoMatch;
  }

  bool any_fault_flag() const {
    return fault_seed.has_value() || jitter.has_value() || dropout.has_value() ||
           corrupt.has_value() || fail.has_value();
  }

  sim::FaultPlan MakeFaultPlan() const {
    sim::FaultPlan plan;
    if (fault_seed.has_value()) {
      plan = sim::FaultPlan::Defaults(*fault_seed);
    } else if (any_fault_flag()) {
      plan.enabled = true;
    }
    if (jitter.has_value()) {
      plan.time_jitter = *jitter;
    }
    if (dropout.has_value()) {
      plan.counter_dropout = *dropout;
    }
    if (corrupt.has_value()) {
      plan.counter_corrupt = *corrupt;
    }
    if (fail.has_value()) {
      plan.run_failure = *fail;
    }
    return plan;
  }

  // Profiles `workload` on `pipeline` under these flags: arms the fault
  // plan when any --fault-* flag asks for one (it stays armed), runs
  // ProfileRobust at --trials, and prints the quality summary to stderr
  // when there is more than one trial or a fault plan. A failure is
  // reported on stderr and returns nullopt; the tool exits 1.
  std::optional<WorkloadDescription> Profile(eval::Pipeline& pipeline,
                                             const sim::WorkloadSpec& workload) const;
};

// Prints "error: [context: ]CODE: message" and returns the tool exit code.
inline int FailWith(const Status& status, const std::string& context = "") {
  if (context.empty()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  } else {
    std::fprintf(stderr, "error: %s: %s\n", context.c_str(),
                 status.ToString().c_str());
  }
  return 1;
}

// One-paragraph stderr summary of a robust-profiling session (trials used,
// repairs made, diagnostics). Quiet for a pristine single-trial profile.
inline void PrintProfileQuality(const ProfileQuality& quality) {
  int trials = 0;
  int outliers = 0;
  for (const ProfileRunQuality& run : quality.runs) {
    trials = run.trials > trials ? run.trials : trials;
    outliers += run.outliers_rejected;
  }
  std::fprintf(stderr,
               "profile quality: %d trial(s) per run, %d retried run(s), %d "
               "outlier(s) rejected, %d counter(s) imputed%s\n",
               trials, quality.total_retries(), outliers, quality.counters_imputed,
               quality.degraded() ? "" : " (clean)");
  for (const std::string& diagnostic : quality.diagnostics) {
    std::fprintf(stderr, "profile note: %s\n", diagnostic.c_str());
  }
}

inline std::optional<WorkloadDescription> RobustnessFlags::Profile(
    eval::Pipeline& pipeline, const sim::WorkloadSpec& workload) const {
  const sim::FaultPlan plan = MakeFaultPlan();
  if (plan.active()) {
    pipeline.SetFaultPlan(plan);
  }
  ProfileOptions options;
  options.trials = trials;
  StatusOr<WorkloadDescription> desc = pipeline.ProfileRobust(workload, options);
  if (!desc.ok()) {
    FailWith(desc.status(), "profiling '" + workload.name + "' failed");
    return std::nullopt;
  }
  if (trials > 1 || plan.active()) {
    PrintProfileQuality(desc->quality);
  }
  return std::move(*desc);
}

}  // namespace tools
}  // namespace pandia

#endif  // PANDIA_TOOLS_TOOL_COMMON_H_
