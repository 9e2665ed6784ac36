// perfbench: one benchmark run.
//
//   perfbench --workload serve-sparse|serve-dense|search-cold --seed N
//             --seconds S --trace 0|1 --serve PATH --work-dir DIR
//
// Diagnostics and, for --trace 1, the per-layer self-time table go to
// stderr; the traced run's spans are written as Chrome trace_event JSON
// into the work directory. The last stdout line is the result JSON.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "perfbench/bench.h"

namespace {

using namespace pandia;
using namespace pandia::perfbench;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve-sparse|serve-dense|search-cold "
               "--seed N --seconds S --trace 0|1 --serve PATH --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--serve") {
      options.serve_binary = value;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  const bool serve = options.workload == "serve-sparse" || options.workload == "serve-dense";
  if ((!serve && options.workload != "search-cold") || options.work_dir.empty() ||
      (serve && options.serve_binary.empty()) || options.seconds <= 0) {
    return Usage();
  }
  ::mkdir(options.work_dir.c_str(), 0755);

  RunResult result = serve ? RunServe(options) : RunSearch(options);
  std::fprintf(stderr,
               "perfbench %s seed=%llu: %d episode(s); requests attempted=%lld "
               "succeeded=%lld refused-for-capacity=%lld failed=%lld; "
               "median/fastest episode time=%.3f\n",
               options.workload.c_str(), static_cast<unsigned long long>(options.seed),
               result.episodes, static_cast<long long>(result.attempted),
               static_cast<long long>(result.succeeded),
               static_cast<long long>(result.refused), static_cast<long long>(result.failed),
               result.median_to_fastest);
  std::fputs(result.diagnostics.c_str(), stderr);
  if (!result.self_times.empty()) {
    const std::string path = StrFormat("%s/%s-seed%llu.trace.json", options.work_dir.c_str(),
                                       options.workload.c_str(),
                                       static_cast<unsigned long long>(options.seed));
    std::ofstream(path) << result.chrome_trace;
    std::fprintf(stderr, "per-layer self time (spans in %s):\n%s", path.c_str(),
                 result.self_times.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "check failed: %s\n", failure.c_str());
  }

  const std::span<const MetricSpec> specs =
      options.trace ? std::span<const MetricSpec>(kPerLayer)
                    : std::span<const MetricSpec>(kEndToEnd);
  MetricValues& values = options.trace ? result.per_layer : result.end_to_end;
  if (!result.correct) {
    // A failed run still prints a result line, so the failure is visible.
    for (const MetricSpec& spec : specs) {
      values.emplace(spec.name, 0.0);
    }
  }
  StatusOr<std::string> line =
      ResultJson(result.correct, std::max<int64_t>(result.attempted, 1),
                 result.failed, specs, values);
  if (!line.ok()) {
    std::fprintf(stderr, "error: %s\n", line.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", line->c_str());
  return result.correct ? 0 : 1;
}
