// Result line, quantiles, and span statistics of traced runs.
#include <algorithm>
#include <cmath>

#include "perfbench/bench.h"

namespace pandia {
namespace perfbench {

StatusOr<std::string> ResultJson(bool correct, int64_t attempted, int64_t failed,
                                 std::span<const MetricSpec> specs,
                                 const MetricValues& values) {
  std::string metrics;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    if (it == values.end() || !std::isfinite(it->second)) {
      return Status::Internal(StrFormat("metric '%s' was not measured", spec.name));
    }
    metrics += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         metrics.empty() ? "" : ", ", spec.name, it->second, spec.unit);
  }
  return StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {%s}}",
      correct ? "true" : "false", static_cast<long long>(attempted),
      static_cast<long long>(failed), metrics.c_str());
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(position);
  if (below + 1 >= values.size()) {
    return values.back();
  }
  const double frac = position - static_cast<double>(below);
  return values[below] + frac * (values[below + 1] - values[below]);
}

double TailQuantileFor(size_t n) {
  for (const double q : {0.99, 0.90}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0 - 1e-9) {
      return q;
    }
  }
  return 0.5;
}

std::vector<double> FastestPerRequest(std::span<const std::vector<double>* const> episodes) {
  std::vector<double> fastest;
  for (const std::vector<double>* episode : episodes) {
    if (fastest.empty()) {
      fastest = *episode;
      continue;
    }
    for (size_t i = 0; i < fastest.size() && i < episode->size(); ++i) {
      fastest[i] = std::min(fastest[i], (*episode)[i]);
    }
  }
  return fastest;
}

double MeanUs(const std::vector<obs::TraceEvent>& events, std::string_view name) {
  double total_ns = 0.0;
  size_t count = 0;
  for (const obs::TraceEvent& event : events) {
    if (event.name == name) {
      total_ns += static_cast<double>(event.dur_ns);
      ++count;
    }
  }
  return count == 0 ? 0.0 : total_ns / 1000.0 / static_cast<double>(count);
}

std::string SelfTimeTable(std::vector<obs::TraceEvent> events) {
  // In start order (parents first on a tie), the spans still open when a
  // span starts are exactly those of lower depth; the deepest is its parent.
  std::sort(events.begin(), events.end(), [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
    if (a.tid != b.tid) {
      return a.tid < b.tid;
    }
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.depth < b.depth;
  });
  std::vector<int64_t> self(events.size());
  std::vector<size_t> open;
  for (size_t i = 0; i < events.size(); ++i) {
    self[i] = events[i].dur_ns;
    while (!open.empty() && (events[open.back()].tid != events[i].tid ||
                             events[open.back()].depth >= events[i].depth)) {
      open.pop_back();
    }
    if (!open.empty()) {
      self[open.back()] -= events[i].dur_ns;
    }
    open.push_back(i);
  }
  struct Row {
    size_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Row> rows;
  for (size_t i = 0; i < events.size(); ++i) {
    Row& row = rows[events[i].name];
    ++row.count;
    row.total_ns += events[i].dur_ns;
    row.self_ns += self[i];
  }
  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  std::string table = StrFormat("%-28s %8s %12s %12s %12s\n", "span", "count", "total_ms",
                                "self_ms", "self_us/op");
  for (const auto& [name, row] : sorted) {
    table += StrFormat("%-28s %8zu %12.3f %12.3f %12.3f\n", name.c_str(), row.count,
                       static_cast<double>(row.total_ns) / 1e6,
                       static_cast<double>(row.self_ns) / 1e6,
                       static_cast<double>(row.self_ns) / 1e3 / static_cast<double>(row.count));
  }
  return table;
}

}  // namespace perfbench
}  // namespace pandia
