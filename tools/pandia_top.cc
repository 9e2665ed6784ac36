// pandia-top: live dashboard for a running pandia_serve daemon.
//
//   pandia_top --socket=PATH [--interval=SECONDS] [--once]
//
// Polls the daemon over its Unix-domain socket with `METRICS format=expo`
// and `TELEMETRY`, then renders request latency percentiles (p50/p90/p99
// per verb, interpolated client-side from the exported histogram buckets),
// verb rates (counter deltas between polls), rack search pruning (candidate
// placements per second and the share solved), journal health (append and
// fsync p99, compactions, bytes reclaimed, live ratio, torn tails, and a
// DEGRADED banner when the daemon is serving read-only), and the per-job
// rack telemetry (predicted slowdown at admit, current prediction,
// degradation, re-placements, co-runner events).
//
// By default the display refreshes every --interval seconds (ANSI
// clear-screen when stdout is a terminal); --once polls a single time and
// prints one plain report — the headless mode scripts and smoke tests use.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/pandia.h"
#include "tools/tool_common.h"

namespace {

using namespace pandia;

// One poll's METRICS exposition, split into plain samples (counters and
// gauges are indistinguishable on the wire, and need not be distinguished:
// both are just numbers) and histogram bucket series.
struct ExpoSnapshot {
  std::map<std::string, double> samples;
  // name -> (le token, cumulative count) in exposition order.
  std::map<std::string, std::vector<std::pair<std::string, double>>> histograms;
};

void ParseExpoLine(const std::string& line, ExpoSnapshot& snapshot) {
  const size_t space = line.find(' ');
  if (space == std::string::npos || space == 0) {
    return;
  }
  const std::string metric = line.substr(0, space);
  const double value = std::strtod(line.c_str() + space + 1, nullptr);
  const size_t brace = metric.find("{le=");
  if (brace == std::string::npos) {
    snapshot.samples[metric] = value;
    return;
  }
  if (metric.back() != '}') {
    return;
  }
  const std::string name = metric.substr(0, brace);
  const std::string le = metric.substr(brace + 4, metric.size() - brace - 5);
  snapshot.histograms[name].emplace_back(le, value);
}

// q-quantile from an exposition bucket series (cumulative counts, +inf
// last), via the shared obs interpolation.
double ExpoPercentile(const std::vector<std::pair<std::string, double>>& series,
                      double q) {
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  double previous = 0.0;
  for (const auto& [le, cumulative] : series) {
    if (le != "+inf") {
      bounds.push_back(std::strtod(le.c_str(), nullptr));
    }
    buckets.push_back(static_cast<uint64_t>(cumulative - previous));
    previous = cumulative;
  }
  if (bounds.empty() || buckets.size() != bounds.size() + 1) {
    return 0.0;
  }
  return obs::HistogramPercentile(bounds, buckets, q);
}

double SampleOr(const ExpoSnapshot& snapshot, const std::string& name,
                double fallback) {
  const auto it = snapshot.samples.find(name);
  return it != snapshot.samples.end() ? it->second : fallback;
}

struct PollResult {
  ExpoSnapshot expo;
  std::vector<std::string> telemetry;  // TELEMETRY payload lines
};

// One serve::Client connection per poll (reconnecting each frame rides
// through daemon restarts), both requests pipelined in one round trip.
StatusOr<PollResult> Poll(const std::string& socket_path) {
  StatusOr<serve::Client> client = serve::Client::Connect(socket_path);
  if (!client.ok()) {
    return client.status();
  }
  const std::vector<std::string> requests = {"METRICS format=expo",
                                             "TELEMETRY"};
  StatusOr<std::vector<wire::Response>> responses = client->CallMany(requests);
  if (!responses.ok()) {
    return responses.status();
  }
  PollResult result;
  for (const wire::Response& response : *responses) {
    if (!response.ok) {
      return Status(response.code, response.error);
    }
    if (response.verb == "METRICS") {
      for (const std::string& payload : response.payload) {
        ParseExpoLine(payload, result.expo);
      }
    } else if (response.verb == "TELEMETRY") {
      result.telemetry = response.payload;
    }
  }
  return result;
}

constexpr const char* kVerbs[] = {"hello",     "admit",    "depart",
                                  "rebalance", "status",   "metrics",
                                  "telemetry", "recorder", "shutdown",
                                  "other"};

void Render(const PollResult& poll, const ExpoSnapshot* previous,
            double interval_s, int frame, const std::string& socket_path) {
  std::printf("pandia_top - %s  frame=%d  jobs=%d  free-threads=%d\n",
              socket_path.c_str(), frame,
              static_cast<int>(SampleOr(poll.expo, "serve.jobs", 0.0)),
              static_cast<int>(SampleOr(poll.expo, "serve.free_threads", 0.0)));
  std::printf("\n%-10s %10s %8s %9s %10s %10s %10s\n", "verb", "requests",
              "errors", "rate/s", "p50_us", "p90_us", "p99_us");
  for (const char* verb : kVerbs) {
    const std::string prefix = std::string("serve.") + verb;
    const double requests = SampleOr(poll.expo, prefix + ".requests", 0.0);
    if (requests <= 0.0) {
      continue;  // verb never seen — keep the table to what happened
    }
    const double errors = SampleOr(poll.expo, prefix + ".errors", 0.0);
    double rate = 0.0;
    if (previous != nullptr && interval_s > 0.0) {
      rate = (requests - SampleOr(*previous, prefix + ".requests", 0.0)) /
             interval_s;
    }
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    const auto it = poll.expo.histograms.find(prefix + ".latency_us");
    if (it != poll.expo.histograms.end()) {
      p50 = ExpoPercentile(it->second, 0.50);
      p90 = ExpoPercentile(it->second, 0.90);
      p99 = ExpoPercentile(it->second, 0.99);
    }
    std::printf("%-10s %10.0f %8.0f %9.1f %10.1f %10.1f %10.1f\n", verb,
                requests, errors, rate, p50, p90, p99);
  }
  // Rack search pruning: candidate placements built per second and the
  // share of them actually solved, over the poll interval (since startup
  // on the first frame). A probe builds only the thread counts whose
  // ceiling can still win, so most built candidates are solved (96% over
  // the rack-search test script).
  const double candidates = SampleOr(poll.expo, "rack.probe.candidates", 0.0);
  if (candidates > 0.0) {
    double enumerated = candidates;
    double solved = SampleOr(poll.expo, "rack.probe.solves", 0.0);
    double rate = 0.0;
    if (previous != nullptr && interval_s > 0.0) {
      enumerated -= SampleOr(*previous, "rack.probe.candidates", 0.0);
      solved -= SampleOr(*previous, "rack.probe.solves", 0.0);
      rate = enumerated / interval_s;
    }
    std::printf("\nprobe: candidates=%.0f rate=%.1f/s solved=%.1f%%\n", candidates,
                rate, enumerated > 0.0 ? 100.0 * solved / enumerated : 0.0);
  }
  const double appends =
      SampleOr(poll.expo, "serve.journal.append_latency_us.count", 0.0);
  if (appends > 0.0) {
    const auto histogram_p99 = [&](const char* name) {
      const auto it = poll.expo.histograms.find(name);
      return it != poll.expo.histograms.end() ? ExpoPercentile(it->second, 0.99)
                                              : 0.0;
    };
    std::printf("\njournal: appends=%.0f bytes=%.0f append-p99=%.1fus "
                "fsync-p99=%.1fus\n",
                appends, SampleOr(poll.expo, "serve.journal.bytes", 0.0),
                histogram_p99("serve.journal.append_latency_us"),
                histogram_p99("serve.journal.fsync_latency_us"));
    std::printf("         compactions=%.0f reclaimed=%.0fB live-ratio=%.2f "
                "torn-tails=%.0f%s\n",
                SampleOr(poll.expo, "serve.journal.compactions", 0.0),
                SampleOr(poll.expo,
                         "serve.journal.compaction_bytes_reclaimed", 0.0),
                SampleOr(poll.expo, "serve.journal.live_ratio", 1.0),
                SampleOr(poll.expo, "serve.journal.torn_tails", 0.0),
                SampleOr(poll.expo, "serve.degraded", 0.0) > 0.0
                    ? "  DEGRADED (read-only)"
                    : "");
  }
  std::printf("\ntelemetry:\n");
  for (const std::string& line : poll.telemetry) {
    std::printf("  %s\n", line.c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  bool once = false;
  double interval_s = 2.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socket_path = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--once") == 0) {
      once = true;
    } else if (std::strncmp(argv[i], "--interval=", 11) == 0) {
      interval_s = std::strtod(argv[i] + 11, nullptr);
      if (!(interval_s > 0.0 && interval_s <= 3600.0)) {
        std::fprintf(stderr,
                     "error: --interval needs seconds in (0, 3600], got '%s'\n",
                     argv[i] + 11);
        return 2;
      }
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv[i]);
      std::fprintf(stderr,
                   "usage: %s --socket=PATH [--interval=SECONDS] [--once]\n",
                   argv[0]);
      return 2;
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "usage: %s --socket=PATH [--interval=SECONDS] [--once]\n",
                 argv[0]);
    return 2;
  }

  const bool interactive = !once && isatty(STDOUT_FILENO) != 0;
  ExpoSnapshot previous;
  bool have_previous = false;
  for (int frame = 1;; ++frame) {
    pandia::StatusOr<PollResult> poll = Poll(socket_path);
    if (!poll.ok()) {
      return pandia::tools::FailWith(poll.status(), socket_path);
    }
    if (interactive) {
      std::printf("\033[H\033[2J");  // cursor home + clear screen
    }
    Render(*poll, have_previous ? &previous : nullptr, interval_s, frame,
           socket_path);
    if (once) {
      return 0;
    }
    previous = std::move(poll->expo);
    have_previous = true;
    std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
  }
}
