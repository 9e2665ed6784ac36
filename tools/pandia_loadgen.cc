// pandia-loadgen: trace-replaying load generator for a running pandia_serve
// daemon (single-rack or fleet).
//
//   pandia_loadgen --socket=PATH [--mode=closed|open] [--connections=C]
//                  [--requests=N] [--batch=B] [--pattern=steady|poisson|
//                  diurnal|flash] [--rate=R] [--seed=S] [--threads=T]
//                  [--workload=NAME] [--timeout-ms=N] [--json-out=FILE]
//
// Closed loop (default): C connections (one serve::Client each, HELLO
// handshake included) drive the daemon as hard as it will go — each
// connection pipelines batches of B ADMIT requests, reads the B response
// blocks, then pipelines the matching DEPARTs. Offered load tracks service
// capacity, which is the right shape for a throughput benchmark.
//
// Open loop: one connection replays a precomputed arrival schedule drawn
// from the seeded RNG — requests arrive when the trace says so, whether or
// not the daemon kept up (the latency distribution then includes queueing
// delay, which is the right shape for a latency-under-load study):
//
//   steady    fixed 1/R spacing
//   poisson   exponential inter-arrivals at rate R
//   diurnal   Poisson with the rate swept through one sinusoidal
//             day-night wave over the run (peak ~1.9R, trough ~0.1R)
//   flash     steady at R, except a 5xR flash crowd in the middle fifth
//
// Every admitted job uses one profiled workload description (--workload,
// default "EP" on the simulated x3-2 machine), so the daemon's
// prediction cache behaves as it would under a homogeneous job stream;
// admits that the rack cannot place (capacity) count as `rejected`, are
// excluded from latency, and are not departed.
//
// Admit latencies flow through the obs histogram
// loadgen.admit.latency_us (ExponentialBounds(1, 2, 24)); the report gives
// admits/sec plus p50/p90/p99 interpolated from those buckets.
// --json-out writes the result in google-benchmark JSON so
// tools/check_bench_regression.py gates it against
// bench/BENCH_serve_baseline.json: LG_AdmitThroughput carries
// items_per_second, LG_AdmitLatencyP50/P90/P99 carry the percentile as
// real_time (throughput = its inverse, so higher latency = regression).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/pandia.h"
#include "src/util/clock.h"
#include "tools/tool_common.h"

namespace {

using namespace pandia;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --socket=PATH [--mode=closed|open] [--connections=C] "
      "[--requests=N] [--batch=B] [--pattern=steady|poisson|diurnal|flash] "
      "[--rate=R] [--seed=S] [--threads=T] [--workload=NAME] "
      "[--timeout-ms=N] [--json-out=FILE]\n",
      argv0);
  return 2;
}

obs::Histogram& AdmitLatency() {
  static obs::Histogram& histogram = obs::MetricsRegistry::Global().histogram(
      "loadgen.admit.latency_us", obs::ExponentialBounds(1, 2, 24));
  return histogram;
}

struct LoadgenConfig {
  std::string socket_path;
  std::string mode = "closed";
  std::string pattern = "poisson";
  std::string workload = "EP";
  std::string json_out;
  int connections = 4;
  int requests = 2000;
  int batch = 16;
  double rate = 2000.0;
  uint64_t seed = 1;
  int job_threads = 2;
  int timeout_ms = 30000;
};

// Tallies shared by the connection workers; merged under plain summation
// (each worker owns its slot, no locking).
struct WorkerResult {
  int64_t admits = 0;
  int64_t rejected = 0;
  int64_t errors = 0;  // non-capacity failures: always a loadgen failure
};

serve::ClientOptions ClientOptionsFor(const LoadgenConfig& config) {
  serve::ClientOptions options;
  options.timeout_ms = config.timeout_ms;
  options.retries = 4;  // ride through the daemon still coming up
  return options;
}

// Capacity refusals are expected under closed-loop overdrive; everything
// else is a generator failure.
bool IsCapacityRefusal(const wire::Response& response) {
  return !response.ok && (response.code == StatusCode::kFailedPrecondition ||
                          response.code == StatusCode::kNotFound);
}

// One closed-loop worker: pipelined ADMIT batches, then the DEPARTs for
// whatever was actually admitted.
Status RunClosedWorker(const LoadgenConfig& config, int worker,
                       const std::string& admit_suffix, WorkerResult& result) {
  StatusOr<serve::Client> client =
      serve::Client::Connect(config.socket_path, ClientOptionsFor(config));
  if (!client.ok()) {
    return client.status();
  }
  const int total = config.requests / config.connections +
                    (worker < config.requests % config.connections ? 1 : 0);
  int sent = 0;
  int sequence = 0;
  while (sent < total) {
    const int batch = std::min(config.batch, total - sent);
    std::vector<std::string> names;
    names.reserve(static_cast<size_t>(batch));
    std::string admits;
    for (int i = 0; i < batch; ++i) {
      names.push_back(StrFormat("lg-c%d-%d", worker, sequence++));
      admits += StrFormat("ADMIT name=%s%s", names.back().c_str(),
                          admit_suffix.c_str());
      admits += '\n';
    }
    const int64_t batch_start_ns = util::SteadyNowNs();
    if (Status status = client->Send(admits); !status.ok()) {
      return status;
    }
    std::vector<std::string> departs;
    for (int i = 0; i < batch; ++i) {
      StatusOr<wire::Response> response = client->Receive();
      if (!response.ok()) {
        return response.status();
      }
      if (response->ok) {
        // Pipelined latency: from the batch write to this block's arrival.
        AdmitLatency().Observe(
            static_cast<double>(util::SteadyNowNs() - batch_start_ns) / 1000.0);
        ++result.admits;
        departs.push_back("DEPART name=" + names[static_cast<size_t>(i)]);
      } else if (IsCapacityRefusal(*response)) {
        ++result.rejected;
      } else {
        ++result.errors;
      }
    }
    if (!departs.empty()) {
      StatusOr<std::vector<wire::Response>> departed =
          client->CallMany(departs);
      if (!departed.ok()) {
        return departed.status();
      }
      for (const wire::Response& response : *departed) {
        if (!response.ok) {
          ++result.errors;
        }
      }
    }
    sent += batch;
  }
  return Status::Ok();
}

// Inter-arrival gaps (ns) for the open-loop schedule, drawn up front from
// the seeded RNG so a trace replays identically for a given --seed.
std::vector<int64_t> BuildSchedule(const LoadgenConfig& config) {
  Rng rng(config.seed);
  std::vector<int64_t> gaps;
  gaps.reserve(static_cast<size_t>(config.requests));
  const double base_rate = config.rate > 0.0 ? config.rate : 1.0;
  double elapsed_s = 0.0;
  // Nominal run length at the base rate, for shaping diurnal/flash.
  const double horizon_s = static_cast<double>(config.requests) / base_rate;
  for (int i = 0; i < config.requests; ++i) {
    double rate = base_rate;
    if (config.pattern == "diurnal") {
      // One full day-night wave across the run; never fully dark.
      const double phase = 2.0 * M_PI * (elapsed_s / horizon_s);
      rate = base_rate * (1.0 + 0.9 * std::sin(phase));
      if (rate < 0.1 * base_rate) {
        rate = 0.1 * base_rate;
      }
    } else if (config.pattern == "flash") {
      // Flash crowd: 5x the rate through the middle fifth of the run.
      const bool in_flash = elapsed_s >= 0.4 * horizon_s &&
                            elapsed_s < 0.6 * horizon_s;
      rate = in_flash ? 5.0 * base_rate : base_rate;
    }
    double gap_s = 1.0 / rate;
    if (config.pattern != "steady") {
      // Exponential inter-arrival at the instantaneous rate (Poisson).
      double u = rng.NextDouble();
      if (u >= 1.0) {
        u = 0.999999;
      }
      gap_s = -std::log(1.0 - u) / rate;
    }
    elapsed_s += gap_s;
    gaps.push_back(static_cast<int64_t>(gap_s * 1e9));
  }
  return gaps;
}

// Open loop: one connection replays the schedule; each arrival pipelines
// its ADMIT and (on success) DEPART. Arrivals never wait for the daemon —
// if the previous exchange overran the next slot, the request goes out
// immediately and its latency includes the backlog.
Status RunOpenLoop(const LoadgenConfig& config, const std::string& admit_suffix,
                   WorkerResult& result) {
  StatusOr<serve::Client> client =
      serve::Client::Connect(config.socket_path, ClientOptionsFor(config));
  if (!client.ok()) {
    return client.status();
  }
  const std::vector<int64_t> gaps = BuildSchedule(config);
  int64_t due_ns = util::SteadyNowNs();
  for (size_t i = 0; i < gaps.size(); ++i) {
    due_ns += gaps[i];
    const int64_t now_ns = util::SteadyNowNs();
    if (now_ns < due_ns) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now_ns));
    }
    const std::string name = StrFormat("lg-open-%zu", i);
    const int64_t send_ns = util::SteadyNowNs();
    StatusOr<wire::Response> admitted = client->Call(
        StrFormat("ADMIT name=%s%s", name.c_str(), admit_suffix.c_str()));
    if (!admitted.ok()) {
      return admitted.status();
    }
    if (admitted->ok) {
      AdmitLatency().Observe(static_cast<double>(util::SteadyNowNs() - send_ns) / 1000.0);
      ++result.admits;
      StatusOr<wire::Response> departed =
          client->Call("DEPART name=" + name);
      if (!departed.ok()) {
        return departed.status();
      }
      if (!departed->ok) {
        ++result.errors;
      }
    } else if (IsCapacityRefusal(*admitted)) {
      ++result.rejected;
    } else {
      ++result.errors;
    }
  }
  return Status::Ok();
}

Status WriteJsonReport(const LoadgenConfig& config, double admits_per_second,
                       int64_t admits, double wall_s, double p50_us,
                       double p90_us, double p99_us) {
  std::string json = "{\n  \"context\": {\n";
  json += StrFormat("    \"num_cpus\": %u,\n",
                    std::thread::hardware_concurrency());
  json += StrFormat("    \"pandia_hardware_threads\": %u,\n",
                    std::thread::hardware_concurrency());
#ifdef NDEBUG
  json += "    \"library_build_type\": \"release\",\n";
  json += "    \"pandia_build_type\": \"Release\",\n";
#else
  json += "    \"library_build_type\": \"debug\",\n";
  json += "    \"pandia_build_type\": \"Debug\",\n";
#endif
  json += StrFormat(
      "    \"loadgen_mode\": \"%s\",\n    \"loadgen_pattern\": \"%s\",\n"
      "    \"loadgen_connections\": %d,\n    \"loadgen_requests\": %d,\n"
      "    \"loadgen_batch\": %d,\n    \"loadgen_seed\": %llu\n",
      config.mode.c_str(), config.pattern.c_str(), config.connections,
      config.requests, config.batch,
      static_cast<unsigned long long>(config.seed));
  json += "  },\n  \"benchmarks\": [\n";
  const auto row = [](const char* name, double real_time_ns,
                      const char* extra) {
    return StrFormat(
        "    {\"name\": \"%s\", \"run_name\": \"%s\", \"run_type\": "
        "\"iteration\", \"iterations\": 1, \"real_time\": %.1f, "
        "\"cpu_time\": 0.0, \"time_unit\": \"ns\"%s}",
        name, name, real_time_ns, extra);
  };
  json += row("LG_AdmitThroughput", wall_s * 1e9 /
                                        static_cast<double>(
                                            admits > 0 ? admits : 1),
              StrFormat(", \"items_per_second\": %.1f", admits_per_second)
                  .c_str());
  json += ",\n";
  json += row("LG_AdmitLatencyP50", p50_us * 1000.0, "");
  json += ",\n";
  json += row("LG_AdmitLatencyP90", p90_us * 1000.0, "");
  json += ",\n";
  json += row("LG_AdmitLatencyP99", p99_us * 1000.0, "");
  json += "\n  ]\n}\n";
  return WriteTextFile(config.json_out, json);
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenConfig config;
  // Positive-integer flags share one parse; the rest are handled inline.
  const struct {
    const char* prefix;
    int* target;
  } int_flags[] = {
      {"--connections=", &config.connections},
      {"--requests=", &config.requests},
      {"--batch=", &config.batch},
      {"--threads=", &config.job_threads},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool matched = false;
    for (const auto& flag : int_flags) {
      const size_t n = std::strlen(flag.prefix);
      if (arg.compare(0, n, flag.prefix) != 0) {
        continue;
      }
      const StatusOr<int> parsed =
          tools::ParseIntFlag(arg.c_str() + n,
                              std::string(flag.prefix, n - 1).c_str());
      if (!parsed.ok() || *parsed < 1) {
        std::fprintf(stderr, "error: %s needs a positive integer\n",
                     std::string(flag.prefix, n - 1).c_str());
        return 2;
      }
      *flag.target = *parsed;
      matched = true;
      break;
    }
    if (matched) {
      continue;
    }
    if (arg.rfind("--socket=", 0) == 0) {
      config.socket_path = arg.substr(9);
    } else if (arg.rfind("--mode=", 0) == 0) {
      config.mode = arg.substr(7);
    } else if (arg.rfind("--pattern=", 0) == 0) {
      config.pattern = arg.substr(10);
    } else if (arg.rfind("--workload=", 0) == 0) {
      config.workload = arg.substr(11);
    } else if (arg.rfind("--json-out=", 0) == 0) {
      config.json_out = arg.substr(11);
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      const StatusOr<int> parsed =
          tools::ParseIntFlag(arg.c_str() + 13, "--timeout-ms");
      if (!parsed.ok() || *parsed < 0) {
        std::fprintf(stderr,
                     "error: --timeout-ms needs a non-negative integer\n");
        return 2;
      }
      config.timeout_ms = *parsed;
    } else if (arg.rfind("--rate=", 0) == 0) {
      char* end = nullptr;
      config.rate = std::strtod(arg.c_str() + 7, &end);
      if (end == arg.c_str() + 7 || *end != '\0' || config.rate <= 0.0) {
        std::fprintf(stderr, "error: --rate needs a positive number\n");
        return 2;
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      const StatusOr<int> parsed = tools::ParseIntFlag(arg.c_str() + 7, "--seed");
      if (!parsed.ok() || *parsed < 0) {
        std::fprintf(stderr, "error: --seed needs a non-negative integer\n");
        return 2;
      }
      config.seed = static_cast<uint64_t>(*parsed);
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (config.socket_path.empty()) {
    return Usage(argv[0]);
  }
  if (config.mode != "closed" && config.mode != "open") {
    std::fprintf(stderr, "error: --mode must be closed or open\n");
    return 2;
  }
  if (config.pattern != "steady" && config.pattern != "poisson" &&
      config.pattern != "diurnal" && config.pattern != "flash") {
    std::fprintf(stderr,
                 "error: --pattern must be steady, poisson, diurnal, or flash\n");
    return 2;
  }

  // One profiled description shared by every job, rendered once into the
  // ADMIT line suffix (the description document dominates the line).
  if (!workloads::Exists(config.workload)) {
    return tools::FailWith(Status::NotFound(
        StrFormat("unknown --workload '%s'", config.workload.c_str())));
  }
  const eval::Pipeline pipeline("x3-2");
  const std::string description_text = WorkloadDescriptionToText(
      pipeline.Profile(workloads::ByName(config.workload)));
  const std::string admit_suffix = StrFormat(
      " threads=%d desc.%s=%s", config.job_threads,
      pipeline.description().topo.name.c_str(),
      wire::EscapeValue(description_text).c_str());

  std::fprintf(stderr,
               "pandia_loadgen: %s loop, pattern=%s, %d request(s), "
               "%d connection(s), batch=%d, seed=%llu\n",
               config.mode.c_str(), config.pattern.c_str(), config.requests,
               config.connections, config.batch,
               static_cast<unsigned long long>(config.seed));

  const int64_t start_ns = util::SteadyNowNs();
  std::vector<WorkerResult> results(
      static_cast<size_t>(config.mode == "closed" ? config.connections : 1));
  std::vector<Status> statuses(results.size(), Status::Ok());
  if (config.mode == "closed") {
    std::vector<std::thread> workers;
    workers.reserve(results.size());
    for (size_t w = 0; w < results.size(); ++w) {
      workers.emplace_back([&, w] {
        statuses[w] = RunClosedWorker(config, static_cast<int>(w),
                                      admit_suffix, results[w]);
      });
    }
    for (std::thread& worker : workers) {
      worker.join();
    }
  } else {
    statuses[0] = RunOpenLoop(config, admit_suffix, results[0]);
  }
  const double wall_s = static_cast<double>(util::SteadyNowNs() - start_ns) / 1e9;

  for (const Status& status : statuses) {
    if (!status.ok()) {
      return tools::FailWith(status, config.socket_path);
    }
  }
  WorkerResult total;
  for (const WorkerResult& result : results) {
    total.admits += result.admits;
    total.rejected += result.rejected;
    total.errors += result.errors;
  }
  const double admits_per_second =
      wall_s > 0.0 ? static_cast<double>(total.admits) / wall_s : 0.0;
  const double p50_us = AdmitLatency().Percentile(0.50);
  const double p90_us = AdmitLatency().Percentile(0.90);
  const double p99_us = AdmitLatency().Percentile(0.99);
  std::fprintf(stderr,
               "pandia_loadgen: %lld admit(s) in %.3fs = %.1f admits/sec; "
               "latency p50=%.1fus p90=%.1fus p99=%.1fus; "
               "rejected=%lld error(s)=%lld\n",
               static_cast<long long>(total.admits), wall_s, admits_per_second,
               p50_us, p90_us, p99_us, static_cast<long long>(total.rejected),
               static_cast<long long>(total.errors));

  if (!config.json_out.empty()) {
    if (Status written =
            WriteJsonReport(config, admits_per_second, total.admits, wall_s,
                            p50_us, p90_us, p99_us);
        !written.ok()) {
      return tools::FailWith(written, config.json_out);
    }
  }
  if (total.errors > 0 || total.admits == 0) {
    std::fprintf(stderr, "error: load run failed (%lld error(s), %lld admit(s))\n",
                 static_cast<long long>(total.errors),
                 static_cast<long long>(total.admits));
    return 1;
  }
  return 0;
}
