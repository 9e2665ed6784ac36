// The serving and search benchmark (see perfbench/README.md).
//
// Three workloads drive Pandia from outside the program:
//   serve-sparse  ADMIT then DEPART of one job at a time against the real
//                 pandia_serve daemon over its Unix socket (empty rack)
//   serve-dense   the same daemon with the rack held at ~90% occupancy
//   search-cold   in-process best + cheapest placement searches from an
//                 empty prediction cache
// A run replays its seeded trace as identical episodes and times each
// request by its fastest round trip over them; a traced run (--trace 1)
// adds the per-layer metrics measured around the library's public calls.
#ifndef PANDIA_PERFBENCH_BENCH_H_
#define PANDIA_PERFBENCH_BENCH_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/pandia.h"

namespace pandia {
namespace perfbench {

// ---------------------------------------------------------------- metrics

struct MetricSpec {
  const char* name;
  const char* unit;
};

// What a user of the system sees; every run with --trace 0 reports each.
// "place" is the request that yields a placement: ADMIT on serve-*, one
// best + cheapest query on search-cold. The tail is p99 on serve-* and p90
// on search-cold: the highest percentile with at least ten samples beyond
// it in the scored episode.
inline constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},       {"place_p50_us", "us"},
    {"place_tail_us", "us"},    {"placement_speedup", "x"},
    {"setup_s", "s"},           {"peak_rss_mb", "MiB"},
};

// Single-layer metrics; every run with --trace 1 reports each (0 where the
// workload never runs that layer). README.md maps each to the end-to-end
// metric it should move.
inline constexpr MetricSpec kPerLayer[] = {
    {"serialize.parse_us", "us"},
    {"serialize.desc_decode_us", "us"},
    {"serialize.desc_encode_us", "us"},
    {"serialize.format_us", "us"},
    {"serialize.admit_bytes", "B"},
    {"serve.handle_admit_us", "us"},
    {"serve.handle_depart_us", "us"},
    {"serve.handle_telemetry_us", "us"},
    {"serve.self_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.journal_append_us", "us"},
    {"serve.journal_bytes_per_op", "B"},
    {"serve.compactions", "count"},
    {"serve.startup_ms", "ms"},
    {"serve.prefill_ms", "ms"},
    {"rack.probe_us", "us"},
    {"rack.solves_per_admit", "count"},
    {"rack.solves_per_depart", "count"},
    {"rack.moves_per_depart", "count"},
    {"rack.move_yield", "ratio"},
    {"rack.telemetry_us", "us"},
    {"predictor.solve_us", "us"},
    {"predictor.iterations_per_solve", "count"},
    {"predictor.cache_hit_ratio", "ratio"},
    {"predictor.cache_evictions", "count"},
    {"predictor.non_converged", "count"},
    {"predictor.divergence_retries", "count"},
    {"predictor.best_ms", "ms"},
    {"predictor.cheapest_ms", "ms"},
    {"predictor.placements_per_query", "count"},
    {"machine_desc.generate_ms", "ms"},
    {"workload_desc.profile_us", "us"},
    {"client.depart_p50_us", "us"},
    {"client.depart_p99_us", "us"},
    {"client.telemetry_p50_us", "us"},
    {"trace.overhead_pct", "%"},
};

// Metric values by name; ResultJson() emits them in spec order.
using MetricValues = std::map<std::string, double>;

// The result line: {"correct": ..., "attempted": ..., "failed": ...,
// "metrics": {name: {"value": v, "unit": u}}} over every metric of `specs`.
// Values print with all their digits. Fails when a spec metric is missing.
StatusOr<std::string> ResultJson(bool correct, int64_t attempted, int64_t failed,
                                 std::span<const MetricSpec> specs,
                                 const MetricValues& values);

// Linear interpolation between order statistics (the "inclusive" method of
// Python's statistics.quantiles). Empty input reads 0.
double Quantile(std::vector<double> values, double q);
// The highest of p99/p90/p50 with at least ten samples beyond it among `n`
// (p50 when even that is out of reach).
double TailQuantileFor(size_t n);
// The fastest-request rule: element i is the least element i of any of
// `episodes`, each one episode's timed latencies in request order. Identical
// episodes send the same requests from the same state, so request i costs
// the program the same in every one; interference only adds to it.
std::vector<double> FastestPerRequest(std::span<const std::vector<double>* const> episodes);

// ------------------------------------------------------------------ spans

// Traced runs record spans into private obs::Tracer instances, one for the
// set-up and one for the episodes, with the request id as each span's arg.
// A span's parent is the innermost span one level up that contains it.

// Mean duration in microseconds of the spans named `name` (0 if none).
double MeanUs(const std::vector<obs::TraceEvent>& events, std::string_view name);
// Per-name self time (duration minus the direct children's durations), as a
// text table sorted by total self time.
std::string SelfTimeTable(std::vector<obs::TraceEvent> events);

int64_t NowNs();

// ----------------------------------------------------------------- traces

inline constexpr int kMachines = 4;
inline constexpr char kMachineType[] = "x3-2";
// Requested threads, one cycle. ADMIT latency grows with the thread count,
// so its histogram has one mode per count: the 4-thread third holds the
// median, and the slowest description's two 8-thread ADMITs per cycle fill
// the top 1.5%, so p99 falls inside that mode (README.md, "Percentiles and
// modes").
inline constexpr int kThreadMix[] = {1, 2, 4, 4, 8, 8};
// serve-dense holds the rack at this share of its hardware threads, with
// jobs that all request kDenseThreads: one thread count keeps the ADMIT
// and DEPART histograms free of thread-count modes and the rack's state
// (about seven residents per machine) alike from seed to seed.
inline constexpr double kDenseOccupancy = 0.90;
inline constexpr int kDenseThreads = 4;
inline constexpr double kDenseJitter = 1e-9;
// serve-dense: one TELEMETRY read after this many mutations.
inline constexpr int kTelemetryEvery = 16;

// Seeded Fisher-Yates permutation of 0..n-1.
std::vector<size_t> Shuffled(size_t n, Rng& rng);

// A request trace: wire lines in order; the first `warmup` are untimed.
struct Trace {
  std::vector<std::string> lines;
  size_t warmup = 0;
};

// The " desc.x3-2=<escaped text>" ADMIT parameter of each description.
std::vector<std::string> DescParams(const std::vector<WorkloadDescription>& descriptions);

// One serve-sparse cycle: every suite description with every entry of
// kThreadMix.
inline constexpr int kSparseCycle = 22 * static_cast<int>(std::size(kThreadMix));

// serve-sparse: `warmup_pairs + timed_pairs` ADMIT/DEPART pairs. Each cycle
// is a fresh seeded shuffle, so the timed part covers whole cycles and its
// request multiset is the same for every seed (timed_pairs must be a
// multiple of kSparseCycle).
Trace SparseTrace(uint64_t seed, const std::vector<std::string>& desc_params,
                  int warmup_pairs, int timed_pairs);

// search-cold: `cycles` seeded shuffles of the 22 suite workload names,
// each followed by a second EP query. The extra cheap query moves the
// query-time median into the middle of one workload's mode and keeps p90
// inside the slowest group (README.md, "Percentiles and modes").
std::vector<std::string> SearchTrace(uint64_t seed, int cycles);
inline constexpr char kSearchExtra[] = "EP";

// serve-dense jobs: job i runs suite workload i mod 22, with its own
// description profiled under a FaultPlan time jitter seeded by (seed, i),
// so no two texts are equal and every seed sends other texts. The jitter
// is kDenseJitter: placements in a full rack are chaotic in their inputs,
// and a realistic 3% jitter, or a seeded workload order, moved the solver
// work of an episode by 8-10% from seed to seed, while at 1e-9 every
// placement decision, and so the work, is the same for every seed.
// Profiles lazily and memoizes; job i is a pure function of (seed, i).
class DenseJobs {
 public:
  // Profiles are timed as spans on `setup`.
  DenseJobs(uint64_t seed, obs::Tracer& setup);
  // "ADMIT name=<name> threads=<t> desc.x3-2=<text>" for job i.
  std::string AdmitLine(const std::string& name, size_t i);
  // Profiles jobs up to n - 1 now (set-up) rather than on first use.
  void Prepare(size_t n);

 private:
  uint64_t seed_;
  obs::Tracer& setup_;
  eval::Pipeline pipeline_;
  std::vector<sim::WorkloadSpec> suite_;
  std::vector<std::string> params_;  // " threads=.. desc.x3-2=.." per job
};

// ------------------------------------------------------- output checks

// Capacity refusals are the one expected error (an ADMIT no machine can
// fit); anything else fails the run.
bool IsCapacityRefusal(const wire::Response& response);

// The benchmark's own model of the rack: free hardware threads per core of
// every machine and each resident's placement, built only from ADMIT,
// DEPART and `moved =` response rows. Apply() fails when a response would
// oversubscribe a hardware thread, names an unknown job, or contradicts the
// model; MatchStatus() compares the model with a STATUS response.
class ThreadModel {
 public:
  ThreadModel(int machines, int cores, int threads_per_core);

  Status Apply(const wire::Request& request, const wire::Response& response);
  Status MatchStatus(const wire::Response& status) const;

  int used() const { return used_; }
  // Resident names in admission order (moves keep a job's slot).
  const std::vector<std::string>& residents() const { return order_; }
  // Residents on the machine hosting `job` (0 when not resident).
  int NeighboursOf(const std::string& job) const;

 private:
  struct Job {
    int machine = -1;
    std::vector<uint8_t> per_core;
  };
  Status Occupy(const std::string& name, int machine, const std::string& csv);
  void Release(const std::string& name);

  int cores_;
  int threads_per_core_;
  int used_ = 0;
  std::vector<std::vector<int>> free_;  // [machine][core]
  std::map<std::string, Job> jobs_;
  std::vector<std::string> order_;
};

// Checks every episode's response transcript against the first one.
class TranscriptCheck {
 public:
  // Records (first episode) or compares response `index`. Returns false for
  // the first mismatching response of an episode only, so a diverging
  // episode is reported once; first_mismatch() names it.
  bool Check(size_t index, const std::string& raw);
  void NextEpisode();
  std::string first_mismatch() const { return mismatch_; }

 private:
  std::vector<std::string> first_;
  size_t episode_ = 0;
  bool mismatched_this_episode_ = false;
  std::string mismatch_;
};

// Response lines of one raw block ("ok VERB", payload..., ".").
StatusOr<wire::Response> ParseRawResponse(const std::string& raw);
// Value of a "key = value" payload row, or nullopt.
std::optional<std::string> PayloadValue(const wire::Response& response,
                                        std::string_view key);

// ------------------------------------------------------------------ daemon

// Peak resident set (VmHWM) of process `pid` in MiB; 0 reads this process.
// VmHWM belongs to one address space, so a spawned child never reports the
// parent's peak (the rusage maximum of a child would).
double PeakRssMb(int pid);

struct DaemonConfig {
  std::string binary;   // pandia_serve
  std::string socket;   // Unix socket path (short, relative)
  std::string journal;  // journal file
  std::string log;      // daemon stdout/stderr
};

// One pandia_serve process: spawned with the benchmark's fixed flags,
// connected over its socket (HELLO included), and always reaped — the
// destructor kills and waits for a daemon that did not shut down.
class Daemon {
 public:
  static StatusOr<std::unique_ptr<Daemon>> Start(const DaemonConfig& config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // One request line -> its raw response block.
  StatusOr<std::string> Call(const std::string& line);
  // Peak resident set of the daemon so far, in MiB.
  double PeakRssMb() const { return perfbench::PeakRssMb(pid_); }
  // SHUTDOWN, then wait for the process to exit.
  Status Stop();
  // Spawn until the HELLO handshake was answered.
  double startup_ms() const { return startup_ms_; }

 private:
  Daemon() = default;
  void Kill();

  int pid_ = -1;
  int stdin_fd_ = -1;
  std::optional<serve::Client> client_;
  double startup_ms_ = 0.0;
};

// ------------------------------------------------------------------ shadow

enum VerbIndex { kAdmitVerb, kDepartVerb, kTelemetryVerb, kOtherVerb, kVerbCount };
extern const char* const kVerbNames[kVerbCount];
VerbIndex VerbOf(std::string_view verb);

// Tallies of the shadow's timed requests.
struct ShadowTotals {
  int64_t probe_solves = 0;
  double probe_us = 0.0;
  int64_t solves[kVerbCount] = {};  // joint solves inside Handle
  int64_t requests[kVerbCount] = {};
  double transport_us = 0.0;  // ADMITs only
};

// The traced run's in-process PlacementService, restored from the same
// starting journal as the daemon. Step() replays one request with spans on
// `tracer` (while it is enabled) around each public call: parse,
// description decode, the ADMIT probe, Handle, description encode,
// Rack::Telemetry and response format. It fails unless its response equals
// the daemon's.
//
// Handle runs on the daemon's state and prediction-cache contents, so its
// time and joint solves are the daemon's. The probe (Rack::BestCandidateOn
// on every machine) runs on a copy of the rack without a prediction cache:
// on the service's own rack it would memoize the baseline solves that
// Handle then skips.
class Shadow {
 public:
  static StatusOr<std::unique_ptr<Shadow>> Create(const std::string& journal,
                                                  obs::Tracer& tracer);
  // The probe runs, and totals are recorded, for timed requests only.
  Status Step(int64_t id, const std::string& line, const std::string& daemon_raw,
              double rtt_us, bool timed, ShadowTotals& totals);

 private:
  Shadow(serve::PlacementService service, rack::Rack probe, obs::Tracer& tracer)
      : service_(std::move(service)), probe_(std::move(probe)), tracer_(tracer) {}

  serve::PlacementService service_;
  rack::Rack probe_;  // restored from service_'s rack before each probe
  obs::Tracer& tracer_;
};

// ------------------------------------------------------------------- runs

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string serve_binary;
  std::string work_dir;
};

struct RunResult {
  bool correct = true;
  std::vector<std::string> failures;
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t refused = 0;  // capacity refusals
  int64_t failed = 0;
  int episodes = 0;
  // Median over fastest episode time: how much the host slowed the others.
  double median_to_fastest = 0.0;
  MetricValues end_to_end;
  MetricValues per_layer;
  std::string diagnostics;  // human-readable, for stderr
  std::string chrome_trace;  // traced runs: Chrome trace_event JSON
  std::string self_times;    // traced runs: per-layer self-time table

  void Fail(std::string message) {
    correct = false;
    failures.push_back(std::move(message));
  }
};

RunResult RunServe(const RunOptions& options);
RunResult RunSearch(const RunOptions& options);

}  // namespace perfbench
}  // namespace pandia

#endif  // PANDIA_PERFBENCH_BENCH_H_
