// serve-sparse and serve-dense: the pandia_serve daemon over its socket.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <sstream>

#include "perfbench/bench.h"

namespace pandia {
namespace perfbench {

namespace {

// Episode sizes: at least 1,000 timed ADMITs and DEPARTs, so p99 has ten
// samples beyond; serve-dense takes 1,500 of each, so its tail rests on 15.
constexpr int kSparseWarmupPairs = kSparseCycle;
constexpr int kSparseTimedPairs = 10 * kSparseCycle;
constexpr size_t kDenseWarmup = 64;  // requests
constexpr int kDenseTimedEach = 1500;  // timed ADMITs and timed DEPARTs, at least

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();
  return out ? Status::Ok() : Status::Internal("cannot write " + path);
}

// "name value" rows of METRICS format=expo.
std::map<std::string, double> ParseExpo(const wire::Response& response) {
  std::map<std::string, double> values;
  for (const std::string& row : response.payload) {
    const size_t space = row.rfind(' ');
    if (space != std::string::npos) {
      values[row.substr(0, space)] = std::strtod(row.c_str() + space + 1, nullptr);
    }
  }
  return values;
}

// Everything an episode starts from; identical for every set-up repetition.
struct Inputs {
  bool dense = false;
  Trace trace;  // dense: recorded during the first episode
  std::string start_journal;
  std::unique_ptr<ThreadModel> start_model;
  std::unique_ptr<DenseJobs> jobs;
  size_t first_episode_job = 0;
  int target = 0;
  int cores = 0;
  int threads_per_core = 0;
};

// Which request comes next in a serve-dense episode: TELEMETRY after every
// kTelemetryEvery mutations; otherwise DEPART the longest-running resident
// at or above the occupancy target and ADMIT the next job below it.
//
// Departing in admission order keeps the residents a sliding window over
// the cycled job stream: every window of ~29 jobs holds each of the 22
// suite workloads at least once. With DenseJobs' fixed order and tiny
// jitter, every seed then does the same solver work; a seeded-random
// departure let long-lived residents pile up by chance and moved solver
// iterations per episode by +-10% from seed to seed.
class DenseSchedule {
 public:
  DenseSchedule(size_t first_job, size_t warmup, int timed_each)
      : next_job_(first_job), warmup_(warmup), timed_each_(timed_each) {}

  // The request at trace position `index`, or nullopt once the timed part
  // holds timed_each ADMITs and timed_each DEPARTs.
  std::optional<std::string> Next(size_t index, const ThreadModel& model, int target,
                                  DenseJobs& jobs) {
    if (since_telemetry_ == kTelemetryEvery) {
      since_telemetry_ = 0;
      return std::string("TELEMETRY");
    }
    if (admits_ >= timed_each_ && departs_ >= timed_each_) {
      return std::nullopt;
    }
    ++since_telemetry_;
    const bool timed = index >= warmup_;
    if (model.used() >= target && !model.residents().empty()) {
      departs_ += timed ? 1 : 0;
      return "DEPART name=" + model.residents().front();
    }
    admits_ += timed ? 1 : 0;
    const size_t job = next_job_++;
    return jobs.AdmitLine(StrFormat("j%zu", job), job);
  }

 private:
  size_t next_job_;
  size_t warmup_;
  int timed_each_;
  int admits_ = 0;
  int departs_ = 0;
  int since_telemetry_ = 0;
};

// Client-side tallies of one episode (timed requests unless noted).
struct Episode {
  bool traced = false;
  std::vector<double> rtt_us[kVerbCount];
  double total_rtt_us = 0.0;
  int64_t timed = 0;
  double speedup_sum = 0.0;
  int64_t speedup_count = 0;
  int64_t admit_bytes = 0;
  int64_t neighbours_probed = 0;
  double peak_rss_mb = 0.0;
  double startup_ms = 0.0;
  std::map<std::string, double> counters;  // daemon metric deltas
  // All requests, warm-up included.
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t refused = 0;
  int64_t failed = 0;

  double ops_per_s() const { return total_rtt_us > 0 ? timed / (total_rtt_us / 1e6) : 0.0; }
  double Counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
};

class ServeBench {
 public:
  ServeBench(const RunOptions& options, RunResult& result)
      : options_(options), result_(result) {}

  void Run();

 private:
  std::string Path(const std::string& name) const { return options_.work_dir + "/" + name; }
  DaemonConfig Config(const std::string& journal) const {
    return DaemonConfig{options_.serve_binary, Path("d.sock"), journal, Path("daemon.log")};
  }
  StatusOr<std::unique_ptr<Inputs>> BuildInputs();
  Status Prefill(Inputs& inputs);
  // One set-up, timed into setup_s: BuildInputs and a daemon start from the
  // starting journal up to the answered HELLO.
  StatusOr<std::unique_ptr<Inputs>> SetUp(std::vector<double>& setup_s);
  Status RunEpisode(Inputs& inputs, bool traced, Episode& episode);
  void Report(const std::vector<Episode>& episodes, double setup_s);

  const RunOptions& options_;
  RunResult& result_;
  TranscriptCheck transcript_;
  obs::Tracer setup_tracer_;  // enabled for the first set-up only
  obs::Tracer tracer_;        // enabled for timed requests of traced episodes
  ShadowTotals shadow_totals_;
  int64_t next_request_id_ = 0;
  bool first_episode_ = true;
};

StatusOr<std::unique_ptr<Inputs>> ServeBench::BuildInputs() {
  auto inputs = std::make_unique<Inputs>();
  inputs->dense = options_.workload == "serve-dense";
  if (inputs->dense) {
    {
      obs::TraceSpan span(setup_tracer_, "machine_desc.generate");
      inputs->jobs = std::make_unique<DenseJobs>(options_.seed, setup_tracer_);
    }
    const eval::Pipeline pipeline(kMachineType);
    inputs->cores = pipeline.description().topo.NumCores();
    inputs->threads_per_core = pipeline.description().topo.threads_per_core;
    inputs->target = static_cast<int>(kDenseOccupancy * kMachines * inputs->cores *
                                      inputs->threads_per_core);
    PANDIA_RETURN_IF_ERROR(Prefill(*inputs));
    // Profile the jobs an episode admits now, as set-up (more, if an
    // episode needs them, are profiled on first use).
    inputs->jobs->Prepare(inputs->first_episode_job + kDenseWarmup +
                          static_cast<size_t>(kDenseTimedEach) * 11 / 10);
    inputs->trace.warmup = kDenseWarmup;
    return inputs;
  }
  std::optional<eval::Pipeline> pipeline;
  {
    obs::TraceSpan span(setup_tracer_, "machine_desc.generate");
    pipeline.emplace(kMachineType);
  }
  inputs->cores = pipeline->description().topo.NumCores();
  inputs->threads_per_core = pipeline->description().topo.threads_per_core;
  std::vector<WorkloadDescription> descriptions;
  for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
    obs::TraceSpan span(setup_tracer_, "workload_desc.profile");
    descriptions.push_back(pipeline->Profile(workload));
  }
  inputs->trace = SparseTrace(options_.seed, DescParams(descriptions), kSparseWarmupPairs,
                              kSparseTimedPairs);
  inputs->start_model = std::make_unique<ThreadModel>(kMachines, inputs->cores,
                                                      inputs->threads_per_core);
  return inputs;
}

// serve-dense's starting state: admit jobs into a fresh daemon until the
// target occupancy, then COMPACT so the journal is one SNAPSHOT record.
Status ServeBench::Prefill(Inputs& inputs) {
  obs::TraceSpan span(setup_tracer_, "serve.prefill");
  const std::string journal = Path("prefill.journal");
  ::unlink(journal.c_str());
  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(Config(journal));
  if (!daemon.ok()) {
    return daemon.status();
  }
  auto model = std::make_unique<ThreadModel>(kMachines, inputs.cores,
                                             inputs.threads_per_core);
  size_t job = 0;
  while (model->used() < inputs.target) {
    const std::string line = inputs.jobs->AdmitLine(StrFormat("j%zu", job), job);
    ++job;
    StatusOr<std::string> raw = (*daemon)->Call(line);
    if (!raw.ok()) {
      return raw.status();
    }
    StatusOr<wire::Response> response = ParseRawResponse(*raw);
    StatusOr<wire::Request> request = wire::ParseRequest(line);
    if (!response.ok() || !request.ok()) {
      return Status::Internal("unparseable prefill exchange");
    }
    if (!response->ok) {
      return Status::Internal("prefill ADMIT failed: " + response->error);
    }
    PANDIA_RETURN_IF_ERROR(model->Apply(*request, *response));
  }
  for (const char* line : {"COMPACT", "STATUS"}) {
    StatusOr<std::string> raw = (*daemon)->Call(line);
    if (!raw.ok()) {
      return raw.status();
    }
    StatusOr<wire::Response> response = ParseRawResponse(*raw);
    if (!response.ok() || !response->ok) {
      return Status::Internal(std::string(line) + " failed after the prefill");
    }
    if (std::string(line) == "STATUS") {
      PANDIA_RETURN_IF_ERROR(model->MatchStatus(*response));
    }
  }
  PANDIA_RETURN_IF_ERROR((*daemon)->Stop());
  inputs.start_journal = ReadFile(journal);
  inputs.start_model = std::move(model);
  inputs.first_episode_job = job;
  return Status::Ok();
}

Status ServeBench::RunEpisode(Inputs& inputs, bool traced, Episode& episode) {
  episode.traced = traced;
  const std::string journal = Path("episode.journal");
  ::unlink(journal.c_str());
  if (!inputs.start_journal.empty()) {
    PANDIA_RETURN_IF_ERROR(WriteFile(journal, inputs.start_journal));
  }
  std::unique_ptr<Shadow> shadow;
  if (traced) {
    const std::string shadow_journal = Path("shadow.journal");
    ::unlink(shadow_journal.c_str());
    if (!inputs.start_journal.empty()) {
      PANDIA_RETURN_IF_ERROR(WriteFile(shadow_journal, inputs.start_journal));
    }
    StatusOr<std::unique_ptr<Shadow>> created = Shadow::Create(shadow_journal, tracer_);
    if (!created.ok()) {
      return created.status();
    }
    shadow = std::move(created).value();
  }
  StatusOr<std::unique_ptr<Daemon>> started = Daemon::Start(Config(journal));
  if (!started.ok()) {
    return started.status();
  }
  Daemon& daemon = **started;
  episode.startup_ms = daemon.startup_ms();
  ThreadModel model = *inputs.start_model;
  const bool recording = inputs.dense && first_episode_;
  std::optional<DenseSchedule> schedule;
  if (recording) {
    schedule.emplace(inputs.first_episode_job, inputs.trace.warmup, kDenseTimedEach);
  }
  const auto metrics = [&]() -> StatusOr<std::map<std::string, double>> {
    StatusOr<std::string> raw = daemon.Call("METRICS format=expo");
    if (!raw.ok()) {
      return raw.status();
    }
    StatusOr<wire::Response> response = ParseRawResponse(*raw);
    if (!response.ok() || !response->ok) {
      return Status::Internal("METRICS failed");
    }
    return ParseExpo(*response);
  };
  std::map<std::string, double> before;
  for (size_t i = 0;; ++i) {
    std::string line;
    if (recording) {
      std::optional<std::string> next =
          schedule->Next(i, model, inputs.target, *inputs.jobs);
      if (!next.has_value()) {
        break;
      }
      line = std::move(*next);
      inputs.trace.lines.push_back(line);
    } else if (i < inputs.trace.lines.size()) {
      line = inputs.trace.lines[i];
    } else {
      break;
    }
    const bool timed = i >= inputs.trace.warmup;
    if (i == inputs.trace.warmup) {
      StatusOr<std::map<std::string, double>> values = metrics();
      if (!values.ok()) {
        return values.status();
      }
      before = std::move(*values);
    }
    StatusOr<wire::Request> request = wire::ParseRequest(line);
    if (!request.ok()) {
      return request.status();
    }
    const VerbIndex verb = VerbOf(request->verb);
    int neighbours = 0;
    if (verb == kDepartVerb) {
      neighbours = model.NeighboursOf(*request->Find("name")) - 1;
    }
    const int64_t id = next_request_id_++;
    const bool spans = shadow != nullptr && timed;
    tracer_.SetEnabled(spans);
    std::optional<obs::TraceSpan> client_span;
    if (spans) {
      client_span.emplace(tracer_, "client." + std::string(kVerbNames[verb]), id);
    }
    const int64_t start = NowNs();
    StatusOr<std::string> raw = daemon.Call(line);
    const int64_t end = NowNs();
    client_span.reset();
    if (!raw.ok()) {
      return raw.status();
    }
    const double rtt_us = static_cast<double>(end - start) / 1000.0;
    ++episode.attempted;
    if (!transcript_.Check(i, *raw)) {
      result_.Fail(transcript_.first_mismatch());
    }
    StatusOr<wire::Response> response = ParseRawResponse(*raw);
    if (!response.ok()) {
      return response.status();
    }
    if (Status applied = model.Apply(*request, *response); !applied.ok()) {
      ++episode.failed;
      result_.Fail(applied.ToString());
    } else if (!response->ok) {
      ++episode.refused;
    } else {
      ++episode.succeeded;
    }
    if (shadow != nullptr) {
      if (Status stepped = shadow->Step(id, line, *raw, rtt_us, timed, shadow_totals_);
          !stepped.ok()) {
        result_.Fail(stepped.ToString());
      }
    }
    if (!timed) {
      continue;
    }
    episode.rtt_us[verb].push_back(rtt_us);
    episode.total_rtt_us += rtt_us;
    ++episode.timed;
    if (verb == kAdmitVerb) {
      episode.admit_bytes += static_cast<int64_t>(line.size()) + 1;
      if (const std::optional<std::string> speedup = PayloadValue(*response, "speedup")) {
        episode.speedup_sum += std::strtod(speedup->c_str(), nullptr);
        ++episode.speedup_count;
      }
    } else if (verb == kDepartVerb) {
      episode.neighbours_probed += neighbours;
    }
  }
  tracer_.SetEnabled(false);
  StatusOr<std::map<std::string, double>> after = metrics();
  if (!after.ok()) {
    return after.status();
  }
  for (const auto& [name, value] : *after) {
    episode.counters[name] = value - (before.count(name) ? before.at(name) : 0.0);
  }
  StatusOr<std::string> status = daemon.Call("STATUS");
  if (!status.ok()) {
    return status.status();
  }
  StatusOr<wire::Response> parsed = ParseRawResponse(*status);
  if (!parsed.ok()) {
    return parsed.status();
  }
  if (Status matched = model.MatchStatus(*parsed); !matched.ok()) {
    result_.Fail("final STATUS: " + matched.ToString());
  }
  episode.peak_rss_mb = daemon.PeakRssMb();
  PANDIA_RETURN_IF_ERROR(daemon.Stop());
  first_episode_ = false;
  transcript_.NextEpisode();
  return Status::Ok();
}

StatusOr<std::unique_ptr<Inputs>> ServeBench::SetUp(std::vector<double>& setup_s) {
  setup_tracer_.SetEnabled(setup_s.empty());
  const int64_t start = NowNs();
  StatusOr<std::unique_ptr<Inputs>> built = BuildInputs();
  if (!built.ok()) {
    return built.status();
  }
  const std::string journal = Path("setup.journal");
  ::unlink(journal.c_str());
  if (!(*built)->start_journal.empty()) {
    PANDIA_RETURN_IF_ERROR(WriteFile(journal, (*built)->start_journal));
  }
  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(Config(journal));
  setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  setup_tracer_.SetEnabled(false);
  if (!daemon.ok()) {
    return daemon.status();
  }
  PANDIA_RETURN_IF_ERROR((*daemon)->Stop());
  return built;
}

void ServeBench::Run() {
  ::mkdir(options_.work_dir.c_str(), 0755);
  ::unlink(Path("daemon.log").c_str());
  // One set-up before the first episode and one more after each episode.
  // Spread over the run, their median dodges spells of a second or two in
  // which the host runs the benchmark up to 1.7x slower; back to back at
  // the start, a whole run's set-ups could fall into one.
  std::vector<double> setup_s;
  StatusOr<std::unique_ptr<Inputs>> first = SetUp(setup_s);
  if (!first.ok()) {
    result_.Fail("set-up: " + first.status().ToString());
    return;
  }
  Inputs& inputs = **first;

  // Episodes until the time is up (at least three). A traced run spends
  // the first half untraced, for the overhead comparison.
  std::vector<Episode> episodes;
  const int64_t start = NowNs();
  const auto elapsed_s = [&] { return static_cast<double>(NowNs() - start) / 1e9; };
  int untraced = 0;
  int traced = 0;
  while (true) {
    const double t = elapsed_s();
    if (options_.trace ? (traced >= 1 && t >= options_.seconds)
                       : (untraced >= 3 && t >= options_.seconds)) {
      break;
    }
    const bool trace_now = options_.trace && untraced >= 1 && t >= options_.seconds / 2;
    Episode episode;
    if (Status ran = RunEpisode(inputs, trace_now, episode); !ran.ok()) {
      result_.Fail("episode: " + ran.ToString());
      return;
    }
    (trace_now ? traced : untraced) += 1;
    episodes.push_back(std::move(episode));
    if (!result_.correct) {
      break;
    }
    StatusOr<std::unique_ptr<Inputs>> again = SetUp(setup_s);
    if (!again.ok()) {
      result_.Fail("set-up: " + again.status().ToString());
      return;
    }
    // serve-dense records its trace during the first episode, so there a
    // set-up only builds the starting journal.
    if ((*again)->start_journal != inputs.start_journal ||
        (!inputs.dense && (*again)->trace.lines != inputs.trace.lines)) {
      result_.Fail("set-up repetitions built different inputs");
    }
  }
  Report(episodes, Quantile(setup_s, 0.5));
}

void ServeBench::Report(const std::vector<Episode>& episodes, double setup_s) {
  std::vector<const Episode*> plain;
  const Episode* traced_best = nullptr;
  std::vector<double> times;
  double traced_solves = 0.0;  // the daemon's, in the timed part
  for (const Episode& episode : episodes) {
    result_.attempted += episode.attempted;
    result_.succeeded += episode.succeeded;
    result_.refused += episode.refused;
    result_.failed += episode.failed;
    if (episode.traced) {
      traced_solves += episode.Counter("predictor.predictions");
      if (traced_best == nullptr || episode.total_rtt_us < traced_best->total_rtt_us) {
        traced_best = &episode;
      }
    } else {
      plain.push_back(&episode);
      times.push_back(episode.total_rtt_us);
    }
  }
  result_.episodes = static_cast<int>(episodes.size());
  if (plain.empty()) {
    result_.Fail("no untraced episode completed");
    return;
  }
  const Episode& best = **std::min_element(
      plain.begin(), plain.end(),
      [](const Episode* a, const Episode* b) { return a->total_rtt_us < b->total_rtt_us; });
  result_.median_to_fastest = Quantile(times, 0.5) / best.total_rtt_us;

  // Timings follow the fastest-request rule, per verb; counts and memory
  // come from the fastest episode.
  std::vector<double> fastest[kVerbCount];
  double fastest_total_us = 0.0;
  for (int v = 0; v < kVerbCount; ++v) {
    std::vector<const std::vector<double>*> rtts;
    for (const Episode* episode : plain) {
      rtts.push_back(&episode->rtt_us[v]);
    }
    fastest[v] = FastestPerRequest(rtts);
    fastest_total_us = std::accumulate(fastest[v].begin(), fastest[v].end(), fastest_total_us);
  }
  const std::vector<double>& admits = fastest[kAdmitVerb];
  const double tail = TailQuantileFor(admits.size());
  MetricValues& e2e = result_.end_to_end;
  e2e["ops_per_s"] = static_cast<double>(best.timed) / (fastest_total_us / 1e6);
  e2e["place_p50_us"] = Quantile(admits, 0.5);
  e2e["place_tail_us"] = Quantile(admits, tail);
  e2e["placement_speedup"] =
      best.speedup_count > 0 ? best.speedup_sum / static_cast<double>(best.speedup_count) : 0.0;
  e2e["setup_s"] = setup_s;
  e2e["peak_rss_mb"] = best.peak_rss_mb;

  // The shadow's Handle must do the daemon's joint solves, or its spans
  // and per-verb counts would not be the daemon's.
  int64_t shadow_solves = 0;
  for (const int64_t solves : shadow_totals_.solves) {
    shadow_solves += solves;
  }
  if (traced_best != nullptr && static_cast<double>(shadow_solves) != traced_solves) {
    result_.Fail(StrFormat("the shadow's Handle made %lld joint solves, the daemon %.0f",
                           static_cast<long long>(shadow_solves), traced_solves));
  }

  // Per-layer: counts from the fastest untraced episode's daemon, spans
  // from the traced episodes' shadow.
  std::vector<obs::TraceEvent> events = tracer_.Events();
  const std::vector<obs::TraceEvent> setup_events = setup_tracer_.Events();
  const double departs = static_cast<double>(best.rtt_us[kDepartVerb].size());
  const double mutations =
      static_cast<double>(best.rtt_us[kAdmitVerb].size()) + departs;
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  MetricValues& layer = result_.per_layer;
  layer["serialize.parse_us"] = MeanUs(events, "serialize.parse");
  layer["serialize.desc_decode_us"] = MeanUs(events, "serialize.desc_decode");
  layer["serialize.desc_encode_us"] = MeanUs(events, "serialize.desc_encode");
  layer["serialize.format_us"] = MeanUs(events, "serialize.format");
  layer["serialize.admit_bytes"] =
      ratio(static_cast<double>(best.admit_bytes), static_cast<double>(admits.size()));
  layer["serve.handle_admit_us"] = MeanUs(events, "serve.handle.admit");
  layer["serve.handle_depart_us"] = MeanUs(events, "serve.handle.depart");
  layer["serve.handle_telemetry_us"] = MeanUs(events, "serve.handle.telemetry");
  const double journal_append_us = ratio(best.Counter("serve.journal.append_latency_us.sum"),
                                         best.Counter("serve.journal.append_latency_us.count"));
  const double admits_traced = static_cast<double>(shadow_totals_.requests[kAdmitVerb]);
  const double probe_us = ratio(shadow_totals_.probe_us, admits_traced);
  layer["serve.self_us"] = layer["serve.handle_admit_us"] - layer["serialize.desc_decode_us"] -
                           probe_us - layer["serialize.desc_encode_us"] - journal_append_us;
  layer["serve.transport_us"] = ratio(shadow_totals_.transport_us, admits_traced);
  layer["serve.journal_append_us"] = journal_append_us;
  layer["serve.journal_bytes_per_op"] = ratio(best.Counter("serve.journal.bytes"), mutations);
  layer["serve.compactions"] = best.Counter("serve.journal.compactions");
  std::vector<double> startups;
  for (const Episode* episode : plain) {
    startups.push_back(episode->startup_ms);
  }
  layer["serve.startup_ms"] = Quantile(startups, 0.5);
  layer["serve.prefill_ms"] = MeanUs(setup_events, "serve.prefill") / 1000.0;
  layer["rack.probe_us"] = probe_us;
  layer["rack.solves_per_admit"] =
      ratio(static_cast<double>(shadow_totals_.solves[kAdmitVerb]),
            static_cast<double>(shadow_totals_.requests[kAdmitVerb]));
  layer["rack.solves_per_depart"] =
      ratio(static_cast<double>(shadow_totals_.solves[kDepartVerb]),
            static_cast<double>(shadow_totals_.requests[kDepartVerb]));
  layer["rack.moves_per_depart"] = ratio(best.Counter("rack.moves"), departs);
  layer["rack.move_yield"] =
      ratio(best.Counter("rack.moves"), static_cast<double>(best.neighbours_probed));
  layer["rack.telemetry_us"] = MeanUs(events, "rack.telemetry");
  layer["predictor.solve_us"] =
      ratio(shadow_totals_.probe_us, static_cast<double>(shadow_totals_.probe_solves));
  layer["predictor.iterations_per_solve"] =
      ratio(best.Counter("predictor.iterations"), best.Counter("predictor.predictions"));
  const double hits = best.Counter("prediction_cache.hits");
  layer["predictor.cache_hit_ratio"] =
      ratio(hits, hits + best.Counter("prediction_cache.misses"));
  layer["predictor.cache_evictions"] = best.Counter("prediction_cache.evictions");
  layer["predictor.non_converged"] = best.Counter("predictor.non_converged");
  layer["predictor.divergence_retries"] = best.Counter("predictor.divergence_retries");
  layer["predictor.best_ms"] = 0.0;
  layer["predictor.cheapest_ms"] = 0.0;
  layer["predictor.placements_per_query"] = 0.0;
  layer["machine_desc.generate_ms"] = MeanUs(setup_events, "machine_desc.generate") / 1000.0;
  layer["workload_desc.profile_us"] = MeanUs(setup_events, "workload_desc.profile");
  layer["client.depart_p50_us"] = Quantile(fastest[kDepartVerb], 0.5);
  layer["client.depart_p99_us"] =
      Quantile(fastest[kDepartVerb], TailQuantileFor(fastest[kDepartVerb].size()));
  layer["client.telemetry_p50_us"] = Quantile(fastest[kTelemetryVerb], 0.5);
  layer["trace.overhead_pct"] =
      traced_best == nullptr ? 0.0
                             : 100.0 * (1.0 - traced_best->ops_per_s() / best.ops_per_s());

  std::string& d = result_.diagnostics;
  d += StrFormat("fastest episode: %lld timed requests in %.1f ms (%.1f ops/s); "
                 "daemon solves=%.0f iterations=%.0f moves=%.0f\n",
                 static_cast<long long>(best.timed), best.total_rtt_us / 1000.0,
                 best.ops_per_s(), best.Counter("predictor.predictions"),
                 best.Counter("predictor.iterations"), best.Counter("rack.moves"));
  d += "untraced episode ms:";
  for (double t : times) {
    d += StrFormat(" %.0f", t / 1000.0);
  }
  d += StrFormat("\nfastest requests: %.1f ms (%.1f ops/s)\n", fastest_total_us / 1000.0,
                 e2e["ops_per_s"]);
  for (int v = 0; v < kOtherVerb; ++v) {
    const std::vector<double>& rtt = fastest[v];
    if (rtt.empty()) {
      continue;
    }
    const double q = TailQuantileFor(rtt.size());
    d += StrFormat("  %-9s n=%-5zu p50=%.1fus p%.0f=%.1fus (%zu beyond)\n", kVerbNames[v],
                   rtt.size(), Quantile(rtt, 0.5), q * 100, Quantile(rtt, q),
                   static_cast<size_t>(static_cast<double>(rtt.size()) * (1.0 - q)));
  }
  if (traced_best != nullptr) {
    d += StrFormat("traced episode: %.1f ops/s, overhead %.1f%% against untraced; "
                   "Handle solves=%lld (the daemon's); probe solves per ADMIT=%.1f "
                   "uncached, %.1f in Handle\n",
                   traced_best->ops_per_s(), layer["trace.overhead_pct"],
                   static_cast<long long>(shadow_solves),
                   ratio(static_cast<double>(shadow_totals_.probe_solves), admits_traced),
                   layer["rack.solves_per_admit"]);
    result_.chrome_trace = tracer_.ChromeTraceJson();
    result_.self_times = SelfTimeTable(std::move(events));
  }
}

}  // namespace

const char* const kVerbNames[kVerbCount] = {"admit", "depart", "telemetry", "other"};

VerbIndex VerbOf(std::string_view verb) {
  if (verb == "ADMIT") {
    return kAdmitVerb;
  }
  if (verb == "DEPART") {
    return kDepartVerb;
  }
  return verb == "TELEMETRY" ? kTelemetryVerb : kOtherVerb;
}

StatusOr<std::unique_ptr<Shadow>> Shadow::Create(const std::string& journal,
                                                obs::Tracer& tracer) {
  std::vector<rack::RackMachine> machines;
  const eval::Pipeline pipeline(kMachineType);
  for (int m = 0; m < kMachines; ++m) {
    machines.push_back(rack::RackMachine{StrFormat("n%d", m), pipeline.description()});
  }
  serve::ServiceOptions options;
  options.prediction.common.jobs = 1;
  options.journal_path = journal;
  options.journal.sync = serve::SyncPolicy::kNone;
  PredictionOptions probe_options = options.prediction;
  probe_options.common.use_cache = false;
  rack::Rack probe(machines, probe_options);
  // Every episode's daemon is a fresh process, so its prediction cache
  // starts empty; entries left by an earlier episode would change which
  // lookups hit.
  PredictionCache::Global().Clear();
  StatusOr<serve::PlacementService> service =
      serve::PlacementService::Create(std::move(machines), std::move(options));
  if (!service.ok()) {
    return service.status();
  }
  std::unique_ptr<Shadow> shadow(
      new Shadow(std::move(service).value(), std::move(probe), tracer));
  return shadow;
}

Status Shadow::Step(int64_t id, const std::string& line, const std::string& daemon_raw,
                    double rtt_us, bool timed, ShadowTotals& totals) {
  obs::Counter& predictions =
      obs::MetricsRegistry::Global().counter("predictor.predictions");
  const std::string verb = line.substr(0, line.find(' '));
  const VerbIndex index = VerbOf(verb);
  obs::TraceSpan root(tracer_, "shadow." + std::string(kVerbNames[index]), id);
  const int64_t parse_start = NowNs();
  StatusOr<wire::Request> request = [&] {
    obs::TraceSpan span(tracer_, "serialize.parse", id);
    return wire::ParseRequest(line);
  }();
  const int64_t parse_ns = NowNs() - parse_start;
  if (!request.ok()) {
    return request.status();
  }
  std::optional<WorkloadDescription> description;
  if (index == kAdmitVerb) {
    const std::string* text = request->Find(std::string("desc.") + kMachineType);
    const std::string* name = request->Find("name");
    const std::string* threads = request->Find("threads");
    if (text == nullptr || name == nullptr || threads == nullptr) {
      return Status::InvalidArgument("shadow ADMIT misses name, threads or desc");
    }
    {
      obs::TraceSpan span(tracer_, "serialize.desc_decode", id);
      StatusOr<WorkloadDescription> decoded = WorkloadDescriptionFromText(*text);
      if (!decoded.ok()) {
        return decoded.status();
      }
      description = std::move(*decoded);
    }
    if (timed) {
      rack::JobRequest job;
      job.name = *name;
      job.requested_threads = std::atoi(threads->c_str());
      job.descriptions.emplace(kMachineType, *description);
      PANDIA_RETURN_IF_ERROR(probe_.RestoreState(service_.rack().SaveState()));
      const rack::Policy policy = serve::ServiceOptions().default_policy;
      const uint64_t before = predictions.value();
      const int64_t probe_start = NowNs();
      for (int m = 0; m < kMachines; ++m) {
        obs::TraceSpan span(tracer_, "rack.probe", id);
        (void)probe_.BestCandidateOn(m, job, policy);
      }
      totals.probe_us += static_cast<double>(NowNs() - probe_start) / 1000.0;
      totals.probe_solves += static_cast<int64_t>(predictions.value() - before);
    }
  }
  const uint64_t before = predictions.value();
  const int64_t handle_start = NowNs();
  const wire::Response response = [&] {
    obs::TraceSpan span(tracer_, "serve.handle." + std::string(kVerbNames[index]), id);
    return service_.Handle(*request);
  }();
  const int64_t handle_ns = NowNs() - handle_start;
  const uint64_t solves = predictions.value() - before;
  if (description.has_value()) {
    obs::TraceSpan span(tracer_, "serialize.desc_encode", id);
    (void)WorkloadDescriptionToText(*description);
  }
  if (index == kTelemetryVerb) {
    // After Handle, so every joint prediction is a cache hit: this times
    // building the snapshot; the solves behind it are in Handle's span.
    obs::TraceSpan span(tracer_, "rack.telemetry", id);
    (void)service_.rack().Telemetry();
  }
  const int64_t format_start = NowNs();
  const std::string text = [&] {
    obs::TraceSpan span(tracer_, "serialize.format", id);
    return wire::FormatResponse(response);
  }();
  const int64_t format_ns = NowNs() - format_start;
  if (timed) {
    totals.solves[index] += static_cast<int64_t>(solves);
    ++totals.requests[index];
    if (index == kAdmitVerb) {
      totals.transport_us +=
          rtt_us - static_cast<double>(parse_ns + handle_ns + format_ns) / 1000.0;
    }
  }
  if (text != daemon_raw) {
    return Status::Internal("shadow response differs from the daemon's for '" +
                            line.substr(0, 60) + "'");
  }
  return Status::Ok();
}

RunResult RunServe(const RunOptions& options) {
  RunResult result;
  ServeBench(options, result).Run();
  return result;
}

}  // namespace perfbench
}  // namespace pandia
