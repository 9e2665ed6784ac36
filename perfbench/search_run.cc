// search-cold: pandia_predict's best + cheapest placement search, in-process,
// each query from an empty prediction cache.
#include <algorithm>
#include <numeric>

#include "perfbench/bench.h"

namespace pandia {
namespace perfbench {

namespace {

// One cycle is 23 queries; five give p90 more than ten samples beyond it.
constexpr int kCycles = 5;

constexpr const char* kCounters[] = {
    "predictor.predictions",  "predictor.iterations",         "prediction_cache.hits",
    "prediction_cache.misses", "prediction_cache.evictions",  "predictor.non_converged",
    "predictor.divergence_retries", "optimizer.placements_evaluated",
};

std::map<std::string, double> CounterSnapshot() {
  std::map<std::string, double> values;
  for (const char* name : kCounters) {
    values[name] = static_cast<double>(obs::MetricsRegistry::Global().counter(name).value());
  }
  return values;
}

struct Setup {
  std::vector<std::string> names;
  std::vector<WorkloadDescription> descriptions;
  std::vector<Predictor> predictors;
};

// pandia_predict's set-up for every suite workload: the machine
// description, the profile, and the predictor.
Setup BuildSetup(obs::Tracer& tracer) {
  std::optional<eval::Pipeline> pipeline;
  {
    obs::TraceSpan span(tracer, "machine_desc.generate");
    pipeline.emplace(kMachineType);
  }
  Setup setup;
  for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
    WorkloadDescription description = [&] {
      obs::TraceSpan span(tracer, "workload_desc.profile");
      return pipeline->Profile(workload);
    }();
    setup.names.push_back(workload.name);
    setup.predictors.push_back(pipeline->MakePredictor(description));
    setup.descriptions.push_back(std::move(description));
  }
  return setup;
}

std::vector<std::string> DescriptionTexts(const Setup& setup) {
  std::vector<std::string> texts;
  for (const WorkloadDescription& description : setup.descriptions) {
    texts.push_back(WorkloadDescriptionToText(description));
  }
  return texts;
}

struct Episode {
  bool traced = false;
  std::vector<double> query_us;
  double total_us = 0.0;
  double speedup_sum = 0.0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, double> counters;

  double ops_per_s() const {
    return total_us > 0 ? static_cast<double>(query_us.size()) / (total_us / 1e6) : 0.0;
  }
  double Counter(const std::string& name) const { return counters.at(name); }
};

}  // namespace

RunResult RunSearch(const RunOptions& options) {
  RunResult result;
  obs::Tracer setup_tracer;
  std::vector<double> setup_s;
  std::vector<std::string> first_texts;
  // One set-up before the first episode and one more after each episode.
  // Spread over the run, their median dodges spells of a second or two in
  // which the host runs this process up to 1.7x slower; back to back at
  // the start, a whole run's set-ups could fall into one. Spans time the
  // first set-up; every one must profile the same descriptions.
  const auto set_up = [&] {
    setup_tracer.SetEnabled(setup_s.empty());
    const int64_t start = NowNs();
    Setup built = BuildSetup(setup_tracer);
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_tracer.SetEnabled(false);
    std::vector<std::string> texts = DescriptionTexts(built);
    if (first_texts.empty()) {
      first_texts = std::move(texts);
    } else if (texts != first_texts) {
      result.Fail(StrFormat("set-up %zu profiled other descriptions than set-up 1",
                            setup_s.size()));
    }
    return built;
  };
  const Setup setup = set_up();
  const std::vector<std::string> trace = SearchTrace(options.seed, kCycles);
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < setup.names.size(); ++i) {
    index[setup.names[i]] = i;
  }
  // The tool's default options, with the solver fan-out pinned to one
  // thread so PANDIA_JOBS cannot change the work.
  OptimizerOptions optimizer;
  optimizer.common.jobs = 1;

  obs::Tracer tracer;
  TranscriptCheck transcript;
  int64_t request_id = 0;
  const auto run_episode = [&](bool traced) {
    Episode episode;
    episode.traced = traced;
    tracer.SetEnabled(traced);
    // Untimed warm-up: one query of the episode's first workload.
    PredictionCache::Global().Clear();
    (void)TryFindBestPlacement(setup.predictors[index.at(trace.front())], optimizer);
    const std::map<std::string, double> before = CounterSnapshot();
    for (size_t q = 0; q < trace.size(); ++q) {
      const Predictor& predictor = setup.predictors[index.at(trace[q])];
      PredictionCache::Global().Clear();
      const int64_t id = request_id++;
      const int64_t start = NowNs();
      StatusOr<RankedPlacement> best = Status::Internal("not run");
      StatusOr<RankedPlacement> cheap = Status::Internal("not run");
      {
        obs::TraceSpan query(tracer, "search.query", id);
        {
          obs::TraceSpan span(tracer, "predictor.best", id);
          best = TryFindBestPlacement(predictor, optimizer);
        }
        obs::TraceSpan span(tracer, "predictor.cheapest", id);
        cheap = TryFindCheapestPlacement(predictor, 0.95, optimizer);
      }
      const double us = static_cast<double>(NowNs() - start) / 1000.0;
      ++episode.attempted;
      if (!best.ok() || !cheap.ok()) {
        ++episode.failed;
        result.Fail(trace[q] + ": search failed");
        continue;
      }
      episode.query_us.push_back(us);
      episode.total_us += us;
      episode.speedup_sum += best->prediction.speedup;
      // The cheapest placement reaches 95% of the best with no more threads.
      if (cheap->prediction.speedup < 0.95 * best->prediction.speedup - 1e-9 ||
          cheap->placement.TotalThreads() > best->placement.TotalThreads()) {
        result.Fail(trace[q] + ": cheapest placement misses 95% of the best");
      }
      const std::string answer = StrFormat(
          "%s best=%s %.9f cheapest=%s %.9f", trace[q].c_str(),
          wire::PlacementToCsv(best->placement).c_str(), best->prediction.speedup,
          wire::PlacementToCsv(cheap->placement).c_str(), cheap->prediction.speedup);
      if (!transcript.Check(q, answer)) {
        result.Fail(transcript.first_mismatch());
      }
    }
    const std::map<std::string, double> after = CounterSnapshot();
    for (const auto& [name, value] : after) {
      episode.counters[name] = value - before.at(name);
    }
    transcript.NextEpisode();
    tracer.SetEnabled(false);
    return episode;
  };

  std::vector<Episode> episodes;
  const int64_t start = NowNs();
  int untraced = 0;
  int traced = 0;
  while (result.correct) {
    const double t = static_cast<double>(NowNs() - start) / 1e9;
    if (options.trace ? (traced >= 1 && t >= options.seconds)
                      : (untraced >= 3 && t >= options.seconds)) {
      break;
    }
    const bool trace_now = options.trace && untraced >= 1 && t >= options.seconds / 2;
    episodes.push_back(run_episode(trace_now));
    (trace_now ? traced : untraced) += 1;
    (void)set_up();
  }

  std::vector<double> times;
  const Episode* best = nullptr;
  const Episode* traced_best = nullptr;
  for (const Episode& episode : episodes) {
    result.attempted += episode.attempted;
    result.failed += episode.failed;
    if (episode.traced) {
      if (traced_best == nullptr || episode.total_us < traced_best->total_us) {
        traced_best = &episode;
      }
      continue;
    }
    times.push_back(episode.total_us);
    if (best == nullptr || episode.total_us < best->total_us) {
      best = &episode;
    }
  }
  result.succeeded = result.attempted - result.failed;
  result.episodes = static_cast<int>(episodes.size());
  if (best == nullptr || best->query_us.empty()) {
    result.Fail("no untraced episode completed");
    return result;
  }
  result.median_to_fastest = Quantile(times, 0.5) / best->total_us;
  // Timings follow the fastest-request rule; counts come from the fastest
  // episode.
  std::vector<const std::vector<double>*> episode_us;
  for (const Episode& episode : episodes) {
    if (!episode.traced) {
      episode_us.push_back(&episode.query_us);
    }
  }
  const std::vector<double> fastest = FastestPerRequest(episode_us);
  const double fastest_total_us = std::accumulate(fastest.begin(), fastest.end(), 0.0);
  const double tail = TailQuantileFor(fastest.size());
  const double queries = static_cast<double>(best->query_us.size());
  MetricValues& e2e = result.end_to_end;
  e2e["ops_per_s"] = static_cast<double>(fastest.size()) / (fastest_total_us / 1e6);
  e2e["place_p50_us"] = Quantile(fastest, 0.5);
  e2e["place_tail_us"] = Quantile(fastest, tail);
  e2e["placement_speedup"] = best->speedup_sum / queries;
  e2e["setup_s"] = Quantile(setup_s, 0.5);
  e2e["peak_rss_mb"] = PeakRssMb(0);

  MetricValues& layer = result.per_layer;
  for (const MetricSpec& spec : kPerLayer) {
    layer[spec.name] = 0.0;  // serve, serialize and rack layers never run here
  }
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double hits = best->Counter("prediction_cache.hits");
  layer["predictor.iterations_per_solve"] =
      ratio(best->Counter("predictor.iterations"), best->Counter("predictor.predictions"));
  layer["predictor.cache_hit_ratio"] =
      ratio(hits, hits + best->Counter("prediction_cache.misses"));
  layer["predictor.cache_evictions"] = best->Counter("prediction_cache.evictions");
  layer["predictor.non_converged"] = best->Counter("predictor.non_converged");
  layer["predictor.divergence_retries"] = best->Counter("predictor.divergence_retries");
  std::vector<obs::TraceEvent> events = tracer.Events();
  const std::vector<obs::TraceEvent> setup_events = setup_tracer.Events();
  layer["predictor.best_ms"] = MeanUs(events, "predictor.best") / 1000.0;
  layer["predictor.cheapest_ms"] = MeanUs(events, "predictor.cheapest") / 1000.0;
  layer["predictor.placements_per_query"] =
      best->Counter("optimizer.placements_evaluated") / queries;
  layer["machine_desc.generate_ms"] = MeanUs(setup_events, "machine_desc.generate") / 1000.0;
  layer["workload_desc.profile_us"] = MeanUs(setup_events, "workload_desc.profile");
  layer["trace.overhead_pct"] =
      traced_best == nullptr ? 0.0
                             : 100.0 * (1.0 - traced_best->ops_per_s() / best->ops_per_s());

  result.diagnostics += StrFormat(
      "fastest episode: %zu queries in %.1f ms (%.2f queries/s)\n"
      "fastest requests: %.1f ms (%.2f queries/s); p50=%.1fus p%.0f=%.1fus (%zu beyond)\n",
      best->query_us.size(), best->total_us / 1000.0, best->ops_per_s(),
      fastest_total_us / 1000.0, e2e["ops_per_s"], e2e["place_p50_us"], tail * 100,
      e2e["place_tail_us"], static_cast<size_t>(queries * (1.0 - tail)));
  // The modes the percentiles fall in: each workload's fastest query.
  std::map<std::string, double> by_workload;
  for (size_t q = 0; q < fastest.size(); ++q) {
    const auto [it, inserted] = by_workload.emplace(trace[q], fastest[q]);
    it->second = std::min(it->second, fastest[q]);
  }
  std::vector<std::pair<double, std::string>> modes;
  for (const auto& [name, us] : by_workload) {
    modes.emplace_back(us, name);
  }
  std::sort(modes.begin(), modes.end());
  result.diagnostics += "query ms by workload:";
  for (const auto& [us, name] : modes) {
    result.diagnostics += StrFormat(" %s=%.1f", name.c_str(), us / 1000.0);
  }
  result.diagnostics += "\n";
  if (traced_best != nullptr) {
    result.diagnostics += StrFormat("traced episode: %.2f queries/s, overhead %.1f%%\n",
                                    traced_best->ops_per_s(), layer["trace.overhead_pct"]);
    result.chrome_trace = tracer.ChromeTraceJson();
    result.self_times = SelfTimeTable(std::move(events));
  }
  return result;
}

}  // namespace perfbench
}  // namespace pandia
