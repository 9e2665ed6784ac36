// Tests for the observability layer (src/obs): metrics registry thread
// safety, histogram bucket edges, span nesting and Chrome-JSON
// well-formedness, the JSON linter itself, and the predictor's convergence
// trace hook.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/machine_desc/generator.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/json_lint.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/obs/prediction_trace.h"
#include "src/obs/trace.h"
#include "src/predictor/predictor.h"
#include "src/sim/machine.h"
#include "src/sim/machine_spec.h"

namespace pandia {
namespace {

// --- MetricsRegistry ---

TEST(ObsMetrics, CountersFromManyThreadsAreExact) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&registry, i] {
      // Every thread hammers a shared counter and its own private one;
      // registration itself races too (all threads resolve "shared").
      obs::Counter& shared = registry.counter("shared");  // pandia-lint: allow(metric-name)
      obs::Counter& own =
          registry.counter("own." + std::to_string(i));
      for (int k = 0; k < kIncrements; ++k) {
        shared.Increment();
        own.Increment(2);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.counter("shared").value(),  // pandia-lint: allow(metric-name)
            static_cast<uint64_t>(kThreads) * kIncrements);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(registry.counter("own." + std::to_string(i)).value(),
              static_cast<uint64_t>(kIncrements) * 2);
  }
}

TEST(ObsMetrics, HistogramConcurrentObserveKeepsTotalCount) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram =
      registry.histogram("h", {1.0, 10.0, 100.0});  // pandia-lint: allow(metric-name)
  constexpr int kThreads = 8;
  constexpr int kObservations = 5000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&histogram] {
      for (int k = 0; k < kObservations; ++k) {
        histogram.Observe(static_cast<double>(k % 200));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(histogram.count(), static_cast<uint64_t>(kThreads) * kObservations);
  uint64_t bucket_total = 0;
  for (uint64_t c : histogram.bucket_counts()) {
    bucket_total += c;
  }
  EXPECT_EQ(bucket_total, histogram.count());
}

TEST(ObsMetrics, HistogramBucketEdges) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram =
      registry.histogram("edges", {1.0, 2.0, 5.0});  // pandia-lint: allow(metric-name)
  // Upper bounds are inclusive (Prometheus "le" semantics).
  histogram.Observe(0.5);   // -> le=1
  histogram.Observe(1.0);   // -> le=1 (on the edge)
  histogram.Observe(1.001); // -> le=2
  histogram.Observe(2.0);   // -> le=2
  histogram.Observe(5.0);   // -> le=5
  histogram.Observe(5.001); // -> +inf
  histogram.Observe(1e9);   // -> +inf
  const std::vector<uint64_t> buckets = histogram.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 2u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 2u);
  EXPECT_EQ(histogram.count(), 7u);
  EXPECT_NEAR(histogram.sum(), 0.5 + 1.0 + 1.001 + 2.0 + 5.0 + 5.001 + 1e9, 1e-3);
}

TEST(ObsMetrics, SnapshotResetAndRender) {
  obs::MetricsRegistry registry;
  registry.counter("c").Increment(3);           // pandia-lint: allow(metric-name)
  registry.gauge("g").Set(2.5);                 // pandia-lint: allow(metric-name)
  registry.histogram("h", {1.0}).Observe(0.5);  // pandia-lint: allow(metric-name)
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 1u);
  EXPECT_EQ(snapshot.counters[0].name, "c");
  EXPECT_EQ(snapshot.counters[0].value, 3u);
  ASSERT_EQ(snapshot.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snapshot.gauges[0].value, 2.5);
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  EXPECT_EQ(snapshot.histograms[0].count, 1u);

  // Rendering: counter + gauge + (2 buckets + count/sum/mean) rows.
  EXPECT_EQ(obs::RenderTable(snapshot).num_rows(), 1u + 1u + 2u + 3u);

  // Reset zeroes values but keeps instrument identity.
  obs::Counter& c = registry.counter("c");  // pandia-lint: allow(metric-name)
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(&c, &registry.counter("c"));  // pandia-lint: allow(metric-name)
  EXPECT_DOUBLE_EQ(registry.gauge("g").value(), 0.0);       // pandia-lint: allow(metric-name)
  EXPECT_EQ(registry.histogram("h", {1.0}).count(), 0u);  // pandia-lint: allow(metric-name)
}

// --- Histogram percentiles ---

TEST(ObsPercentile, EmptyHistogramYieldsZero) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram = registry.histogram("lat.us", {1.0, 2.0});
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(histogram.Percentile(1.0), 0.0);
}

TEST(ObsPercentile, SingleBucketInterpolatesFromZero) {
  // One observation in the first bucket: any quantile asks for rank 1,
  // which interpolates across the full [0, 10] bucket width.
  const std::vector<double> bounds = {10.0};
  const std::vector<uint64_t> buckets = {1, 0};
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 1.0), 10.0);
}

TEST(ObsPercentile, LinearInterpolationWithinBucket) {
  // 10 observations <= 10, 10 more in (10, 20].
  const std::vector<double> bounds = {10.0, 20.0};
  const std::vector<uint64_t> buckets = {10, 10, 0};
  // Rank 10 is the last observation of the first bucket: its upper edge.
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 0.5), 10.0);
  // Rank 15 sits halfway through the second bucket.
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 0.75), 15.0);
  // Rank 1 sits a tenth of the way through the first bucket.
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 1.0), 20.0);
}

TEST(ObsPercentile, OverflowBucketReturnsLastFiniteBound) {
  // The +inf bucket has no upper edge to interpolate toward; the best
  // defensible answer is the largest finite bound.
  const std::vector<double> bounds = {10.0, 20.0};
  const std::vector<uint64_t> buckets = {0, 0, 5};
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 0.99), 20.0);
}

TEST(ObsPercentile, QuantileIsClampedToUnitInterval) {
  const std::vector<double> bounds = {10.0, 20.0};
  const std::vector<uint64_t> buckets = {10, 10, 0};
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, -3.0),
                   obs::HistogramPercentile(bounds, buckets, 0.0));
  EXPECT_DOUBLE_EQ(obs::HistogramPercentile(bounds, buckets, 7.0),
                   obs::HistogramPercentile(bounds, buckets, 1.0));
}

TEST(ObsPercentile, MemberPercentileMatchesObservations) {
  obs::MetricsRegistry registry;
  obs::Histogram& histogram =
      registry.histogram("lat.us", obs::ExponentialBounds(1.0, 2.0, 10));
  for (int i = 0; i < 100; ++i) {
    histogram.Observe(static_cast<double>(i % 50));
  }
  const double p50 = histogram.Percentile(0.5);
  const double p99 = histogram.Percentile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
  EXPECT_LE(p99, 512.0);  // largest bound of ExponentialBounds(1, 2, 10)
}

TEST(ObsPercentile, ExponentialBoundsAreGeometric) {
  const std::vector<double> bounds = obs::ExponentialBounds(1.0, 2.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[2], 4.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

// --- EventLog ---

TEST(ObsLog, FormatLogLineEscapesFieldValues) {
  const std::string line = obs::FormatLogLine(
      obs::LogLevel::kWarn, "serve.journal", "append failed",
      {{"path", "/tmp/a b"}, {"errno", 28}});
  EXPECT_EQ(line, "W serve.journal append failed path=/tmp/a\\sb errno=28");
}

TEST(ObsLog, LevelTagsAndThreshold) {
  EXPECT_EQ(obs::LogLevelTag(obs::LogLevel::kDebug), 'D');
  EXPECT_EQ(obs::LogLevelTag(obs::LogLevel::kInfo), 'I');
  EXPECT_EQ(obs::LogLevelTag(obs::LogLevel::kWarn), 'W');
  EXPECT_EQ(obs::LogLevelTag(obs::LogLevel::kError), 'E');

  obs::EventLog log;
  EXPECT_FALSE(log.Enabled(obs::LogLevel::kDebug));  // default min: Info
  EXPECT_TRUE(log.Enabled(obs::LogLevel::kInfo));
  log.SetMinLevel(obs::LogLevel::kError);
  EXPECT_FALSE(log.Enabled(obs::LogLevel::kWarn));
  EXPECT_TRUE(log.Enabled(obs::LogLevel::kError));
  log.SetMinLevel(obs::LogLevel::kDebug);
  EXPECT_TRUE(log.Enabled(obs::LogLevel::kDebug));
}

// Reads everything written to `file` so far.
std::string DrainFile(std::FILE* file) {
  std::fflush(file);
  const long size = std::ftell(file);
  std::rewind(file);
  std::string content(static_cast<size_t>(size), '\0');
  const size_t read = std::fread(content.data(), 1, content.size(), file);
  content.resize(read);
  return content;
}

TEST(ObsLog, PerSiteRateLimitSuppressesFloods) {
  obs::EventLog log;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  log.SetStream(sink);
  // A window far longer than the test: the burst is all that gets through.
  log.SetRateLimit(3, int64_t{1} << 60);
  for (int i = 0; i < 10; ++i) {
    log.Log(obs::LogLevel::kWarn, "hot.site", "boom", {{"i", i}});
  }
  // A different site has its own budget.
  log.Log(obs::LogLevel::kWarn, "calm.site", "fine");
  EXPECT_EQ(log.suppressed(), 7u);
  const std::string content = DrainFile(sink);
  size_t events = 0;
  for (size_t at = content.find("hot.site"); at != std::string::npos;
       at = content.find("hot.site", at + 1)) {
    ++events;
  }
  EXPECT_EQ(events, 3u);
  EXPECT_NE(content.find("calm.site"), std::string::npos);
  log.SetStream(nullptr);
  std::fclose(sink);
}

TEST(ObsLog, DisabledLevelsWriteNothing) {
  obs::EventLog log;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  log.SetStream(sink);
  log.Log(obs::LogLevel::kDebug, "quiet.site", "below threshold");
  EXPECT_TRUE(DrainFile(sink).empty());
  log.SetStream(nullptr);
  std::fclose(sink);
}

// --- FlightRecorder ---

TEST(ObsFlightRecorder, AssignsSequentialSeqAndDumpsOldestFirst) {
  obs::FlightRecorder recorder(4);
  recorder.Record("request", "ADMIT name=a");
  recorder.Record("journal", "ADMITTED name=a");
  recorder.Record("request", "DEPART name=ghost", /*ok=*/false);
  EXPECT_EQ(recorder.recorded(), 3u);
  EXPECT_EQ(recorder.dropped(), 0u);
  const std::vector<obs::FlightEvent> events = recorder.Dump();
  ASSERT_EQ(events.size(), 3u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1);
    if (i > 0) {
      EXPECT_GE(events[i].timestamp_ns, events[i - 1].timestamp_ns);
    }
  }
  EXPECT_EQ(events[0].kind, "request");
  EXPECT_EQ(events[1].kind, "journal");
  EXPECT_TRUE(events[1].ok);
  EXPECT_FALSE(events[2].ok);
}

TEST(ObsFlightRecorder, WrapsAndCountsDropped) {
  obs::FlightRecorder recorder(4);
  for (int i = 0; i < 6; ++i) {
    recorder.Record("request", "r" + std::to_string(i));
  }
  EXPECT_EQ(recorder.recorded(), 6u);
  EXPECT_EQ(recorder.dropped(), 2u);
  const std::vector<obs::FlightEvent> events = recorder.Dump();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 3);  // seqs 1 and 2 were overwritten
    EXPECT_EQ(events[i].detail, "r" + std::to_string(i + 2));
  }
}

TEST(ObsFlightRecorder, ClearForgetsEverything) {
  obs::FlightRecorder recorder(2);
  recorder.Record("request", "x");
  recorder.Clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.Dump().empty());
  recorder.Record("request", "y");
  ASSERT_EQ(recorder.Dump().size(), 1u);
  EXPECT_EQ(recorder.Dump()[0].seq, 1u);
}

TEST(ObsFlightRecorder, FormatRendersRelativeTimestampAndOutcome) {
  obs::FlightEvent event;
  event.seq = 2;
  event.timestamp_ns = 1500000000;
  event.kind = "journal";
  event.detail = "ADMITTED name=a";
  event.ok = false;
  EXPECT_EQ(obs::FormatFlightEvent(event, 0),
            "seq=2 t=1.500000 journal ADMITTED name=a err");
  event.ok = true;
  EXPECT_EQ(obs::FormatFlightEvent(event, 500000000),
            "seq=2 t=1.000000 journal ADMITTED name=a ok");
}

// --- Tracer ---

TEST(ObsTrace, DisabledTracerRecordsNothing) {
  obs::Tracer tracer;
  {
    obs::TraceSpan span(tracer, "ignored");
  }
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(ObsTrace, SpanNestingDepthsAndDurations) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  {
    obs::TraceSpan outer(tracer, "outer");
    {
      obs::TraceSpan inner(tracer, "inner", 7);
    }
    {
      obs::TraceSpan inner2(tracer, "inner2");
    }
  }
  const std::vector<obs::TraceEvent> events = tracer.Events();
  ASSERT_EQ(events.size(), 3u);
  // Spans are recorded at close time: inner, inner2, outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 1);
  EXPECT_EQ(events[0].arg, 7);
  EXPECT_EQ(events[1].name, "inner2");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  EXPECT_EQ(events[2].arg, obs::kNoArg);
  // The outer span contains both inner spans in time.
  EXPECT_LE(events[2].start_ns, events[0].start_ns);
  EXPECT_GE(events[2].start_ns + events[2].dur_ns,
            events[1].start_ns + events[1].dur_ns);
  for (const obs::TraceEvent& event : events) {
    EXPECT_GE(event.dur_ns, 0);
    EXPECT_EQ(event.tid, 1u);
  }
}

TEST(ObsTrace, ChromeJsonIsWellFormed) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  {
    obs::TraceSpan outer(tracer, "outer \"quoted\"\n", 42);
    obs::TraceSpan inner(tracer, "inner");
  }
  const std::string json = tracer.ChromeTraceJson();
  std::string error;
  EXPECT_TRUE(obs::LintJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"n\":42}"), std::string::npos);

  tracer.Clear();
  EXPECT_TRUE(tracer.Events().empty());
  EXPECT_TRUE(obs::LintJson(tracer.ChromeTraceJson(), &error)) << error;
}

TEST(ObsTrace, SpansFromManyThreads) {
  obs::Tracer tracer;
  tracer.SetEnabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpans = 500;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer] {
      for (int k = 0; k < kSpans; ++k) {
        obs::TraceSpan span(tracer, "work", k);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const std::vector<obs::TraceEvent> events = tracer.Events();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads) * kSpans);
  std::string error;
  EXPECT_TRUE(obs::LintJson(tracer.ChromeTraceJson(), &error)) << error;
}

// --- JSON linter ---

TEST(ObsJsonLint, AcceptsValidAndRejectsInvalid) {
  EXPECT_TRUE(obs::LintJson("{}"));
  EXPECT_TRUE(obs::LintJson("[1, -2.5e3, \"a\\nb\", true, false, null, {\"k\":[]}]"));
  EXPECT_TRUE(obs::LintJson("  42  "));
  std::string error;
  EXPECT_FALSE(obs::LintJson("", &error));
  EXPECT_FALSE(obs::LintJson("{", &error));
  EXPECT_FALSE(obs::LintJson("[1,]", &error));
  EXPECT_FALSE(obs::LintJson("{\"a\":1,}", &error));
  EXPECT_FALSE(obs::LintJson("{'a':1}", &error));
  EXPECT_FALSE(obs::LintJson("\"unterminated", &error));
  EXPECT_FALSE(obs::LintJson("01", &error));
  EXPECT_FALSE(obs::LintJson("1 2", &error));
  EXPECT_FALSE(obs::LintJson("\"bad\\x\"", &error));
}

// --- PredictionTrace ---

const MachineDescription& X3Desc() {
  static const MachineDescription desc = [] {
    const sim::Machine machine{sim::MakeX3_2()};
    return GenerateMachineDescription(machine);
  }();
  return desc;
}

WorkloadDescription ContendedWorkload() {
  WorkloadDescription desc;
  desc.workload = "synthetic";
  desc.machine = "x3-2";
  desc.t1 = 100.0;
  desc.demands.instr_rate = 4.0;
  desc.demands.l1_bw = 40.0;
  desc.demands.l2_bw = 10.0;
  desc.demands.l3_bw = 6.0;
  desc.demands.dram_local_bw = 8.0;
  desc.memory_policy = MemoryPolicy::kInterleaveActive;
  desc.parallel_fraction = 0.99;
  desc.inter_socket_overhead = 0.01;
  desc.load_balance = 0.5;
  desc.burstiness = 0.3;
  return desc;
}

TEST(ObsPredictionTrace, IterationCountMatchesPrediction) {
  obs::PredictionTrace trace;
  PredictionOptions options;
  options.trace = &trace;
  const Predictor predictor(X3Desc(), ContendedWorkload(), options);
  const Placement placement = Placement::TwoPerCore(X3Desc().topo, 20);
  const Prediction prediction = predictor.Predict(placement);

  ASSERT_EQ(trace.iterations.size(), static_cast<size_t>(prediction.iterations));
  EXPECT_EQ(trace.converged, prediction.converged);
  EXPECT_DOUBLE_EQ(trace.final_delta, prediction.final_delta);
  for (const obs::PredictionIterationTrace& iteration : trace.iterations) {
    EXPECT_EQ(iteration.thread_slowdowns.size(), prediction.threads.size());
    EXPECT_EQ(iteration.thread_bottlenecks.size(), prediction.threads.size());
  }
  // 1-based iteration numbering, contiguous.
  for (size_t i = 0; i < trace.iterations.size(); ++i) {
    EXPECT_EQ(trace.iterations[i].iteration, static_cast<int>(i) + 1);
  }
  // The final iteration's slowdowns are the prediction's.
  const obs::PredictionIterationTrace& last = trace.iterations.back();
  for (size_t t = 0; t < prediction.threads.size(); ++t) {
    EXPECT_DOUBLE_EQ(last.thread_slowdowns[t],
                     prediction.threads[t].overall_slowdown);
    EXPECT_EQ(last.thread_bottlenecks[t], prediction.threads[t].bottleneck);
  }
  // A converged run's final delta is under the threshold.
  ASSERT_TRUE(prediction.converged);
  EXPECT_LT(prediction.final_delta, options.convergence_eps);
  EXPECT_FALSE(trace.Summary().empty());
}

TEST(ObsPredictionTrace, DampeningEngagesAfterDampenAfter) {
  obs::PredictionTrace trace;
  PredictionOptions options;
  options.trace = &trace;
  options.dampen_after = 3;
  options.max_iterations = 10;
  options.convergence_eps = 0.0;  // never converge: run all 10 iterations
  const Predictor predictor(X3Desc(), ContendedWorkload(), options);
  const Prediction prediction =
      predictor.Predict(Placement::TwoPerCore(X3Desc().topo, 20));

  EXPECT_FALSE(prediction.converged);
  EXPECT_EQ(prediction.iterations, 10);
  ASSERT_EQ(trace.iterations.size(), 10u);
  for (const obs::PredictionIterationTrace& iteration : trace.iterations) {
    EXPECT_EQ(iteration.dampened, iteration.iteration >= options.dampen_after)
        << "iteration " << iteration.iteration;
  }
}

TEST(ObsPredictionTrace, TraceIsClearedBetweenPredicts) {
  obs::PredictionTrace trace;
  PredictionOptions options;
  options.trace = &trace;
  const Predictor predictor(X3Desc(), ContendedWorkload(), options);
  const Prediction first = predictor.Predict(Placement::TwoPerCore(X3Desc().topo, 20));
  ASSERT_EQ(trace.iterations.size(), static_cast<size_t>(first.iterations));
  const Prediction second = predictor.Predict(Placement::OnePerCore(X3Desc().topo, 1));
  EXPECT_EQ(trace.iterations.size(), static_cast<size_t>(second.iterations));
}

}  // namespace
}  // namespace pandia
