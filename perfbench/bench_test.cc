// Tests of the benchmark itself: seeded traces, the result line, and that
// every output check rejects a doctored transcript. The smoke runs of each
// workload are separate ctest entries (CMakeLists.txt).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <tuple>

#include "perfbench/bench.h"

namespace pandia {
namespace perfbench {
namespace {

std::vector<WorkloadDescription> SuiteDescriptions() {
  const eval::Pipeline pipeline(kMachineType);
  std::vector<WorkloadDescription> descriptions;
  for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
    descriptions.push_back(pipeline.Profile(workload));
  }
  return descriptions;
}

serve::PlacementService MakeService(const std::string& journal = "") {
  const eval::Pipeline pipeline(kMachineType);
  std::vector<rack::RackMachine> machines;
  for (int m = 0; m < kMachines; ++m) {
    machines.push_back(rack::RackMachine{StrFormat("n%d", m), pipeline.description()});
  }
  serve::ServiceOptions options;
  options.prediction.common.jobs = 1;
  options.journal_path = journal;
  options.journal.sync = serve::SyncPolicy::kNone;
  StatusOr<serve::PlacementService> service =
      serve::PlacementService::Create(std::move(machines), std::move(options));
  PANDIA_CHECK(service.ok());
  return std::move(service).value();
}

wire::Response Parse(const std::string& raw) {
  StatusOr<wire::Response> response = ParseRawResponse(raw);
  PANDIA_CHECK(response.ok());
  return *response;
}

wire::Request Request(const std::string& line) {
  StatusOr<wire::Request> request = wire::ParseRequest(line);
  PANDIA_CHECK(request.ok());
  return *request;
}

// Replaces the first occurrence of `from` in `text`.
std::string Doctor(std::string text, const std::string& from, const std::string& to) {
  const size_t at = text.find(from);
  PANDIA_CHECK(at != std::string::npos);
  return text.replace(at, from.size(), to);
}

ThreadModel MakeModel() {
  const eval::Pipeline pipeline(kMachineType);
  return ThreadModel(kMachines, pipeline.description().topo.NumCores(),
                     pipeline.description().topo.threads_per_core);
}

// --------------------------------------------------------------- traces

TEST(SparseTraceTest, ByteIdenticalForASeedAndDifferentAcrossSeeds) {
  const std::vector<std::string> params = DescParams(SuiteDescriptions());
  const Trace a = SparseTrace(5, params, 22, kSparseCycle);
  const Trace b = SparseTrace(5, params, 22, kSparseCycle);
  const Trace c = SparseTrace(6, params, 22, kSparseCycle);
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_NE(a.lines, c.lines);
  EXPECT_EQ(a.warmup, 44u);
  ASSERT_EQ(a.lines.size(), 2u * (22 + kSparseCycle));
}

TEST(SparseTraceTest, TimedPartIsTheSameMultisetForEverySeed) {
  const std::vector<std::string> params = DescParams(SuiteDescriptions());
  const auto timed_admits = [&](uint64_t seed) {
    const Trace trace = SparseTrace(seed, params, 22, 2 * kSparseCycle);
    std::vector<std::string> admits;
    for (size_t i = trace.warmup; i < trace.lines.size(); i += 2) {
      // Drop the job name: only threads and description matter.
      const std::string& line = trace.lines[i];
      admits.push_back(line.substr(line.find(" threads=")));
    }
    std::sort(admits.begin(), admits.end());
    return admits;
  };
  EXPECT_EQ(timed_admits(1), timed_admits(2));
}

TEST(SearchTraceTest, CyclesCoverTheSuitePlusOneExtraQuery) {
  EXPECT_EQ(SearchTrace(3, 2), SearchTrace(3, 2));
  EXPECT_NE(SearchTrace(3, 2), SearchTrace(4, 2));
  const std::vector<std::string> trace = SearchTrace(3, 2);
  ASSERT_EQ(trace.size(), 46u);
  std::vector<std::string> cycle(trace.begin(), trace.begin() + 22);
  std::sort(cycle.begin(), cycle.end());
  std::vector<std::string> suite;
  for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
    suite.push_back(workload.name);
  }
  std::sort(suite.begin(), suite.end());
  EXPECT_EQ(cycle, suite);
  EXPECT_EQ(trace[22], kSearchExtra);
}

TEST(DenseJobsTest, EveryJobIsAPureFunctionOfSeedAndIndexAndUnique) {
  obs::Tracer off;
  DenseJobs a(9, off);
  DenseJobs b(9, off);
  DenseJobs c(10, off);
  std::vector<std::string> texts;
  for (size_t i = 0; i < 30; ++i) {
    const std::string line = a.AdmitLine("j", i);
    EXPECT_EQ(line, b.AdmitLine("j", i));
    EXPECT_NE(line, c.AdmitLine("j", i));
    texts.push_back(line.substr(line.find(" desc.")));
  }
  std::sort(texts.begin(), texts.end());
  EXPECT_EQ(std::unique(texts.begin(), texts.end()), texts.end());
}

// --------------------------------------------------------- result line

TEST(ResultJsonTest, EveryMetricPrintsWithItsNameAndUnit) {
  for (const std::span<const MetricSpec> specs :
       {std::span<const MetricSpec>(kEndToEnd), std::span<const MetricSpec>(kPerLayer)}) {
    MetricValues values;
    for (const MetricSpec& spec : specs) {
      values[spec.name] = 1.25;
    }
    StatusOr<std::string> line = ResultJson(true, 10, 0, specs, values);
    ASSERT_TRUE(line.ok());
    EXPECT_EQ(line->rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0, ", 0), 0u);
    for (const MetricSpec& spec : specs) {
      EXPECT_NE(line->find(StrFormat("\"%s\": {\"value\": 1.25, \"unit\": \"%s\"}", spec.name,
                                     spec.unit)),
                std::string::npos)
          << spec.name;
    }
    values.erase(specs.front().name);
    EXPECT_FALSE(ResultJson(true, 10, 0, specs, values).ok());
  }
}

TEST(ResultJsonTest, BenchmarkJsonDeclaresExactlyTheseMetrics) {
  std::ifstream in(PERFBENCH_BENCHMARK_JSON);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  size_t declared = 0;
  for (size_t at = json.find("\"unit\""); at != std::string::npos;
       at = json.find("\"unit\"", at + 1)) {
    ++declared;
  }
  EXPECT_EQ(declared, std::size(kEndToEnd) + std::size(kPerLayer));
  for (const std::span<const MetricSpec> specs :
       {std::span<const MetricSpec>(kEndToEnd), std::span<const MetricSpec>(kPerLayer)}) {
    for (const MetricSpec& spec : specs) {
      EXPECT_NE(json.find(StrFormat("{\"name\": \"%s\", \"unit\": \"%s\"", spec.name,
                                    spec.unit)),
                std::string::npos)
          << spec.name;
    }
  }
}

TEST(QuantileTest, InterpolatesAndPicksTheTailWithTenBeyond) {
  EXPECT_DOUBLE_EQ(Quantile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4, 5}, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(TailQuantileFor(1000), 0.99);
  EXPECT_EQ(TailQuantileFor(999), 0.90);
  EXPECT_EQ(TailQuantileFor(100), 0.90);
  EXPECT_EQ(TailQuantileFor(99), 0.5);
}

TEST(FastestPerRequestTest, TakesEachRequestsLeastLatencyOverEpisodes) {
  const std::vector<double> a = {5, 1, 9};
  const std::vector<double> b = {3, 4, 9};
  const std::vector<double> c = {6, 2, 7};
  const std::vector<const std::vector<double>*> episodes = {&a, &b, &c};
  EXPECT_EQ(FastestPerRequest(episodes), (std::vector<double>{3, 1, 7}));
  EXPECT_EQ(FastestPerRequest(std::span<const std::vector<double>* const>(episodes).first(1)), a);
  EXPECT_TRUE(FastestPerRequest({}).empty());
}

TEST(SelfTimeTableTest, ParentsComeFromDepthAndContainment) {
  // Completion order, as obs::Tracer records them: A holds B (which holds
  // C, started in the same nanosecond) and D; E is another root.
  const auto event = [](const char* name, int64_t start_us, int64_t dur_us, int depth) {
    obs::TraceEvent e;
    e.name = name;
    e.start_ns = start_us * 1000;
    e.dur_ns = dur_us * 1000;
    e.depth = depth;
    e.tid = 1;
    return e;
  };
  const std::string table = SelfTimeTable({event("C", 10, 10, 2), event("B", 10, 30, 1),
                                           event("D", 50, 40, 1), event("A", 0, 100, 0),
                                           event("E", 200, 5, 0)});
  for (const auto& [name, total_us, self_us] :
       {std::tuple{"A", 100, 30}, std::tuple{"B", 30, 20}, std::tuple{"C", 10, 10},
        std::tuple{"D", 40, 40}, std::tuple{"E", 5, 5}}) {
    EXPECT_NE(table.find(StrFormat("%-28s %8d %12.3f %12.3f %12.3f", name, 1, total_us / 1e3,
                                   self_us / 1e3, static_cast<double>(self_us))),
              std::string::npos)
        << name << "\n" << table;
  }
}

// ------------------------------------------------------- output checks

class OutputChecksTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::vector<std::string> params = DescParams(SuiteDescriptions());
    admit_a_ = StrFormat("ADMIT name=a threads=8%s", params[0].c_str());
    admit_b_ = StrFormat("ADMIT name=b threads=8%s", params[1].c_str());
  }

  std::string admit_a_;
  std::string admit_b_;
};

TEST_F(OutputChecksTest, ModelFollowsTheServiceAndMatchesStatus) {
  serve::PlacementService service = MakeService();
  ThreadModel model = MakeModel();
  for (const std::string& line : {admit_a_, admit_b_, std::string("DEPART name=a"),
                                  std::string("TELEMETRY")}) {
    ASSERT_TRUE(model.Apply(Request(line), Parse(service.HandleLine(line))).ok()) << line;
  }
  EXPECT_EQ(model.residents(), std::vector<std::string>{"b"});
  EXPECT_TRUE(model.MatchStatus(Parse(service.HandleLine("STATUS"))).ok());
}

TEST_F(OutputChecksTest, OversubscribingAdmitFails) {
  serve::PlacementService service = MakeService();
  ThreadModel model = MakeModel();
  const std::string first = service.HandleLine(admit_a_);
  ASSERT_TRUE(model.Apply(Request(admit_a_), Parse(first)).ok());
  // Doctored: b fills every hardware thread of the machine a runs on.
  wire::Response b = Parse(service.HandleLine(admit_b_));
  const std::string machine = *PayloadValue(Parse(first), "machine");
  const eval::Pipeline pipeline(kMachineType);
  std::string full = "2";
  for (int c = 1; c < pipeline.description().topo.NumCores(); ++c) {
    full += ",2";
  }
  for (std::string& row : b.payload) {
    if (row.rfind("placement = ", 0) == 0) {
      row = "placement = " + full;
    } else if (row.rfind("machine = ", 0) == 0) {
      row = "machine = " + machine;
    }
  }
  const Status applied = model.Apply(Request(admit_b_), b);
  EXPECT_FALSE(applied.ok());
  EXPECT_NE(applied.message().find("oversubscribes"), std::string::npos);
}

TEST_F(OutputChecksTest, ErrorsOtherThanCapacityRefusalsFail) {
  ThreadModel model = MakeModel();
  wire::Response refused = wire::Response::Failure(Status::FailedPrecondition(
      "no machine can place job 'a' (requested 8 threads)"));
  EXPECT_TRUE(IsCapacityRefusal(refused));
  EXPECT_TRUE(model.Apply(Request(admit_a_), refused).ok());
  wire::Response broken =
      wire::Response::Failure(Status::InvalidArgument("desc.x3-2: bad document"));
  EXPECT_FALSE(IsCapacityRefusal(broken));
  EXPECT_FALSE(model.Apply(Request(admit_a_), broken).ok());
  EXPECT_FALSE(model.Apply(Request("DEPART name=a"),
                           wire::Response::Failure(Status::NotFound("no job named 'a'")))
                   .ok());
}

TEST_F(OutputChecksTest, DoctoredDepartMoveTelemetryAndStatusFail) {
  serve::PlacementService service = MakeService();
  ThreadModel model = MakeModel();
  for (const std::string& line : {admit_a_, admit_b_}) {
    ASSERT_TRUE(model.Apply(Request(line), Parse(service.HandleLine(line))).ok());
  }
  const std::string status = service.HandleLine("STATUS");
  ASSERT_TRUE(model.MatchStatus(Parse(status)).ok());
  EXPECT_FALSE(model.MatchStatus(Parse(Doctor(status, "free=", "free=1"))).ok());
  EXPECT_FALSE(model.MatchStatus(Parse(Doctor(status, "job = b ", "job = c "))).ok());
  const std::string telemetry = service.HandleLine("TELEMETRY");
  EXPECT_FALSE(
      model.Apply(Request("TELEMETRY"), Parse(Doctor(telemetry, "jobs = 2", "jobs = 3")))
          .ok());

  ThreadModel copy = model;
  wire::Response depart = Parse(service.HandleLine("DEPART name=a"));
  wire::Response wrong_machine = depart;
  const std::string machine = *PayloadValue(depart, "machine");
  wrong_machine.payload[0] = "machine = " + std::string(machine == "0" ? "1" : "0");
  EXPECT_FALSE(copy.Apply(Request("DEPART name=a"), wrong_machine).ok());
  wire::Response ghost_move = depart;
  ghost_move.payload.push_back("moved = ghost machine=0 placement=1 speedup=1.0");
  EXPECT_FALSE(model.Apply(Request("DEPART name=a"), ghost_move).ok());
}

TEST(TranscriptCheckTest, DoctoredEpisodeFails) {
  TranscriptCheck check;
  EXPECT_TRUE(check.Check(0, "ok ADMIT\nspeedup = 1.5\n.\n"));
  EXPECT_TRUE(check.Check(1, "ok DEPART\n.\n"));
  check.NextEpisode();
  EXPECT_TRUE(check.Check(0, "ok ADMIT\nspeedup = 1.5\n.\n"));
  EXPECT_TRUE(check.Check(1, "ok DEPART\n.\n"));
  check.NextEpisode();
  EXPECT_FALSE(check.Check(0, "ok ADMIT\nspeedup = 1.6\n.\n"));
  EXPECT_NE(check.first_mismatch().find("episode 3 response 0"), std::string::npos);
}

TEST_F(OutputChecksTest, ShadowDoesTheDaemonsSolvesAndRejectsADoctoredResponse) {
  // The daemon's responses and joint solves, from an empty prediction cache.
  // b's probe of a's machine needs a baseline solve of a alone there.
  obs::Counter& predictions = obs::MetricsRegistry::Global().counter("predictor.predictions");
  const std::vector<std::string> lines = {admit_a_, admit_b_, "DEPART name=b", "DEPART name=a"};
  std::vector<std::string> responses;
  int64_t daemon_solves[kVerbCount] = {};
  PredictionCache::Global().Clear();
  {
    serve::PlacementService daemon = MakeService();
    for (const std::string& line : lines) {
      const uint64_t before = predictions.value();
      responses.push_back(daemon.HandleLine(line));
      daemon_solves[VerbOf(Request(line).verb)] +=
          static_cast<int64_t>(predictions.value() - before);
    }
  }
  PredictionCache::Global().Clear();

  // ctest runs in the build tree, so the journal stays inside it.
  const std::string journal = "perfbench_shadow_test.journal";
  std::remove(journal.c_str());
  obs::Tracer off;
  StatusOr<std::unique_ptr<Shadow>> shadow = Shadow::Create(journal, off);
  ASSERT_TRUE(shadow.ok());
  ShadowTotals totals;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    ASSERT_TRUE((*shadow)->Step(static_cast<int64_t>(i), lines[i], responses[i], 100.0, true,
                                totals)
                    .ok())
        << lines[i];
  }
  EXPECT_FALSE((*shadow)
                   ->Step(3, lines[3], Doctor(responses[3], "machine = ", "machine = 9"),
                          50.0, true, totals)
                   .ok());
  EXPECT_EQ(totals.requests[kAdmitVerb], 2);
  EXPECT_GT(totals.probe_solves, 0);
  // The probe leaves the prediction cache alone, so Handle solves what the
  // daemon solved.
  EXPECT_EQ(totals.solves[kAdmitVerb], daemon_solves[kAdmitVerb]);
  EXPECT_EQ(totals.solves[kDepartVerb], daemon_solves[kDepartVerb]);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace perfbench
}  // namespace pandia
