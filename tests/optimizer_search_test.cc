// src/predictor/optimizer: the pruned best, top-k and cheapest searches
// against the exhaustive scans they replaced, the work a best-plus-cheapest
// search costs, pinned exactly against a golden file, and the per-thread
// memo of each machine's candidate set.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/obs/metrics.h"
#include "src/predictor/optimizer.h"
#include "src/predictor/prediction_cache.h"
#include "src/serialize/serialize.h"
#include "src/topology/enumerate.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace {

uint64_t Counter(const char* name) {
  return obs::MetricsRegistry::Global().counter(name).value();
}

uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

const eval::Pipeline& PipelineFor(const std::string& type) {
  static std::map<std::string, const eval::Pipeline*>* pipelines =
      new std::map<std::string, const eval::Pipeline*>();
  auto it = pipelines->find(type);
  if (it == pipelines->end()) {
    it = pipelines->emplace(type, new eval::Pipeline(type)).first;
  }
  return *it->second;
}

// The exhaustive scans the pruned searches replaced, kept as their oracle:
// every candidate the optimizer searches (the canonical placements, or the
// same deterministic sample, less what the constraint rejects) predicted
// in enumeration order.
std::vector<RankedPlacement> PredictEveryCandidate(const Predictor& predictor,
                                                   const OptimizerOptions& options) {
  const MachineTopology& topo = predictor.machine().topo;
  std::vector<Placement> candidates;
  if (CountCanonicalPlacements(topo) <= options.exhaustive_limit) {
    candidates = EnumerateCanonicalPlacements(topo);
    if (options.constraint) {
      std::erase_if(candidates,
                    [&](const Placement& p) { return !options.constraint(p); });
    }
  } else {
    candidates = SampleCanonicalPlacements(topo, options.sample_count,
                                           options.sample_seed, options.constraint);
  }
  std::vector<RankedPlacement> all;
  for (Placement& placement : candidates) {
    Prediction prediction = predictor.Predict(placement);
    all.push_back(RankedPlacement{std::move(placement), std::move(prediction)});
  }
  return all;
}

// Ranking: a stable sort by descending speedup.
std::vector<RankedPlacement> ExhaustiveRanking(std::vector<RankedPlacement> all) {
  std::stable_sort(all.begin(), all.end(),
                   [](const RankedPlacement& a, const RankedPlacement& b) {
                     return a.prediction.speedup > b.prediction.speedup;
                   });
  return all;
}

// Cheapest: of the candidates within 1e-12 of the target, the fewest
// threads, then the fewest active sockets, then the highest speedup; the
// first such candidate wins.
const RankedPlacement& ExhaustiveCheapest(const std::vector<RankedPlacement>& all,
                                          double target_fraction) {
  double best_speedup = 0.0;
  for (const RankedPlacement& candidate : all) {
    best_speedup = std::max(best_speedup, candidate.prediction.speedup);
  }
  const double target = best_speedup * target_fraction;
  const auto cost_less = [](const RankedPlacement& a, const RankedPlacement& b) {
    if (a.placement.TotalThreads() != b.placement.TotalThreads()) {
      return a.placement.TotalThreads() < b.placement.TotalThreads();
    }
    if (a.placement.NumActiveSockets() != b.placement.NumActiveSockets()) {
      return a.placement.NumActiveSockets() < b.placement.NumActiveSockets();
    }
    return a.prediction.speedup > b.prediction.speedup;
  };
  const RankedPlacement* cheapest = nullptr;
  for (const RankedPlacement& candidate : all) {
    if (candidate.prediction.speedup + 1e-12 < target) {
      continue;
    }
    if (cheapest == nullptr || cost_less(candidate, *cheapest)) {
      cheapest = &candidate;
    }
  }
  return *cheapest;
}

void ExpectSame(const RankedPlacement& actual, const RankedPlacement& expected) {
  EXPECT_EQ(actual.placement.PerCore(), expected.placement.PerCore());
  EXPECT_EQ(Bits(actual.prediction.speedup), Bits(expected.prediction.speedup));
  EXPECT_EQ(actual.prediction.iterations, expected.prediction.iterations);
}

enum class Solver { kDefault, kMaxIterations3, kIterateOff };
enum class Constraint { kNone, kNoSmt, kMaxThreads6 };

// The pruned searches are the exhaustive scans, bit for bit: the same
// placements, speedup bits and iteration counts for top 1, 2, 5 and all
// and for cheapest at 0.5 to 1.0 of the best, on all four machines (x5-2
// and x2-4 sampled), at jobs 1 and 4 with the cache on and off, and they
// predict the same candidates at both job counts.
TEST(OptimizerSearch, PrunedSearchMatchesTheExhaustiveScan) {
  struct Case {
    std::string machine;
    std::string workload;  // "serial": the MD profile with parallel_fraction 0
    Solver solver;
    Constraint constraint;
  };
  const std::vector<Case> cases = {
      {"x3-2", "MD", Solver::kDefault, Constraint::kNone},
      {"x3-2", "Swim", Solver::kMaxIterations3, Constraint::kNoSmt},
      {"x3-2", "serial", Solver::kDefault, Constraint::kNone},
      {"x3-2", "CG", Solver::kIterateOff, Constraint::kMaxThreads6},
      {"x4-2", "Apsi", Solver::kDefault, Constraint::kMaxThreads6},
      {"x4-2", "EP", Solver::kMaxIterations3, Constraint::kNone},
      {"x4-2", "serial", Solver::kMaxIterations3, Constraint::kNoSmt},
      {"x4-2", "FT", Solver::kIterateOff, Constraint::kNone},
      {"x5-2", "Art", Solver::kDefault, Constraint::kNone},
      {"x5-2", "serial", Solver::kDefault, Constraint::kNone},
      {"x5-2", "BT", Solver::kMaxIterations3, Constraint::kNone},
      {"x2-4", "CG", Solver::kDefault, Constraint::kNone},
      {"x2-4", "serial", Solver::kDefault, Constraint::kNone},
      {"x2-4", "Swim", Solver::kIterateOff, Constraint::kNone},
  };
  const std::vector<size_t> top_ks = {1, 2, 5, size_t{1} << 20};
  const std::vector<double> fractions = {0.5, 0.8, 0.95, 1.0};
  int sampled = 0;
  int non_converged = 0;
  int tied = 0;
  uint64_t pruned = 0;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.machine + " " + c.workload);
    const eval::Pipeline& pipeline = PipelineFor(c.machine);
    WorkloadDescription description =
        pipeline.Profile(workloads::ByName(c.workload == "serial" ? "MD" : c.workload));
    if (c.workload == "serial") {
      description.parallel_fraction = 0.0;  // every ceiling is 1.0
    }
    PredictionOptions prediction;
    prediction.max_iterations = c.solver == Solver::kMaxIterations3 ? 3 : 1000;
    prediction.iterate = c.solver != Solver::kIterateOff;
    const Predictor predictor = pipeline.MakePredictor(description, prediction);
    OptimizerOptions base;
    base.exhaustive_limit = 5000;  // x5-2 and x2-4 are sampled
    base.sample_count = 600;
    if (c.constraint == Constraint::kNoSmt) {
      base.constraint = NoSmtConstraint();
    } else if (c.constraint == Constraint::kMaxThreads6) {
      base.constraint = MaxThreadsConstraint(6);
    }
    const uint64_t space = CountCanonicalPlacements(pipeline.description().topo);
    sampled += space > base.exhaustive_limit ? 1 : 0;

    const std::vector<RankedPlacement> all = PredictEveryCandidate(predictor, base);
    const std::vector<RankedPlacement> ranked = ExhaustiveRanking(all);
    for (const RankedPlacement& candidate : all) {
      non_converged += candidate.prediction.converged ? 0 : 1;
    }
    if (ranked.size() > 1 && ranked[0].prediction.speedup == ranked[1].prediction.speedup) {
      ++tied;
    }

    for (const bool use_cache : {false, true}) {
      std::map<int, uint64_t> predictions_at;
      for (const int jobs : {1, 4}) {
        SCOPED_TRACE(StrFormat("jobs %d, cache %s", jobs, use_cache ? "on" : "off"));
        OptimizerOptions options = base;
        options.common.jobs = jobs;
        options.common.use_cache = use_cache;
        PredictionCache::Global().Clear();
        const uint64_t predictions_before = Counter("predictor.predictions");
        const uint64_t pruned_before = Counter("optimizer.placements_pruned");
        for (const size_t top_k : top_ks) {
          const StatusOr<std::vector<RankedPlacement>> top =
              TryRankPlacements(predictor, top_k, options);
          ASSERT_TRUE(top.ok()) << top.status().ToString();
          ASSERT_EQ(top->size(), std::min(top_k, ranked.size()));
          for (size_t i = 0; i < top->size(); ++i) {
            SCOPED_TRACE(StrFormat("top %zu, position %zu", top_k, i));
            ExpectSame((*top)[i], ranked[i]);
          }
        }
        // With iterate off every ceiling is +infinity: ranking prunes nothing.
        if (c.solver == Solver::kIterateOff) {
          EXPECT_EQ(Counter("optimizer.placements_pruned"), pruned_before);
        }
        for (const double fraction : fractions) {
          SCOPED_TRACE(StrFormat("cheapest at %.2f", fraction));
          const StatusOr<RankedPlacement> cheapest =
              TryFindCheapestPlacement(predictor, fraction, options);
          ASSERT_TRUE(cheapest.ok()) << cheapest.status().ToString();
          ExpectSame(*cheapest, ExhaustiveCheapest(all, fraction));
        }
        predictions_at[jobs] = Counter("predictor.predictions") - predictions_before;
        pruned += Counter("optimizer.placements_pruned") - pruned_before;
      }
      EXPECT_EQ(predictions_at[1], predictions_at[4]) << "cache " << use_cache;
    }
  }
  // The sample reaches every branch: sampled spaces, solves stopped before
  // converging, a best placement tied with the next (the index rule
  // decides), and candidates that were never predicted.
  EXPECT_EQ(sampled, 6);
  EXPECT_GT(non_converged, 0);
  EXPECT_GT(tied, 0);
  EXPECT_GT(pruned, 0u);
}

// Where the capacity ceiling prunes hardest and is tightest: bandwidth-bound
// workloads whose best placements run close to what a shared resource
// carries, and bursty ones (b of 0.6 to 1.0) whose SMT placements the
// burstiness floor bounds. At default options (x2-4 sampled at 4000), top
// 1, 2 and 5 and cheapest at 0.5 to 1.0 of the best are the exhaustive
// scans' answers bit for bit at jobs 1 and 4, and both job counts solve
// the same candidates.
TEST(OptimizerSearch, TightCapacityCasesMatchTheExhaustiveScan) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"x3-2", "Art"},       {"x3-2", "FT"},   {"x3-2", "PRH"},  {"x3-2", "PRHO"},
      {"x3-2", "Sort-Join"}, {"x4-2", "Swim"}, {"x5-2", "PRHO"}, {"x2-4", "Bwaves"}};
  for (const auto& [machine, workload] : cases) {
    SCOPED_TRACE(machine + " " + workload);
    const eval::Pipeline& pipeline = PipelineFor(machine);
    const Predictor predictor =
        pipeline.MakePredictor(pipeline.Profile(workloads::ByName(workload)));
    const OptimizerOptions base;
    const std::vector<RankedPlacement> all = PredictEveryCandidate(predictor, base);
    const std::vector<RankedPlacement> ranked = ExhaustiveRanking(all);
    std::map<int, uint64_t> predictions_at;
    for (const int jobs : {1, 4}) {
      SCOPED_TRACE(StrFormat("jobs %d", jobs));
      OptimizerOptions options = base;
      options.common.jobs = jobs;
      PredictionCache::Global().Clear();
      const uint64_t predictions_before = Counter("predictor.predictions");
      for (const size_t top_k : {1, 2, 5}) {
        const StatusOr<std::vector<RankedPlacement>> top =
            TryRankPlacements(predictor, top_k, options);
        ASSERT_TRUE(top.ok()) << top.status().ToString();
        ASSERT_EQ(top->size(), top_k);
        for (size_t i = 0; i < top_k; ++i) {
          SCOPED_TRACE(StrFormat("top %zu, position %zu", top_k, i));
          ExpectSame((*top)[i], ranked[i]);
        }
      }
      for (const double fraction : {0.5, 0.8, 0.95, 1.0}) {
        SCOPED_TRACE(StrFormat("cheapest at %.2f", fraction));
        const StatusOr<RankedPlacement> cheapest =
            TryFindCheapestPlacement(predictor, fraction, options);
        ASSERT_TRUE(cheapest.ok()) << cheapest.status().ToString();
        ExpectSame(*cheapest, ExhaustiveCheapest(all, fraction));
      }
      predictions_at[jobs] = Counter("predictor.predictions") - predictions_before;
    }
    EXPECT_EQ(predictions_at[1], predictions_at[4]);
    EXPECT_LT(predictions_at[1], all.size());
  }
}

// search-cold's query (perfbench/search_run.cc) at jobs 1: the best
// placement, then the cheapest reaching 95% of it, each workload of the
// 22-workload suite on x3-2 from an empty prediction cache. Counts may
// fall; a rise needs a reason.
TEST(OptimizerSearch, SearchWorkMatchesGolden) {
  // Profiling runs the predictor too, so it happens before any counter is
  // read.
  const eval::Pipeline pipeline("x3-2");
  std::vector<Predictor> predictors;
  for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
    predictors.push_back(pipeline.MakePredictor(pipeline.Profile(workload)));
  }
  OptimizerOptions options;
  options.common.jobs = 1;
  const std::vector<std::string> names = {"predictor.predictions", "predictor.iterations",
                                          "optimizer.placements_evaluated",
                                          "optimizer.placements_pruned"};
  std::vector<uint64_t> before;
  for (const std::string& name : names) {
    before.push_back(obs::MetricsRegistry::Global().counter(name).value());
  }
  for (const Predictor& predictor : predictors) {
    PredictionCache::Global().Clear();
    ASSERT_TRUE(TryFindBestPlacement(predictor, options).ok());
    ASSERT_TRUE(TryFindCheapestPlacement(predictor, 0.95, options).ok());
  }
  std::string work;
  for (size_t i = 0; i < names.size(); ++i) {
    const uint64_t delta =
        obs::MetricsRegistry::Global().counter(names[i]).value() - before[i];
    work += StrFormat("%s %llu\n", names[i].c_str(),
                      static_cast<unsigned long long>(delta));
  }

  const StatusOr<std::string> golden =
      ReadTextFile(PANDIA_TEST_DATA_DIR "/golden/optimizer_search_work.txt");
  if (!golden.ok() || *golden != work) {
    const std::string actual = ::testing::TempDir() + "/optimizer_search_work.actual.txt";
    ASSERT_TRUE(WriteTextFile(actual, work).ok());
    ADD_FAILURE() << "work differs from tests/data/golden/optimizer_search_work.txt ("
                  << golden.status().ToString() << "); actual written to " << actual
                  << ":\n"
                  << work;
  }
}

struct BestAndCheapest {
  RankedPlacement best;
  RankedPlacement cheapest;
};

// pandia_predict's query: the best placement, then the cheapest reaching
// 95% of it.
BestAndCheapest Search(const Predictor& predictor, const OptimizerOptions& options) {
  StatusOr<RankedPlacement> best = TryFindBestPlacement(predictor, options);
  StatusOr<RankedPlacement> cheapest = TryFindCheapestPlacement(predictor, 0.95, options);
  EXPECT_TRUE(best.ok()) << best.status().ToString();
  EXPECT_TRUE(cheapest.ok()) << cheapest.status().ToString();
  return BestAndCheapest{*std::move(best), *std::move(cheapest)};
}

void ExpectSameAnswer(const RankedPlacement& actual, const RankedPlacement& expected) {
  EXPECT_EQ(actual.placement.PerCore(), expected.placement.PerCore());
  EXPECT_EQ(actual.placement.topology().name, expected.placement.topology().name);
  EXPECT_EQ(Bits(actual.prediction.speedup), Bits(expected.prediction.speedup));
}

// Each machine's candidate set is built once per thread, not once per call,
// and a search answers the same whatever set its thread's slot held before:
// bit for bit the same search on a fresh thread, whose slot is empty.
TEST(OptimizerSearch, CandidateSetsAreBuiltOncePerMachine) {
  const auto predictor_on = [](const std::string& machine) {
    const eval::Pipeline& pipeline = PipelineFor(machine);
    return pipeline.MakePredictor(pipeline.Profile(workloads::ByName("EP")));
  };
  const Predictor x3 = predictor_on("x3-2");
  const Predictor x4 = predictor_on("x4-2");
  const Predictor x2 = predictor_on("x2-4");
  const eval::Pipeline& x3_pipeline = PipelineFor("x3-2");
  std::vector<Predictor> suite;
  for (const sim::WorkloadSpec& workload : workloads::EvaluationSuite()) {
    suite.push_back(x3_pipeline.MakePredictor(x3_pipeline.Profile(workload)));
  }
  OptimizerOptions options;
  options.common.jobs = 1;

  // The slot holds x4-2's set, so the suite's x3-2 searches build one set,
  // and then so do two x2-4 searches at one seed.
  ASSERT_TRUE(TryFindBestPlacement(x4, options).ok());
  const uint64_t exhaustive_before = Counter("optimizer.exhaustive_runs");
  for (const Predictor& predictor : suite) {
    PredictionCache::Global().Clear();
    ASSERT_TRUE(TryFindBestPlacement(predictor, options).ok());
    ASSERT_TRUE(TryFindCheapestPlacement(predictor, 0.95, options).ok());
  }
  EXPECT_EQ(Counter("optimizer.exhaustive_runs") - exhaustive_before, 1u);
  const uint64_t sampled_before = Counter("optimizer.sampled_runs");
  ASSERT_TRUE(TryFindBestPlacement(x2, options).ok());
  ASSERT_TRUE(TryFindBestPlacement(x2, options).ok());
  EXPECT_EQ(Counter("optimizer.sampled_runs") - sampled_before, 1u);

  // Interleaved machines, a constraint, seeds and sample sizes: every
  // answer is the same search's on a fresh thread.
  struct Step {
    const Predictor* predictor;
    OptimizerOptions options;
  };
  OptimizerOptions one_socket = options;
  one_socket.constraint = MaxSocketsConstraint(1);
  OptimizerOptions seed_2 = options;
  seed_2.sample_seed = 2;
  OptimizerOptions count_600 = options;
  count_600.sample_count = 600;
  const std::vector<std::vector<Step>> sequences = {
      {{&x3, options}, {&x3, one_socket}, {&x3, options}, {&x4, options}, {&x3, options}},
      {{&x2, options}, {&x2, seed_2}, {&x2, options}},
      {{&x2, count_600}, {&x2, options}},
  };
  for (size_t q = 0; q < sequences.size(); ++q) {
    for (size_t i = 0; i < sequences[q].size(); ++i) {
      SCOPED_TRACE(StrFormat("sequence %zu, step %zu", q, i));
      const Step& step = sequences[q][i];
      const BestAndCheapest here = Search(*step.predictor, step.options);
      std::optional<BestAndCheapest> fresh;
      std::thread([&] { fresh = Search(*step.predictor, step.options); }).join();
      ExpectSameAnswer(here.best, fresh->best);
      ExpectSameAnswer(here.cheapest, fresh->cheapest);
    }
  }
}

}  // namespace
}  // namespace pandia
