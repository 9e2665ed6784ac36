// src/rack/fleet.h + src/serve/fleet_service.h: the fleet routing layer —
// deterministic shard preference orders, per-verb request routing, the
// cross-shard admission invariants, and the acceptance-criterion soak: a
// mixed event stream against a 2-shard fleet whose STATUS and TELEMETRY
// replay byte-identically after killing and replaying every shard's
// journal.
#include "src/serve/fleet_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/obs/metrics.h"
#include "src/rack/fleet.h"
#include "src/serialize/serialize.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace serve {
namespace {

const eval::Pipeline& X3() {
  static const eval::Pipeline* pipeline = new eval::Pipeline("x3-2");
  return *pipeline;
}

const std::string& DescriptionText(const std::string& workload) {
  static std::map<std::string, std::string>* cache =
      new std::map<std::string, std::string>();
  auto it = cache->find(workload);
  if (it == cache->end()) {
    it = cache
             ->emplace(workload, WorkloadDescriptionToText(
                                     X3().Profile(workloads::ByName(workload))))
             .first;
  }
  return it->second;
}

std::vector<rack::RackMachine> Nodes(int count) {
  std::vector<rack::RackMachine> machines;
  for (int i = 0; i < count; ++i) {
    machines.push_back({StrFormat("node%d", i), X3().description()});
  }
  return machines;
}

std::string AdmitLine(const std::string& name, const std::string& workload,
                      int threads) {
  wire::Request request;
  request.verb = "ADMIT";
  request.params.emplace_back("name", name);
  request.params.emplace_back("threads", StrFormat("%d", threads));
  request.params.emplace_back("desc.x3-2", DescriptionText(workload));
  return wire::FormatRequest(request);
}

std::unique_ptr<FleetService> MustCreate(std::vector<rack::RackMachine> machines,
                                         FleetOptions options) {
  StatusOr<std::unique_ptr<FleetService>> fleet =
      FleetService::Create(std::move(machines), std::move(options));
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  return std::move(fleet).value();
}

bool IsOkBlock(const std::string& block) { return block.rfind("ok ", 0) == 0; }
bool IsErrBlock(const std::string& block) { return block.rfind("err ", 0) == 0; }

// The shard an ok ADMIT/DEPART block reports via its "shard = k" row.
int ShardOf(const std::string& block) {
  const size_t at = block.find("shard = ");
  EXPECT_NE(at, std::string::npos) << block;
  return at == std::string::npos ? -1 : std::atoi(block.c_str() + at + 8);
}

TEST(FleetRouter, ShardOrderIsADeterministicPermutation) {
  const rack::Fleet first(4, rack::ShardPolicy::kConsistentHash);
  const rack::Fleet second(4, rack::ShardPolicy::kConsistentHash);
  const std::vector<rack::ShardLoad> loads(4);
  for (const char* name : {"web", "db", "cache", "batch-17", ""}) {
    const std::vector<int> order = first.ShardOrder(name, loads);
    // Independently built rings agree: routing is a pure function of the
    // name, never of construction history.
    EXPECT_EQ(order, second.ShardOrder(name, loads)) << name;
    std::vector<int> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3})) << name;
  }
}

TEST(FleetRouter, ConsistentHashIgnoresLoads) {
  const rack::Fleet fleet(3, rack::ShardPolicy::kConsistentHash);
  std::vector<rack::ShardLoad> idle(3);
  std::vector<rack::ShardLoad> skewed{{0, 50}, {96, 0}, {1, 1}};
  EXPECT_EQ(fleet.ShardOrder("sticky", idle), fleet.ShardOrder("sticky", skewed));
}

TEST(FleetRouter, LeastLoadedFollowsFreeThreadsThenJobsThenIndex) {
  const rack::Fleet fleet(3, rack::ShardPolicy::kLeastLoaded);
  const std::vector<rack::ShardLoad> loads{{4, 1}, {10, 5}, {10, 2}};
  // Most free threads first; the 10-thread tie breaks on fewer jobs.
  EXPECT_EQ(fleet.ShardOrder("any", loads), (std::vector<int>{2, 1, 0}));
  const std::vector<rack::ShardLoad> equal(3, rack::ShardLoad{8, 2});
  // Full tie: shard index keeps the order stable.
  EXPECT_EQ(fleet.ShardOrder("any", equal), (std::vector<int>{0, 1, 2}));
}

TEST(FleetRouter, PolicyNamesRoundTrip) {
  for (const rack::ShardPolicy policy :
       {rack::ShardPolicy::kConsistentHash, rack::ShardPolicy::kLeastLoaded}) {
    const StatusOr<rack::ShardPolicy> parsed =
        rack::ShardPolicyFromName(rack::ShardPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(rack::ShardPolicyFromName("round-robin").ok());
}

TEST(FleetService, CreateValidatesShardAndMachineCounts) {
  FleetOptions zero;
  zero.shards = 0;
  EXPECT_EQ(FleetService::Create(Nodes(2), zero).status().code(),
            StatusCode::kInvalidArgument);
  FleetOptions starved;
  starved.shards = 3;
  EXPECT_EQ(FleetService::Create(Nodes(2), starved).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FleetService, HelloAdvertisesFleetCapability) {
  FleetOptions options;
  options.shards = 2;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(4), options);
  const std::string hello = fleet->HandleLine("HELLO");
  ASSERT_TRUE(IsOkBlock(hello)) << hello;
  EXPECT_NE(hello.find("capabilities = compact,fleet,recorder,telemetry"),
            std::string::npos)
      << hello;
  EXPECT_NE(hello.find("shards = 2"), std::string::npos) << hello;
  EXPECT_NE(hello.find("shard-policy = consistent-hash"), std::string::npos)
      << hello;
}

TEST(FleetService, DepartFollowsTheAdmittingShard) {
  FleetOptions options;
  options.shards = 2;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(4), options);
  const std::string admitted = fleet->HandleLine(AdmitLine("web", "EP", 4));
  ASSERT_TRUE(IsOkBlock(admitted)) << admitted;
  const int home = ShardOf(admitted);
  const std::string departed = fleet->HandleLine("DEPART name=web");
  ASSERT_TRUE(IsOkBlock(departed)) << departed;
  EXPECT_EQ(ShardOf(departed), home);
  const std::string ghost = fleet->HandleLine("DEPART name=web");
  EXPECT_TRUE(IsErrBlock(ghost)) << ghost;
  EXPECT_NE(ghost.find("not-found"), std::string::npos) << ghost;
}

TEST(FleetService, DuplicateNameRefusedAcrossShards) {
  FleetOptions options;
  options.shards = 2;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(4), options);
  ASSERT_TRUE(IsOkBlock(fleet->HandleLine(AdmitLine("web", "EP", 2))));
  // The duplicate must be refused no matter which shard it would route to:
  // a name is fleet-unique, not shard-unique.
  const std::string duplicate = fleet->HandleLine(AdmitLine("web", "MD", 2));
  ASSERT_TRUE(IsErrBlock(duplicate)) << duplicate;
  EXPECT_NE(duplicate.find("failed-precondition"), std::string::npos)
      << duplicate;
  EXPECT_NE(duplicate.find("already\\sresident"), std::string::npos) << duplicate;
}

TEST(FleetService, AdmissionFallsThroughAFullShard) {
  // One machine per shard, so one 32-thread job fills a shard outright.
  FleetOptions options;
  options.shards = 2;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(2), options);
  const rack::Fleet router(2, rack::ShardPolicy::kConsistentHash);
  const std::vector<rack::ShardLoad> loads(2);
  const std::string probe = "fallthrough-job";
  const int preferred = router.PreferredShard(probe, loads);
  // Fill the probe's preferred shard with a job that also prefers it.
  std::string filler;
  for (int i = 0;; ++i) {
    filler = StrFormat("fill%d", i);
    if (router.PreferredShard(filler, loads) == preferred) {
      break;
    }
  }
  const std::string filled = fleet->HandleLine(AdmitLine(filler, "EP", 32));
  ASSERT_TRUE(IsOkBlock(filled)) << filled;
  ASSERT_EQ(ShardOf(filled), preferred);
  // The probe's preferred shard has nothing free: admission must land on
  // the other shard instead of failing.
  const std::string admitted = fleet->HandleLine(AdmitLine(probe, "EP", 32));
  ASSERT_TRUE(IsOkBlock(admitted)) << admitted;
  EXPECT_EQ(ShardOf(admitted), 1 - preferred);
  // With every shard full, the refusal is the preferred shard's.
  const std::string refused = fleet->HandleLine(AdmitLine("late", "EP", 32));
  ASSERT_TRUE(IsErrBlock(refused)) << refused;
  EXPECT_NE(refused.find("failed-precondition"), std::string::npos) << refused;
}

TEST(FleetService, StatusFansOutInShardIndexOrder) {
  FleetOptions options;
  options.shards = 2;
  options.shard_policy = rack::ShardPolicy::kLeastLoaded;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(4), options);
  ASSERT_TRUE(IsOkBlock(fleet->HandleLine(AdmitLine("a", "EP", 2))));
  const std::string status = fleet->HandleLine("STATUS");
  ASSERT_TRUE(IsOkBlock(status)) << status;
  EXPECT_NE(status.find("shards = 2"), std::string::npos) << status;
  EXPECT_NE(status.find("shard-policy = least-loaded"), std::string::npos)
      << status;
  const size_t first = status.find("shard = 0");
  const size_t second = status.find("shard = 1");
  ASSERT_NE(first, std::string::npos) << status;
  ASSERT_NE(second, std::string::npos) << status;
  EXPECT_LT(first, second);
}

TEST(FleetService, MalformedAndUnknownRequestsGetStructuredErrors) {
  FleetOptions options;
  options.shards = 2;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(4), options);
  EXPECT_TRUE(IsErrBlock(fleet->HandleLine("GARBAGE ???")));
  EXPECT_TRUE(IsErrBlock(fleet->HandleLine("NOSUCHVERB")));
  EXPECT_TRUE(IsErrBlock(fleet->HandleLine("ADMIT")));
  EXPECT_TRUE(IsErrBlock(fleet->HandleLine("DEPART")));
}

// The front door counts each client request once, whatever the shards do
// with it, and its gauges sum over the shards.
TEST(FleetService, InstrumentsCountEachClientRequestOnce) {
  FleetOptions options;
  options.shards = 2;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(2), options);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  obs::Counter& status_requests = registry.counter("serve.status.requests");
  obs::Counter& admit_requests = registry.counter("serve.admit.requests");
  obs::Counter& admit_errors = registry.counter("serve.admit.errors");

  const uint64_t statuses = status_requests.value();
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(IsOkBlock(fleet->HandleLine("STATUS")));
  }
  EXPECT_EQ(status_requests.value() - statuses, 3u);

  // Fill the probe's preferred shard, so its ADMIT falls through to the
  // other one.
  const rack::Fleet router(2, rack::ShardPolicy::kConsistentHash);
  const std::vector<rack::ShardLoad> loads(2);
  const std::string probe = "fallthrough-job";
  const int preferred = router.PreferredShard(probe, loads);
  std::string filler;
  for (int i = 0;; ++i) {
    filler = StrFormat("fill%d", i);
    if (router.PreferredShard(filler, loads) == preferred) {
      break;
    }
  }
  ASSERT_TRUE(IsOkBlock(fleet->HandleLine(AdmitLine(filler, "EP", 32))));
  const uint64_t admits = admit_requests.value();
  const uint64_t admit_failures = admit_errors.value();
  const std::string admitted = fleet->HandleLine(AdmitLine(probe, "EP", 4));
  ASSERT_TRUE(IsOkBlock(admitted)) << admitted;
  ASSERT_EQ(ShardOf(admitted), 1 - preferred);
  EXPECT_EQ(admit_requests.value() - admits, 1u);
  EXPECT_EQ(admit_errors.value() - admit_failures, 0u);

  int jobs = 0;
  int free = 0;
  for (int k = 0; k < fleet->num_shards(); ++k) {
    const rack::Rack& rack = fleet->shard(k).rack();
    jobs += rack.JobCount();
    for (size_t m = 0; m < rack.machines().size(); ++m) {
      free += rack.FreeThreadCount(static_cast<int>(m));
    }
  }
  EXPECT_EQ(jobs, 2);
  EXPECT_EQ(registry.gauge("serve.jobs").value(), jobs);
  EXPECT_EQ(registry.gauge("serve.free_threads").value(), free);
}

// A fanned-out mutation reports what landed: shard 0 compacts, shard 1 is
// degraded and refuses, and the reply keeps shard 0's rows with a warning
// for shard 1 instead of failing the whole request.
TEST(FleetService, FanOutKeepsTheRowsOfShardsThatApplied) {
  const std::string base = ::testing::TempDir() + "/pandia_fleet_fanout.wire";
  for (int k = 0; k < 2; ++k) {
    std::remove(StrFormat("%s.shard%d", base.c_str(), k).c_str());
  }
  FleetOptions options;
  options.shards = 2;
  options.service.journal_path = base;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(4), options);
  const rack::Fleet router(2, rack::ShardPolicy::kConsistentHash);
  const std::vector<rack::ShardLoad> loads(2);
  std::vector<std::string> on_shard[2];
  for (int i = 0; on_shard[0].size() < 3 || on_shard[1].size() < 3; ++i) {
    const std::string name = StrFormat("job%d", i);
    on_shard[router.PreferredShard(name, loads)].push_back(name);
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(IsOkBlock(fleet->HandleLine(AdmitLine(on_shard[0][i], "EP", 1))));
  }
  // Shard 1's appends fail from here on: three failed ADMITs degrade it,
  // and its COMPACT probe fails too.
  fleet->shard(1).journal_for_test()->InjectAppendFailures(4);
  for (int i = 0; i < 3; ++i) {
    const std::string refused = fleet->HandleLine(AdmitLine(on_shard[1][i], "EP", 1));
    ASSERT_TRUE(IsErrBlock(refused)) << refused;
  }
  ASSERT_TRUE(fleet->shard(1).degraded());
  ASSERT_EQ(fleet->shard(0).journal_for_test()->record_count(), 3u);

  const std::string compacted = fleet->HandleLine("COMPACT");
  ASSERT_TRUE(IsOkBlock(compacted)) << compacted;
  EXPECT_NE(compacted.find("shard = 0\nrecords-before = 3\nrecords-after = 1\n"),
            std::string::npos)
      << compacted;
  EXPECT_NE(compacted.find("shard = 1\nwarning = shard 1: journal"),
            std::string::npos)
      << compacted;
  EXPECT_EQ(fleet->shard(0).journal_for_test()->record_count(), 1u);

  // Only a request every shard refuses fails.
  FleetOptions unjournaled;
  unjournaled.shards = 2;
  std::unique_ptr<FleetService> plain = MustCreate(Nodes(4), unjournaled);
  const std::string refused = plain->HandleLine("COMPACT");
  EXPECT_TRUE(IsErrBlock(refused)) << refused;
  EXPECT_NE(refused.find("failed-precondition"), std::string::npos) << refused;
  for (int k = 0; k < 2; ++k) {
    std::remove(StrFormat("%s.shard%d", base.c_str(), k).c_str());
  }
}

// A fleet of one shard adds nothing of its own to what the rack answers.
TEST(FleetService, OneShardAddsNoFleetRows) {
  FleetOptions options;
  options.shards = 1;
  std::unique_ptr<FleetService> fleet = MustCreate(Nodes(2), options);
  EXPECT_EQ(fleet->HandleLine("HELLO"),
            "ok HELLO\nprotocol = 1\ncapabilities = compact,recorder,telemetry\n.\n");
  const std::string admitted = fleet->HandleLine(AdmitLine("web", "EP", 2));
  ASSERT_TRUE(IsOkBlock(admitted)) << admitted;
  EXPECT_EQ(admitted.find("shard"), std::string::npos) << admitted;
  const std::string duplicate = fleet->HandleLine(AdmitLine("web", "EP", 2));
  EXPECT_NE(duplicate.find("already\\sresident\n"), std::string::npos) << duplicate;
  EXPECT_EQ(fleet->HandleLine("STATUS").find("shard"), std::string::npos);
}

// Shard 0's flight recorder keeps the requests the front door answers
// itself (HELLO, METRICS, unparseable lines, unknown verbs) next to the
// ones it serves, at every shard count; another shard records only the
// requests that reach it.
TEST(FleetService, RecorderKeepsTheRequestsTheFrontDoorAnswers) {
  for (const int shards : {1, 2}) {
    FleetOptions options;
    options.shards = shards;
    std::unique_ptr<FleetService> fleet = MustCreate(Nodes(4), options);
    for (const char* line :
         {"HELLO", "GARBAGE ???", "METRICS", "NOSUCHVERB", "STATUS", "SHUTDOWN"}) {
      (void)fleet->HandleLine(line);
    }
    std::vector<std::vector<std::string>> requests(static_cast<size_t>(shards));
    for (int k = 0; k < shards; ++k) {
      for (const obs::FlightEvent& event : fleet->shard(k).recorder().Dump()) {
        if (event.kind == "request") {
          requests[static_cast<size_t>(k)].push_back(event.detail);
        }
      }
    }
    EXPECT_EQ(requests[0],
              (std::vector<std::string>{"HELLO", "PARSE", "METRICS",
                                        "NOSUCHVERB invalid-argument", "STATUS",
                                        "SHUTDOWN"}))
        << shards << " shard(s)";
    if (shards == 2) {
      EXPECT_EQ(requests[1], (std::vector<std::string>{"STATUS", "SHUTDOWN"}));
    }
    EXPECT_TRUE(fleet->shutdown_requested());
  }
}

// A fixed request script replayed against two independently built fleets
// must produce identical transcripts — the routing layer may not consult
// anything beyond (name, loads).
TEST(FleetService, TwoRunsProduceByteIdenticalTranscripts) {
  const auto transcript = [] {
    FleetOptions options;
    options.shards = 2;
    std::unique_ptr<FleetService> fleet = MustCreate(Nodes(4), options);
    Rng rng(7);
    std::vector<std::string> live;
    std::string all;
    int next_id = 0;
    for (int event = 0; event < 60; ++event) {
      const uint64_t roll = rng.NextU64() % 10;
      if (roll < 6) {
        const std::string name = StrFormat("job%d", next_id++);
        const std::string response =
            fleet->HandleLine(AdmitLine(name, "EP", 1 + static_cast<int>(
                                                          rng.NextU64() % 4)));
        if (IsOkBlock(response)) {
          live.push_back(name);
        }
        all += response;
      } else if (roll < 8 && !live.empty()) {
        const size_t victim = rng.NextU64() % live.size();
        all += fleet->HandleLine("DEPART name=" + live[victim]);
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      } else {
        all += fleet->HandleLine("STATUS");
      }
    }
    all += fleet->HandleLine("TELEMETRY");
    return all;
  };
  EXPECT_EQ(transcript(), transcript());
}

// Acceptance criterion: kill a journaled fleet mid-life, replay every
// shard's journal, and the revived fleet's STATUS and TELEMETRY match the
// pre-kill bytes exactly.
TEST(FleetSoak, KillAndReplayEveryShardJournal) {
  const std::string base = ::testing::TempDir() + "/pandia_fleet_journal.wire";
  for (int k = 0; k < 2; ++k) {
    std::remove(StrFormat("%s.shard%d", base.c_str(), k).c_str());
  }
  FleetOptions options;
  options.shards = 2;
  options.service.journal_path = base;

  std::optional<std::unique_ptr<FleetService>> fleet(
      MustCreate(Nodes(4), options));
  Rng rng(42);
  std::vector<std::string> live;
  const std::vector<std::string> suite = {"EP", "MD", "CG"};
  int next_id = 0;
  for (int event = 0; event < 120; ++event) {
    const uint64_t roll = rng.NextU64() % 10;
    std::string response;
    if (roll < 5) {
      const std::string name = StrFormat("job%d", next_id++);
      response = (*fleet)->HandleLine(
          AdmitLine(name, suite[rng.NextU64() % suite.size()],
                    1 + static_cast<int>(rng.NextU64() % 4)));
      if (IsOkBlock(response)) {
        live.push_back(name);
      }
    } else if (roll < 8) {
      std::string name = "ghost";
      if (!live.empty() && roll != 7) {
        const size_t victim = rng.NextU64() % live.size();
        name = live[victim];
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      }
      response = (*fleet)->HandleLine("DEPART name=" + name);
    } else {
      response = (*fleet)->HandleLine("REBALANCE max-migrations=1");
    }
    ASSERT_TRUE(IsOkBlock(response) || IsErrBlock(response))
        << "event " << event << ": " << response;
  }
  const std::string status_before = (*fleet)->HandleLine("STATUS");
  const std::string telemetry_before = (*fleet)->HandleLine("TELEMETRY");
  ASSERT_TRUE(IsOkBlock(status_before)) << status_before;
  ASSERT_TRUE(IsOkBlock(telemetry_before)) << telemetry_before;
  fleet.reset();  // the "kill": no graceful teardown

  std::optional<std::unique_ptr<FleetService>> replayed(
      MustCreate(Nodes(4), options));
  EXPECT_EQ((*replayed)->HandleLine("STATUS"), status_before);
  EXPECT_EQ((*replayed)->HandleLine("TELEMETRY"), telemetry_before);

  // The revived fleet keeps serving — and still refuses duplicates of jobs
  // whose residency it only knows from replay.
  if (!live.empty()) {
    const std::string duplicate =
        (*replayed)->HandleLine(AdmitLine(live.front(), "EP", 1));
    ASSERT_TRUE(IsErrBlock(duplicate)) << duplicate;
    EXPECT_NE(duplicate.find("already\\sresident"), std::string::npos)
        << duplicate;
  }
}

}  // namespace
}  // namespace serve
}  // namespace pandia
