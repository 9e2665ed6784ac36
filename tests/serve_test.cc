// src/serve: the placement service — request lifecycle, structured error
// replies (no request may abort the daemon), the Unix-socket transport, and
// the acceptance-criterion soak: 200+ admit/depart/rebalance events on a
// simulated 4-machine rack with a kill-and-replay restart whose STATUS
// matches the pre-kill STATUS byte for byte.
#include "src/serve/service.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/obs/metrics.h"
#include "src/predictor/prediction_cache.h"
#include "src/serialize/serialize.h"
#include "src/serve/client.h"
#include "src/serve/fleet_service.h"
#include "src/serve/socket.h"
#include "src/util/crc32c.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"
#include "tests/rack_search_script.h"

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

std::vector<rack::RackMachine> FourNodeRack() {
  std::vector<rack::RackMachine> machines;
  for (int i = 0; i < 4; ++i) {
    machines.push_back({StrFormat("node%d", i), X3().description()});
  }
  return machines;
}

// An ADMIT of `workload`'s x3-2 description; an empty `policy` leaves the
// service's default.
std::string AdmitLine(const std::string& name, const std::string& workload,
                      int threads, const std::string& policy = "") {
  wire::Request request;
  request.verb = "ADMIT";
  request.params.emplace_back("name", name);
  request.params.emplace_back("threads", StrFormat("%d", threads));
  if (!policy.empty()) {
    request.params.emplace_back("policy", policy);
  }
  request.params.emplace_back("desc.x3-2", DescriptionText(workload));
  return wire::FormatRequest(request);
}

PlacementService MustCreate(std::vector<rack::RackMachine> machines,
                            ServiceOptions options) {
  StatusOr<PlacementService> service =
      PlacementService::Create(std::move(machines), std::move(options));
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return std::move(*service);
}

// The daemon's front door over one shard, as `pandia_serve` builds it
// without --shards.
std::unique_ptr<FleetService> MustCreateFleet(std::vector<rack::RackMachine> machines,
                                              ServiceOptions options) {
  FleetOptions fleet_options;
  fleet_options.shards = 1;
  fleet_options.service = std::move(options);
  StatusOr<std::unique_ptr<FleetService>> fleet =
      FleetService::Create(std::move(machines), std::move(fleet_options));
  EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
  return std::move(fleet).value();
}

bool IsOkBlock(const std::string& block) { return block.rfind("ok ", 0) == 0; }
bool IsErrBlock(const std::string& block) { return block.rfind("err ", 0) == 0; }

// The counters a work pin records: joint solves, solver iterations,
// candidates built and candidates solved.
constexpr const char* kWorkCounters[] = {"predictor.predictions", "predictor.iterations",
                                         "rack.probe.candidates", "rack.probe.solves"};

std::vector<uint64_t> ReadWorkCounters() {
  std::vector<uint64_t> values;
  for (const char* name : kWorkCounters) {
    values.push_back(obs::MetricsRegistry::Global().counter(name).value());
  }
  return values;
}

// One "<prefix><counter> <delta>" line per work counter, deltas since
// `before` (a ReadWorkCounters result).
std::string WorkSince(const std::vector<uint64_t>& before, const std::string& prefix) {
  const std::vector<uint64_t> now = ReadWorkCounters();
  std::string work;
  for (size_t i = 0; i < now.size(); ++i) {
    work += StrFormat("%s%s %llu\n", prefix.c_str(), kWorkCounters[i],
                      static_cast<unsigned long long>(now[i] - before[i]));
  }
  return work;
}

// Fails unless `pin` equals tests/data/golden/<name>.txt; on a mismatch the
// actual figures are written to <name>.actual.txt in the test temp directory.
void ExpectMatchesGolden(const std::string& name, const std::string& pin) {
  const StatusOr<std::string> golden =
      ReadTextFile(std::string(PANDIA_TEST_DATA_DIR "/golden/") + name + ".txt");
  if (golden.ok() && *golden == pin) {
    return;
  }
  const std::string actual = ::testing::TempDir() + "/" + name + ".actual.txt";
  ASSERT_TRUE(WriteTextFile(actual, pin).ok());
  ADD_FAILURE() << "figures differ from tests/data/golden/" << name << ".txt ("
                << golden.status().ToString() << "); actual written to " << actual
                << ":\n"
                << pin;
}

TEST(PlacementService, AdmitStatusDepartLifecycle) {
  std::unique_ptr<FleetService> service = MustCreateFleet(FourNodeRack(), ServiceOptions{});

  const std::string admitted = service->HandleLine(AdmitLine("web", "EP", 4));
  ASSERT_TRUE(IsOkBlock(admitted)) << admitted;
  EXPECT_NE(admitted.find("machine = "), std::string::npos);
  EXPECT_NE(admitted.find("threads = "), std::string::npos);
  EXPECT_NE(admitted.find("speedup = "), std::string::npos);

  const std::string status = service->HandleLine("STATUS");
  ASSERT_TRUE(IsOkBlock(status)) << status;
  EXPECT_NE(status.find("version = 1"), std::string::npos);
  EXPECT_NE(status.find("jobs = 1"), std::string::npos);
  EXPECT_NE(status.find("job = web"), std::string::npos);
  EXPECT_NE(status.find("bottleneck="), std::string::npos);

  const std::string departed = service->HandleLine("DEPART name=web");
  ASSERT_TRUE(IsOkBlock(departed)) << departed;
  const std::string after = service->HandleLine("STATUS");
  EXPECT_NE(after.find("jobs = 0"), std::string::npos);

  const std::string metrics = service->HandleLine("METRICS");
  ASSERT_TRUE(IsOkBlock(metrics)) << metrics;
  EXPECT_NE(metrics.find("counter rack.admissions"), std::string::npos);
}

TEST(PlacementService, MalformedRequestsGetStructuredErrors) {
  std::unique_ptr<FleetService> service = MustCreateFleet(FourNodeRack(), ServiceOptions{});
  const std::vector<std::string> bad = {
      "",                                  // empty line
      "lowercase verb",                    // bad verb charset
      "FROBNICATE everything",             // unknown verb / bad param
      "ADMIT",                             // no description
      "ADMIT name=x threads=zero desc.x3-2=junk",  // bad int, bad desc
      "ADMIT name=x threads=4 bogus=1",    // unknown parameter
      "DEPART",                            // missing name
      "DEPART name=ghost",                 // not resident
      "REBALANCE max-migrations=-1",       // negative budget
      "REBALANCE budget=3",                // unknown parameter
  };
  for (const std::string& line : bad) {
    const std::string response = service->HandleLine(line);
    EXPECT_TRUE(IsErrBlock(response)) << "'" << line << "' -> " << response;
    EXPECT_EQ(response.substr(response.size() - 2), ".\n") << response;
  }
  EXPECT_FALSE(service->shutdown_requested());
  EXPECT_EQ(service->shard(0).rack().JobCount(), 0);
}

TEST(PlacementService, AdmitRefusedWhenNothingFits) {
  // One machine, fill it, then ask for more than remains.
  std::vector<rack::RackMachine> machines{{"node0", X3().description()}};
  PlacementService service = MustCreate(std::move(machines), ServiceOptions{});
  ASSERT_TRUE(IsOkBlock(service.HandleLine(AdmitLine("big", "EP", 32))));
  const std::string refused = service.HandleLine(AdmitLine("late", "MD", 32));
  EXPECT_TRUE(IsErrBlock(refused)) << refused;
  EXPECT_NE(refused.find("failed-precondition"), std::string::npos) << refused;
}

TEST(PlacementService, DepartReplacesDegradedNeighbours) {
  // Two bandwidth hogs squeezed onto one node; when one leaves, the
  // survivor should be re-placed onto the freed threads (journaled MOVED).
  std::vector<rack::RackMachine> machines{{"node0", X3().description()}};
  ServiceOptions options;
  const std::string journal =
      ::testing::TempDir() + "/pandia_serve_replace_journal.wire";
  std::remove(journal.c_str());
  options.journal_path = journal;
  PlacementService service = MustCreate(std::move(machines), options);
  ASSERT_TRUE(IsOkBlock(service.HandleLine(AdmitLine("hog-a", "Swim", 16))));
  ASSERT_TRUE(IsOkBlock(service.HandleLine(AdmitLine("hog-b", "Swim", 16))));
  const std::string departed = service.HandleLine("DEPART name=hog-a");
  ASSERT_TRUE(IsOkBlock(departed)) << departed;
  if (departed.find("moved = hog-b") != std::string::npos) {
    const StatusOr<std::string> text = ReadTextFile(journal);
    ASSERT_TRUE(text.ok());
    EXPECT_NE(text->find("MOVED name=hog-b"), std::string::npos) << *text;
  }
}

// The rack search's decisions, pinned byte for byte: the scripted session
// (tests/rack_search_script.h) must answer exactly as the committed golden
// transcript. On a mismatch the actual transcript is written to the test
// temp directory for diffing.
TEST(PlacementService, RackSearchMatchesGoldenTranscript) {
  PlacementService service =
      MustCreate(rack_search_script::Machines(), ServiceOptions{});
  const std::string transcript = rack_search_script::RunRackSearchScript(service);
  // The script reaches every search path it is meant to pin.
  EXPECT_NE(transcript.find("policy=least-interference"), std::string::npos);
  EXPECT_NE(transcript.find("\nmoved = "), std::string::npos);
  EXPECT_NE(transcript.find("\nmigrations = "), std::string::npos);

  const StatusOr<std::string> golden =
      ReadTextFile(PANDIA_TEST_DATA_DIR "/golden/rack_search.txt");
  if (!golden.ok() || *golden != transcript) {
    const std::string actual = ::testing::TempDir() + "/rack_search.actual.txt";
    ASSERT_TRUE(WriteTextFile(actual, transcript).ok());
    ADD_FAILURE() << "transcript differs from tests/data/golden/rack_search.txt ("
                  << golden.status().ToString() << "); actual written to " << actual;
  }
}

// The work behind the same script, pinned exactly: from an empty
// prediction cache and a serial probe fan-out, the script's joint solves,
// solver iterations, enumerated candidates and solved candidates are
// deterministic. A change may lower these counts; one that raises them
// says why.
TEST(PlacementService, RackSearchWorkMatchesGolden) {
  // Profiling runs the predictor too, so it happens before any counter is
  // read.
  for (const std::string& type : rack_search_script::MachineTypes()) {
    for (const std::string& workload : rack_search_script::Suite()) {
      (void)rack_search_script::DescriptionText(type, workload);
    }
  }
  PredictionCache::Global().Clear();
  ServiceOptions options;
  options.prediction.common.jobs = 1;
  PlacementService service = MustCreate(rack_search_script::Machines(), options);
  const std::vector<uint64_t> before = ReadWorkCounters();
  (void)rack_search_script::RunRackSearchScript(service);
  ExpectMatchesGolden("rack_search_work", WorkSince(before, ""));
}

// The golden figures of a journal file's text: its records per verb, its
// size and its CRC32C.
std::string JournalPin(const std::string& text) {
  // Each record line is "seq crc len VERB ..."; the first line is the magic.
  std::map<std::string, int> verbs;
  int records = 0;
  const std::vector<std::string> lines = StrSplit(text, '\n');
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> fields = StrSplit(lines[i], ' ');
    if (fields.size() >= 4) {
      ++records;
      ++verbs[fields[3]];
    }
  }
  std::string pin = StrFormat("records %d\n", records);
  for (const auto& [verb, count] : verbs) {
    pin += StrFormat("%s %d\n", verb.c_str(), count);
  }
  pin += StrFormat("bytes %zu\ncrc32c %08x\n", text.size(), Crc32c(text));
  return pin;
}

// The journal behind the same script, pinned by its records per verb, its
// size and its CRC32C. The script's ADMITs carry three descriptions each, so
// the pin also checks that each ADMITTED record holds the chosen machine
// type's text: a record holding another type's text replays without error,
// and only these bytes tell it apart.
TEST(PlacementService, RackSearchJournalMatchesGolden) {
  const std::string journal =
      ::testing::TempDir() + "/pandia_rack_search_journal.wire";
  std::remove(journal.c_str());
  ServiceOptions options;
  options.prediction.common.jobs = 1;
  options.journal_path = journal;
  options.journal.sync = SyncPolicy::kNone;
  {
    PlacementService service = MustCreate(rack_search_script::Machines(), options);
    (void)rack_search_script::RunRackSearchScript(service);
  }
  const StatusOr<std::string> text = ReadTextFile(journal);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ExpectMatchesGolden("rack_search_journal", JournalPin(*text));
  std::remove(journal.c_str());
}

// The daemon serves through its front door at every shard count. Over one
// shard the front door adds nothing of its own: the scripted session
// answers with the golden transcript and journals the golden bytes at the
// configured path itself.
TEST(FleetService, OneShardAnswersAndJournalsLikeItsRack) {
  const std::string journal =
      ::testing::TempDir() + "/pandia_rack_search_fleet_journal.wire";
  std::remove(journal.c_str());
  std::remove((journal + ".shard0").c_str());
  ServiceOptions options;
  options.prediction.common.jobs = 1;
  options.journal_path = journal;
  options.journal.sync = SyncPolicy::kNone;
  std::string transcript;
  {
    std::unique_ptr<FleetService> fleet =
        MustCreateFleet(rack_search_script::Machines(), options);
    transcript =
        rack_search_script::RunRackSearchScript(*fleet, fleet->shard(0).rack());
  }
  const StatusOr<std::string> golden =
      ReadTextFile(PANDIA_TEST_DATA_DIR "/golden/rack_search.txt");
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  EXPECT_TRUE(transcript == *golden)
      << "the 1-shard front door's transcript differs from "
         "tests/data/golden/rack_search.txt";
  const StatusOr<std::string> text = ReadTextFile(journal);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ExpectMatchesGolden("rack_search_journal", JournalPin(*text));
  std::remove(journal.c_str());
}

// ADMIT's work on an empty rack of four equal machines, pinned per policy
// the same way: every suite workload is admitted at 1, 2, 4 and 8 threads
// and departed at once, so each ADMIT probes the same empty rack and picks
// node0, the first of four equal answers.
TEST(PlacementService, EmptyRackAdmitWorkMatchesGolden) {
  for (const std::string& workload : rack_search_script::Suite()) {
    (void)DescriptionText(workload);
  }
  PredictionCache::Global().Clear();
  ServiceOptions options;
  options.prediction.common.jobs = 1;
  PlacementService service = MustCreate(FourNodeRack(), options);
  std::string work;
  for (const rack::Policy policy : {rack::Policy::kBestSpeedup, rack::Policy::kFirstFit,
                                    rack::Policy::kLeastInterference}) {
    const std::vector<uint64_t> before = ReadWorkCounters();
    for (const std::string& workload : rack_search_script::Suite()) {
      for (const int threads : {1, 2, 4, 8}) {
        const std::string admitted = service.HandleLine(
            AdmitLine("job", workload, threads, rack::PolicyName(policy)));
        ASSERT_TRUE(IsOkBlock(admitted)) << admitted;
        EXPECT_NE(admitted.find("\nmachine = 0\n"), std::string::npos) << admitted;
        ASSERT_TRUE(IsOkBlock(service.HandleLine("DEPART name=job")));
      }
    }
    work += WorkSince(before, rack::PolicyName(policy) + " ");
  }
  ExpectMatchesGolden("empty_rack_admit_work", work);
}

// A DEPART with a margin no re-placement can clear costs one joint solve:
// the departed machine's post-departure prediction, which every neighbour's
// current speedup then reads from the prediction cache. Each neighbour's
// best re-placement reaches at most its Amdahl speedup, far below eleven
// times its current one, so no candidate placement is solved.
TEST(PlacementService, DepartBeyondTheMarginSolvesOnlyTheMachine) {
  std::vector<rack::RackMachine> machines{{"node0", X3().description()}};
  ServiceOptions options;
  options.replace_margin = 10.0;
  PlacementService service = MustCreate(std::move(machines), options);
  for (const char* workload : {"EP", "MD", "CG", "Swim"}) {
    ASSERT_TRUE(IsOkBlock(service.HandleLine(AdmitLine(workload, workload, 4))));
  }
  const obs::Counter& predictions =
      obs::MetricsRegistry::Global().counter("predictor.predictions");
  const uint64_t before = predictions.value();
  const std::string departed = service.HandleLine("DEPART name=MD");
  ASSERT_TRUE(IsOkBlock(departed)) << departed;
  EXPECT_EQ(departed.find("moved = "), std::string::npos) << departed;
  ASSERT_EQ(service.rack().JobsOn(0).size(), 3u);
  EXPECT_EQ(predictions.value() - before, 1u);
}

TEST(SocketTransport, ServesClientsAndShutsDown) {
  std::unique_ptr<FleetService> service = MustCreateFleet(FourNodeRack(), ServiceOptions{});
  const std::string path = ::testing::TempDir() + "/pandia_serve_test.sock";
  StatusOr<SocketServer> server = SocketServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::thread loop([&service, &server] {
    const Status served = RunEventLoop(*service, /*stdin_fd=*/-1, stdout, &*server);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  const StatusOr<std::string> first =
      SocketExchange(path, AdmitLine("sock-job", "MD", 4) + "\nSTATUS\n");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(IsOkBlock(*first)) << *first;
  EXPECT_NE(first->find("job = sock-job"), std::string::npos) << *first;

  const StatusOr<std::string> second = SocketExchange(path, "SHUTDOWN\n");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_NE(second->find("ok SHUTDOWN"), std::string::npos) << *second;
  loop.join();
  EXPECT_TRUE(service->shutdown_requested());
}

TEST(SocketTransport, SurvivesStdinEofWhileSocketConfigured) {
  // A backgrounded daemon has its stdin closed immediately; with a socket
  // configured that must detach stdin, not end the loop.
  std::unique_ptr<FleetService> service = MustCreateFleet(FourNodeRack(), ServiceOptions{});
  const std::string path = ::testing::TempDir() + "/pandia_serve_eof.sock";
  StatusOr<SocketServer> server = SocketServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  int stdin_pipe[2];
  ASSERT_EQ(pipe(stdin_pipe), 0);
  close(stdin_pipe[1]);  // immediate EOF, like `daemon < /dev/null &`

  std::thread loop([&service, &server, &stdin_pipe] {
    const Status served =
        RunEventLoop(*service, stdin_pipe[0], stdout, &*server);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  const StatusOr<std::string> status = SocketExchange(path, "STATUS\n");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_NE(status->find("ok STATUS"), std::string::npos) << *status;

  const StatusOr<std::string> bye = SocketExchange(path, "SHUTDOWN\n");
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  loop.join();
  close(stdin_pipe[0]);
  EXPECT_TRUE(service->shutdown_requested());
}

// The acceptance-criterion soak. Every response must be a framed ok/err
// block (nothing may abort), and a daemon rebuilt from the journal after a
// "kill" must answer STATUS with the exact pre-kill bytes.
TEST(ServeSoak, TwoHundredEventsThenKillAndReplay) {
  const std::string journal = ::testing::TempDir() + "/pandia_soak_journal.wire";
  std::remove(journal.c_str());
  ServiceOptions options;
  options.journal_path = journal;

  std::optional<PlacementService> service(MustCreate(FourNodeRack(), options));
  const std::vector<std::string> suite = {"EP", "MD", "CG"};
  Rng rng(42);
  std::vector<std::string> live;
  int events = 0;
  int admits = 0;
  int departs = 0;
  int rebalances = 0;
  int next_id = 0;
  while (events < 220) {
    ++events;
    const uint64_t roll = rng.NextU64() % 10;
    std::string response;
    if (roll < 5) {
      const std::string name = StrFormat("job%d", next_id++);
      const std::string& workload = suite[rng.NextU64() % suite.size()];
      const int threads = 1 + static_cast<int>(rng.NextU64() % 4);
      response = service->HandleLine(AdmitLine(name, workload, threads));
      ++admits;
      if (IsOkBlock(response)) {
        live.push_back(name);
      }
    } else if (roll < 8) {
      // Departures sometimes target a job that never existed — that must be
      // a clean not-found error, not a crash.
      std::string name = "ghost";
      if (!live.empty() && roll != 7) {
        const size_t victim = rng.NextU64() % live.size();
        name = live[victim];
        live.erase(live.begin() + static_cast<ptrdiff_t>(victim));
      }
      response = service->HandleLine("DEPART name=" + name);
      ++departs;
    } else {
      response = service->HandleLine("REBALANCE max-migrations=1");
      ++rebalances;
    }
    ASSERT_TRUE(IsOkBlock(response) || IsErrBlock(response))
        << "event " << events << ": " << response;
    ASSERT_GE(response.size(), 2u);
    ASSERT_EQ(response.substr(response.size() - 2), ".\n") << response;
    if (events % 13 == 0) {
      const std::string garbage = service->HandleLine("GARBAGE ???");
      ASSERT_TRUE(IsErrBlock(garbage)) << garbage;
    }
  }
  EXPECT_GE(admits + departs + rebalances, 200);
  EXPECT_GT(admits, 0);
  EXPECT_GT(departs, 0);
  EXPECT_GT(rebalances, 0);
  EXPECT_EQ(service->rack().JobCount(), static_cast<int>(live.size()));

  const std::string status_before = service->HandleLine("STATUS");
  ASSERT_TRUE(IsOkBlock(status_before));
  service.reset();  // the "kill": no graceful teardown of rack state

  std::optional<PlacementService> replayed(MustCreate(FourNodeRack(), options));
  EXPECT_EQ(replayed->rack().JobCount(), static_cast<int>(live.size()));
  const std::string status_after = replayed->HandleLine("STATUS");
  EXPECT_EQ(status_after, status_before);

  // The revived daemon keeps serving: admissions still work and journal.
  const std::string more = replayed->HandleLine(AdmitLine("revived", "EP", 2));
  EXPECT_TRUE(IsOkBlock(more) || IsErrBlock(more)) << more;
}

TEST(PlacementService, EmptyJournalFileIsAFreshJournal) {
  // A 0-byte journal (touch, or a crash between fopen and the header write)
  // must replay as empty AND still get the header, so records appended
  // afterwards survive the next restart.
  const std::string journal = ::testing::TempDir() + "/pandia_empty_journal.wire";
  ASSERT_TRUE(WriteTextFile(journal, "").ok());
  ServiceOptions options;
  options.journal_path = journal;
  {
    StatusOr<PlacementService> service =
        PlacementService::Create(FourNodeRack(), options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ(service->rack().JobCount(), 0);
    ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("survivor", "EP", 2))));
  }
  StatusOr<PlacementService> replayed =
      PlacementService::Create(FourNodeRack(), options);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  EXPECT_EQ(replayed->rack().JobCount(), 1);
  EXPECT_TRUE(replayed->rack().Has("survivor"));
  std::remove(journal.c_str());
}

TEST(SocketTransport, RefusesToClobberALiveListener) {
  const std::string path = ::testing::TempDir() + "/pandia_clobber.sock";
  std::remove(path.c_str());
  {
    StatusOr<SocketServer> first = SocketServer::Listen(path);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    StatusOr<SocketServer> second = SocketServer::Listen(path);
    EXPECT_FALSE(second.ok());
    EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  }
  // The first server's teardown removed the path; a fresh Listen works.
  StatusOr<SocketServer> again = SocketServer::Listen(path);
  EXPECT_TRUE(again.ok()) << again.status().ToString();
}

TEST(SocketTransport, RefusesToDeleteANonSocketPath) {
  const std::string path = ::testing::TempDir() + "/pandia_not_a_socket";
  ASSERT_TRUE(WriteTextFile(path, "precious data\n").ok());
  StatusOr<SocketServer> server = SocketServer::Listen(path);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kFailedPrecondition);
  const StatusOr<std::string> kept = ReadTextFile(path);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(*kept, "precious data\n");
  std::remove(path.c_str());
}

TEST(SocketTransport, ReplacesAStaleSocketFile) {
  // A bound-then-closed socket leaves its file behind with nobody
  // listening, exactly what a crashed daemon leaves; Listen reclaims it.
  const std::string path = ::testing::TempDir() + "/pandia_stale.sock";
  std::remove(path.c_str());
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  ::close(stale);

  StatusOr<SocketServer> server = SocketServer::Listen(path);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
}

TEST(SocketTransport, SurvivesClientsThatHangUpBeforeTheResponse) {
  // Clients that connect, ask, and vanish before reading must cost the
  // daemon one failed write, not a SIGPIPE death.
  std::unique_ptr<FleetService> service = MustCreateFleet(FourNodeRack(), ServiceOptions{});
  const std::string path = ::testing::TempDir() + "/pandia_hangup.sock";
  std::remove(path.c_str());
  StatusOr<SocketServer> server = SocketServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::thread loop([&service, &server] {
    const Status served = RunEventLoop(*service, /*stdin_fd=*/-1, stdout, &*server);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  for (int round = 0; round < 8; ++round) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    const char request[] = "STATUS\nSTATUS\nSTATUS\n";
    (void)::send(fd, request, sizeof(request) - 1, MSG_NOSIGNAL);
    ::close(fd);  // gone before the daemon can possibly have answered
  }

  // The daemon is still alive and serving.
  const StatusOr<std::string> status = SocketExchange(path, "STATUS\n");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_NE(status->find("ok STATUS"), std::string::npos) << *status;
  const StatusOr<std::string> bye = SocketExchange(path, "SHUTDOWN\n");
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  loop.join();
}

// --- serving telemetry (TELEMETRY / RECORDER / METRICS format=expo) ------

TEST(PlacementService, TelemetryListsResidentJobsWithAdmitPrediction) {
  PlacementService service = MustCreate(FourNodeRack(), ServiceOptions{});
  ASSERT_TRUE(IsOkBlock(service.HandleLine(AdmitLine("web", "EP", 4))));
  ASSERT_TRUE(IsOkBlock(service.HandleLine(AdmitLine("db", "MD", 2))));

  const std::string telemetry = service.HandleLine("TELEMETRY");
  ASSERT_TRUE(IsOkBlock(telemetry)) << telemetry;
  EXPECT_NE(telemetry.find("jobs = 2"), std::string::npos);
  EXPECT_NE(telemetry.find("job = db "), std::string::npos);
  EXPECT_NE(telemetry.find("job = web "), std::string::npos);
  EXPECT_NE(telemetry.find("speedup-at-admit="), std::string::npos);
  EXPECT_NE(telemetry.find("slowdown-at-admit="), std::string::npos);
  EXPECT_NE(telemetry.find("current-speedup="), std::string::npos);
  EXPECT_NE(telemetry.find("degradation="), std::string::npos);
  // The prediction at admit is a real number, not the 0.0 fallback.
  EXPECT_EQ(telemetry.find("speedup-at-admit=0.000000"), std::string::npos);

  // TELEMETRY is read-only and takes no parameters.
  EXPECT_TRUE(IsErrBlock(service.HandleLine("TELEMETRY verbose=1")));

  ASSERT_TRUE(IsOkBlock(service.HandleLine("DEPART name=web")));
  const std::string after = service.HandleLine("TELEMETRY");
  EXPECT_NE(after.find("jobs = 1"), std::string::npos);
  EXPECT_EQ(after.find("job = web "), std::string::npos);
}

TEST(PlacementService, TelemetrySurvivesKillAndReplay) {
  const std::string journal =
      ::testing::TempDir() + "/pandia_telemetry_journal.wire";
  std::remove(journal.c_str());
  ServiceOptions options;
  options.journal_path = journal;

  std::optional<PlacementService> service(MustCreate(FourNodeRack(), options));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("web", "EP", 4))));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("db", "MD", 2))));
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("cache", "CG", 2))));
  (void)service->HandleLine("REBALANCE max-migrations=2");
  ASSERT_TRUE(IsOkBlock(service->HandleLine("DEPART name=db")));
  const std::string before = service->HandleLine("TELEMETRY");
  ASSERT_TRUE(IsOkBlock(before)) << before;
  service.reset();  // the "kill"

  std::optional<PlacementService> replayed(MustCreate(FourNodeRack(), options));
  const std::string after = replayed->HandleLine("TELEMETRY");
  // Replay reconstructs the full telemetry state — admit-time predictions,
  // sequence numbers, and co-event counters — byte for byte.
  EXPECT_EQ(after, before);
  std::remove(journal.c_str());
}

// `text`, a canonical workload description, rewritten the way a hand edit
// might leave it: a comment line and a blank line up front, CRLF line ends,
// no spaces or extra ones around '=', an unknown key, and t1 written with
// an exponent. It parses to the same description.
std::string HandEdited(const std::string& text) {
  const StatusOr<WorkloadDescription> description = WorkloadDescriptionFromText(text);
  EXPECT_TRUE(description.ok()) << description.status().ToString();
  std::string edited = "# hand-edited copy\r\n\r\n";
  bool tight = true;
  for (const std::string& line : StrSplit(text, '\n')) {
    const size_t eq = line.find(" = ");
    if (eq == std::string::npos) {
      edited += line.empty() ? "" : line + "\r\n";
      continue;
    }
    const std::string key = line.substr(0, eq);
    const std::string value =
        key == "t1" ? StrFormat("%.17e", description->t1) : line.substr(eq + 3);
    edited += tight ? key + "=" + value : key + "  =\t" + value + " ";
    edited += "\r\n";
    tight = !tight;
    if (key == "machine") {
      edited += "\r\n  # tuned by hand\r\noperator_note = not a model field\r\n";
    }
  }
  return edited;
}

// The records of the journal at `path`, read from a copy so the service
// that owns the file is not disturbed.
std::vector<wire::Request> JournalRecords(const std::string& path) {
  const std::string copy = path + ".copy";
  const StatusOr<std::string> text = ReadTextFile(path);
  EXPECT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_TRUE(WriteTextFile(copy, text.ok() ? *text : "").ok());
  StatusOr<Journal> journal = Journal::Open(copy, JournalOptions{});
  EXPECT_TRUE(journal.ok()) << journal.status().ToString();
  std::vector<wire::Request> records;
  if (journal.ok()) {
    for (const JournalRecord& record : journal->recovery().records) {
      records.push_back(record.request);
    }
  }
  std::remove(copy.c_str());
  return records;
}

uint64_t FileBytes(const std::string& path) {
  const StatusOr<std::string> text = ReadTextFile(path);
  return text.ok() ? text->size() : 0;
}

// ADMITTED journals the chosen machine type's description text byte for
// byte as the request carried it; a SNAPSHOT holds the canonical text as
// the job's own parameter, escaped once. Replay of either gives the same
// STATUS and TELEMETRY, and an ADMIT that fails appends nothing.
TEST(PlacementService, AdmitJournalsTheDescriptionTextAsReceived) {
  const std::string journal = ::testing::TempDir() + "/pandia_as_received.wire";
  std::remove(journal.c_str());
  ServiceOptions options;
  options.journal_path = journal;
  const std::string canonical = DescriptionText("EP");
  const std::string edited = HandEdited(canonical);
  ASSERT_NE(edited, canonical);
  const StatusOr<WorkloadDescription> reparsed = WorkloadDescriptionFromText(edited);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(WorkloadDescriptionToText(*reparsed), canonical);
  const std::string x4 = WorkloadDescriptionToText(
      eval::Pipeline("x4-2").Profile(workloads::ByName("EP")));

  const auto admit = [](const std::string& name, int threads,
                        const std::string& x3_text, const std::string& x4_text) {
    wire::Request request;
    request.verb = "ADMIT";
    request.params.emplace_back("name", name);
    request.params.emplace_back("threads", StrFormat("%d", threads));
    request.params.emplace_back("desc.x3-2", x3_text);
    request.params.emplace_back("desc.x4-2", x4_text);
    return wire::FormatRequest(request);
  };
  // One x3-2 machine, filled by the first job.
  std::vector<rack::RackMachine> machines{{"node0", X3().description()}};
  std::string status;
  std::string telemetry;
  {
    PlacementService service = MustCreate(machines, options);
    const std::string admitted = service.HandleLine(admit("web", 32, edited, x4));
    ASSERT_TRUE(IsOkBlock(admitted)) << admitted;
    const std::vector<wire::Request> records = JournalRecords(journal);
    ASSERT_EQ(records.size(), 1u);
    ASSERT_EQ(records[0].verb, "ADMITTED");
    ASSERT_NE(records[0].Find("desc"), nullptr);
    EXPECT_EQ(*records[0].Find("desc"), edited);

    const uint64_t bytes = FileBytes(journal);
    const std::string bad = service.HandleLine(admit("bad", 2, "junk", x4));
    EXPECT_TRUE(IsErrBlock(bad)) << bad;
    const std::string full = service.HandleLine(admit("late", 2, canonical, x4));
    EXPECT_TRUE(IsErrBlock(full)) << full;
    EXPECT_NE(full.find("failed-precondition"), std::string::npos) << full;
    EXPECT_EQ(FileBytes(journal), bytes);
    status = service.HandleLine("STATUS");
    telemetry = service.HandleLine("TELEMETRY");
  }
  {
    PlacementService restarted = MustCreate(machines, options);
    EXPECT_EQ(restarted.HandleLine("STATUS"), status);
    EXPECT_EQ(restarted.HandleLine("TELEMETRY"), telemetry);
    const std::string compacted = restarted.HandleLine("COMPACT");
    ASSERT_TRUE(IsOkBlock(compacted)) << compacted;
  }
  const std::vector<wire::Request> records = JournalRecords(journal);
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].verb, "SNAPSHOT");
  ASSERT_NE(records[0].Find("job.0.desc"), nullptr);
  EXPECT_EQ(*records[0].Find("job.0.desc"), canonical);
  const StatusOr<std::string> compacted_text = ReadTextFile(journal);
  ASSERT_TRUE(compacted_text.ok()) << compacted_text.status().ToString();
  EXPECT_NE(compacted_text->find(" job.0.desc=" + wire::EscapeValue(canonical) + "\n"),
            std::string::npos)
      << *compacted_text;
  PlacementService restarted = MustCreate(machines, options);
  EXPECT_EQ(restarted.HandleLine("STATUS"), status);
  EXPECT_EQ(restarted.HandleLine("TELEMETRY"), telemetry);
  std::remove(journal.c_str());
}

TEST(PlacementService, MetricsExpoFormat) {
  std::unique_ptr<FleetService> service = MustCreateFleet(FourNodeRack(), ServiceOptions{});
  ASSERT_TRUE(IsOkBlock(service->HandleLine(AdmitLine("web", "EP", 4))));

  const std::string expo = service->HandleLine("METRICS format=expo");
  ASSERT_TRUE(IsOkBlock(expo)) << expo;
  // Bare `name value` samples (the registry is process-global, so only
  // presence is asserted, not exact counts) and histogram rows with
  // cumulative le-buckets plus count and sum.
  EXPECT_NE(expo.find("serve.admit.requests "), std::string::npos);
  EXPECT_NE(expo.find("serve.admit.latency_us{le="), std::string::npos);
  EXPECT_NE(expo.find("serve.admit.latency_us{le=+inf}"), std::string::npos);
  EXPECT_NE(expo.find("serve.admit.latency_us.count "), std::string::npos);
  EXPECT_NE(expo.find("serve.admit.latency_us.sum "), std::string::npos);
  EXPECT_NE(expo.find("serve.jobs "), std::string::npos);
  // The default table rendering is unchanged, and bad formats are errors.
  const std::string table = service->HandleLine("METRICS");
  ASSERT_TRUE(IsOkBlock(table)) << table;
  EXPECT_NE(table.find("counter rack.admissions"), std::string::npos);
  EXPECT_TRUE(IsErrBlock(service->HandleLine("METRICS format=xml")));
  EXPECT_TRUE(IsErrBlock(service->HandleLine("METRICS verbose=1")));
}

// Pulls the "<VERB> name=<x>" journal-event sequence out of a RECORDER dump.
std::vector<std::string> RecorderJournalEvents(const std::string& dump) {
  std::vector<std::string> events;
  for (size_t at = dump.find(" journal "); at != std::string::npos;
       at = dump.find(" journal ", at + 1)) {
    const size_t start = at + std::strlen(" journal ");
    const size_t end = dump.find(" ok\n", start);
    if (end != std::string::npos) {
      events.push_back(dump.substr(start, end - start));
    }
  }
  return events;
}

TEST(PlacementService, RecorderDumpMatchesJournal) {
  const std::string journal =
      ::testing::TempDir() + "/pandia_recorder_journal.wire";
  std::remove(journal.c_str());
  ServiceOptions options;
  options.journal_path = journal;
  PlacementService service = MustCreate(FourNodeRack(), options);
  ASSERT_TRUE(IsOkBlock(service.HandleLine(AdmitLine("web", "EP", 4))));
  ASSERT_TRUE(IsOkBlock(service.HandleLine(AdmitLine("db", "MD", 2))));
  ASSERT_TRUE(IsOkBlock(service.HandleLine("DEPART name=web")));

  const std::string dump = service.HandleLine("RECORDER");
  ASSERT_TRUE(IsOkBlock(dump)) << dump;
  EXPECT_NE(dump.find("capacity = 256"), std::string::npos);
  EXPECT_NE(dump.find("recorded = "), std::string::npos);
  EXPECT_NE(dump.find("dropped = 0"), std::string::npos);
  EXPECT_TRUE(IsErrBlock(service.HandleLine("RECORDER clear=1")));

  // The flight recorder's journal events mirror the journal file: same
  // records, same order.
  const std::vector<std::string> recorded = RecorderJournalEvents(dump);
  ASSERT_EQ(recorded.size(), 3u) << dump;
  EXPECT_EQ(recorded[0], "ADMITTED name=web");
  EXPECT_EQ(recorded[1], "ADMITTED name=db");
  EXPECT_EQ(recorded[2], "DEPARTED name=web");
  const StatusOr<std::string> journal_text = ReadTextFile(journal);
  ASSERT_TRUE(journal_text.ok());
  size_t cursor = 0;
  for (const std::string& event : recorded) {
    const size_t at = journal_text->find(event, cursor);
    ASSERT_NE(at, std::string::npos)
        << "journal is missing '" << event << "' after offset " << cursor;
    cursor = at + event.size();
  }

  // A request-class event exists for every verb handled so far.
  EXPECT_NE(dump.find("request ADMIT name=web"), std::string::npos);
  EXPECT_NE(dump.find("request DEPART name=web"), std::string::npos);
  std::remove(journal.c_str());
}

// A NUL byte in a wire value reaches the journal inside the ADMITTED
// record. The job survives a restart, a COMPACT and a second restart, and
// then departs.
TEST(PlacementService, NulByteInJobNameSurvivesRestartAndCompaction) {
  const std::string journal = ::testing::TempDir() + "/pandia_nul_journal.wire";
  std::remove(journal.c_str());
  ServiceOptions options;
  options.journal_path = journal;
  const std::string name("a\0b", 3);
  std::string status;
  {
    PlacementService service = MustCreate(FourNodeRack(), options);
    const std::string admitted = service.HandleLine(AdmitLine(name, "EP", 2));
    ASSERT_TRUE(IsOkBlock(admitted)) << admitted;
    status = service.HandleLine("STATUS");
  }
  {
    StatusOr<PlacementService> restarted =
        PlacementService::Create(FourNodeRack(), options);
    ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
    EXPECT_EQ(restarted->HandleLine("STATUS"), status);
    const std::string compacted = restarted->HandleLine("COMPACT");
    ASSERT_TRUE(IsOkBlock(compacted)) << compacted;
  }
  StatusOr<PlacementService> restarted =
      PlacementService::Create(FourNodeRack(), options);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ(restarted->HandleLine("STATUS"), status);
  wire::Request depart;
  depart.verb = "DEPART";
  depart.params.emplace_back("name", name);
  const std::string departed = restarted->HandleLine(wire::FormatRequest(depart));
  EXPECT_TRUE(IsOkBlock(departed)) << departed;
  std::remove(journal.c_str());
}

// A journal compacted before each job's fields became the SNAPSHOT's own
// parameters (a nested, twice-escaped JOB record per job) is refused by
// name and line, never misread.
TEST(PlacementService, RefusesASnapshotOfNestedJobRecords) {
  const std::string journal = ::testing::TempDir() + "/pandia_nested_job_snapshot.wire";
  const StatusOr<std::string> text = ReadTextFile(
      PANDIA_TEST_DATA_DIR "/corrupt/journal/nested_job_snapshot.journal");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  ASSERT_TRUE(WriteTextFile(journal, *text).ok());
  ServiceOptions options;
  options.journal_path = journal;
  std::vector<rack::RackMachine> machines{{"n0", X3().description()}};
  const StatusOr<PlacementService> service =
      PlacementService::Create(std::move(machines), options);
  ASSERT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kDataLoss);
  EXPECT_EQ(service.status().message(),
            "journal line 2: SNAPSHOT record has 'job.0' where 'job.0.name' belongs");
  const StatusOr<std::string> after = ReadTextFile(journal);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, *text);
  std::remove(journal.c_str());
}

TEST(PlacementService, RejectsCorruptJournal) {
  const std::string journal = ::testing::TempDir() + "/pandia_corrupt_journal.wire";
  ASSERT_TRUE(WriteTextFile(journal, "not a journal\n").ok());
  ServiceOptions options;
  options.journal_path = journal;
  StatusOr<PlacementService> service =
      PlacementService::Create(FourNodeRack(), options);
  EXPECT_FALSE(service.ok());
  EXPECT_EQ(service.status().code(), StatusCode::kDataLoss);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace pandia
