// Cross-subsystem concurrency regression: drives every lock the thread-
// safety annotations now guard (src/util/mutex.h) from many threads at
// once — the ThreadPool queue, the metrics registry, the sharded prediction
// cache, and the placement service behind concurrent socket clients. The
// assertions are deliberately coarse (counts, invariants, clean shutdown);
// the real check is running this binary under TSan, which the
// PANDIA_SANITIZE=thread CI job does:
//
//   cmake -B build-tsan -S . -DPANDIA_SANITIZE=thread
//   ctest --test-dir build-tsan -R Concurrency
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/predictor/prediction_cache.h"
#include "src/serialize/serialize.h"
#include "src/serve/service.h"
#include "src/serve/client.h"
#include "src/serve/fleet_service.h"
#include "src/serve/socket.h"
#include "src/util/mutex.h"
#include "src/util/parallel.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"
#include "tests/rack_search_script.h"

namespace pandia {
namespace {

TEST(ConcurrencyRegression, ThreadPoolSubmitAndParallelForFromManyThreads) {
  std::atomic<int> ran{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 64;

  {
    util::ThreadPool pool(4);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&pool, &ran] {
        for (int i = 0; i < kTasksEach; ++i) {
          pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        }
      });
    }
    for (std::thread& thread : submitters) thread.join();

    // ParallelFor on the shared pool while this pool drains its own queue.
    constexpr size_t kItems = 512;
    std::vector<int> slots(kItems, 0);
    util::ParallelFor(kItems, /*jobs=*/4,
                      [&slots](size_t i) { slots[i] = static_cast<int>(i); });
    for (size_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(slots[i], static_cast<int>(i));
    }
    // The pool destructor drains the queue before joining, so every
    // submitted task has run once the scope closes.
  }
  EXPECT_EQ(ran.load(), kSubmitters * kTasksEach);

  {
    util::ThreadPool drain(2);
    for (int i = 0; i < 100; ++i) {
      drain.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }
  EXPECT_EQ(ran.load(), kSubmitters * kTasksEach + 100);
}

// Constructs and locks a ranked mutex in a fresh frame. Called right after
// ParallelFor returns, its stack slots land where ParallelFor's completion
// latch just died; noinline keeps it a real call at that depth.
[[gnu::noinline]] void LockFreshRankedMutex() {
  util::Mutex mu{"concurrency_test.fresh", util::kLockRankParallelDone};
  util::MutexLock lock(mu);
}

// ParallelFor's completion latch lives on the caller's stack, and the last
// worker's Unlock is what lets the caller return and reuse that stack. So
// Unlock must read nothing of the mutex after releasing it; under TSan a
// late read races with the helper's writes into the reused frame.
TEST(ConcurrencyRegression, ParallelForLatchIsDeadAfterItsLastUnlock) {
  constexpr int kRounds = 2000;
  std::atomic<int> ran{0};
  for (int round = 0; round < kRounds; ++round) {
    util::ParallelFor(4, /*jobs=*/4, [&ran](size_t) {
      ran.fetch_add(1, std::memory_order_relaxed);
    });
    LockFreshRankedMutex();
  }
  EXPECT_EQ(ran.load(), 4 * kRounds);
}

TEST(ConcurrencyRegression, MetricsRegistryConcurrentRegisterAndSnapshot) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 200;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < kIterations; ++i) {
        // Same-name registration from every thread: first one wins, all get
        // the same instrument.
        registry.counter("concurrency.shared").Increment();
        registry.counter(StrFormat("concurrency.per_thread.%d", t)).Increment();
        registry.gauge("concurrency.gauge").Set(static_cast<double>(i));
        if (i % 16 == 0) {
          (void)registry.Snapshot();  // reader racing the writers
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const obs::MetricsSnapshot snapshot = registry.Snapshot();
  uint64_t shared = 0;
  int per_thread_counters = 0;
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "concurrency.shared") shared = counter.value;
    if (counter.name.rfind("concurrency.per_thread.", 0) == 0) {
      ++per_thread_counters;
      EXPECT_EQ(counter.value, static_cast<uint64_t>(kIterations));
    }
  }
  EXPECT_EQ(shared, static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(per_thread_counters, kThreads);
}

TEST(ConcurrencyRegression, FlightRecorderConcurrentWritersAndDumpers) {
  obs::FlightRecorder recorder(64);
  constexpr int kThreads = 8;
  constexpr int kEvents = 500;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kEvents; ++i) {
        recorder.Record("request",
                        StrFormat("thread=%d i=%d", t, i), i % 7 != 0);
        if (i % 32 == 0) {
          // Dumpers racing the writers: every dump must be internally
          // ordered even while slots are being overwritten.
          const std::vector<obs::FlightEvent> events = recorder.Dump();
          for (size_t k = 1; k < events.size(); ++k) {
            EXPECT_GT(events[k].seq, events[k - 1].seq);
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(recorder.recorded(), static_cast<uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(recorder.dropped(),
            static_cast<uint64_t>(kThreads) * kEvents - recorder.capacity());
  const std::vector<obs::FlightEvent> events = recorder.Dump();
  EXPECT_EQ(events.size(), recorder.capacity());
  for (size_t k = 1; k < events.size(); ++k) {
    EXPECT_EQ(events[k].seq, events[k - 1].seq + 1);
  }
}

TEST(ConcurrencyRegression, EventLogConcurrentSitesAndLevelChanges) {
  obs::EventLog log;
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  log.SetStream(sink);
  log.SetRateLimit(4, int64_t{1} << 60);
  constexpr int kThreads = 8;
  constexpr int kEvents = 200;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, t] {
      const std::string site = StrFormat("stress.site_%d", t % 3);
      for (int i = 0; i < kEvents; ++i) {
        log.Log(obs::LogLevel::kWarn, site, "stress", {{"i", i}});
        if (i % 64 == 0) {
          // Writers racing a level flip: the fast path is a relaxed load.
          log.SetMinLevel(i % 128 == 0 ? obs::LogLevel::kInfo
                                       : obs::LogLevel::kWarn);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // 3 sites x 4 events pass the limiter; the rest are suppressed.
  EXPECT_EQ(log.suppressed(),
            static_cast<uint64_t>(kThreads) * kEvents - 3 * 4);
  log.SetStream(nullptr);
  std::fclose(sink);
}

TEST(ConcurrencyRegression, PredictionCacheConcurrentInsertLookupInvalidate) {
  PredictionCache cache(/*max_entries=*/256);
  constexpr int kThreads = 8;
  constexpr int kKeys = 64;
  constexpr int kRounds = 50;
  std::atomic<uint64_t> hits{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &hits, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int k = 0; k < kKeys; ++k) {
          const PredictionCacheKey key{static_cast<uint64_t>(k),
                                       static_cast<uint64_t>(k * 31 + 7)};
          if (std::optional<Prediction> found = cache.Lookup(key)) {
            hits.fetch_add(1, std::memory_order_relaxed);
            // Everyone inserts the same value per key, so a hit is exact.
            EXPECT_DOUBLE_EQ(found->speedup, static_cast<double>(k));
          } else {
            Prediction prediction;
            prediction.speedup = static_cast<double>(k);
            cache.Insert(key, prediction);
          }
        }
        // One thread periodically invalidates everything mid-flight.
        if (t == 0 && round % 10 == 9) cache.Clear();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_GT(hits.load(), 0u);
  // Every insert and every removal, racing Clear() included, is accounted.
  EXPECT_LE(cache.size(), static_cast<size_t>(kKeys));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ConcurrencyRegression, ServiceSurvivesConcurrentSocketClients) {
  const eval::Pipeline pipeline("x3-2");
  std::vector<rack::RackMachine> machines;
  for (int i = 0; i < 4; ++i) {
    machines.push_back({StrFormat("node%d", i), pipeline.description()});
  }
  serve::FleetOptions options;
  options.shards = 1;
  StatusOr<std::unique_ptr<serve::FleetService>> service =
      serve::FleetService::Create(std::move(machines), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  const std::string path =
      ::testing::TempDir() + "/pandia_concurrency_test.sock";
  StatusOr<serve::SocketServer> server = serve::SocketServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::thread loop([&service, &server] {
    const Status served =
        serve::RunEventLoop(**service, /*stdin_fd=*/-1, stdout, &*server);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  const std::string desc =
      WorkloadDescriptionToText(pipeline.Profile(workloads::ByName("EP")));
  constexpr int kClients = 6;
  constexpr int kRequestsEach = 8;
  std::atomic<int> ok_blocks{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&path, &desc, &ok_blocks, c] {
      for (int i = 0; i < kRequestsEach; ++i) {
        std::string request;
        if (i == 0) {
          wire::Request admit;
          admit.verb = "ADMIT";
          admit.params.emplace_back("name", StrFormat("job-%d", c));
          admit.params.emplace_back("threads", "2");
          admit.params.emplace_back("desc.x3-2", desc);
          request = wire::FormatRequest(admit) + "\n";
        } else if (i + 1 == kRequestsEach) {
          request = StrFormat("DEPART name=job-%d\n", c);
        } else {
          request = (i % 2 == 0) ? "STATUS\n" : "METRICS\n";
        }
        const StatusOr<std::string> reply = serve::SocketExchange(path, request);
        ASSERT_TRUE(reply.ok()) << reply.status().ToString();
        if (reply->rfind("ok ", 0) == 0) {
          ok_blocks.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();

  // Every request got an ok reply: the admits found capacity, the departs
  // found their jobs, and STATUS/METRICS never raced the mutations.
  EXPECT_EQ(ok_blocks.load(), kClients * kRequestsEach);

  const StatusOr<std::string> status = serve::SocketExchange(path, "STATUS\n");
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_NE(status->find("jobs = 0"), std::string::npos) << *status;

  const StatusOr<std::string> bye = serve::SocketExchange(path, "SHUTDOWN\n");
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  loop.join();
  EXPECT_TRUE((*service)->shutdown_requested());
}

// Admission probes fan out over ParallelFor workers, one machine each, and
// each worker runs the bound-and-prune candidate search against shared
// rack state, the prediction cache and the probe counters. The fan-out must
// not change a byte: the rack search script answers identically with four
// probe workers and with one.
TEST(ConcurrencyRegression, PrunedAdmitProbesMatchSerial) {
  const auto run = [](int jobs) {
    serve::ServiceOptions options;
    options.prediction.common.jobs = jobs;
    StatusOr<serve::PlacementService> service = serve::PlacementService::Create(
        serve::rack_search_script::Machines(), options);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    return service.ok() ? serve::rack_search_script::RunRackSearchScript(*service)
                        : std::string();
  };
  const std::string parallel = run(4);
  EXPECT_EQ(parallel, run(1));
  EXPECT_NE(parallel.find("\nmoved = "), std::string::npos);
}

// Concurrent pipelined clients against the multi-client event loop: each
// serve::Client pipelines its whole batch (CallMany) so the loop must
// interleave partially-read requests and partially-written responses across
// connections without cross-talk. Run against a 2-shard fleet so the fleet
// mutex is also under contention. The loop also watches `stdin_fd`, so each
// case hands it one of the stdin kinds a daemon is started with.
void PipelinedFleetClients(int stdin_fd, const char* tag) {
  const eval::Pipeline pipeline("x3-2");
  std::vector<rack::RackMachine> machines;
  for (int i = 0; i < 4; ++i) {
    machines.push_back({StrFormat("node%d", i), pipeline.description()});
  }
  serve::FleetOptions options;
  options.shards = 2;
  StatusOr<std::unique_ptr<serve::FleetService>> fleet =
      serve::FleetService::Create(std::move(machines), options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  const std::string path = StrFormat("%s/pandia_pipelined_%s.sock",
                                     ::testing::TempDir().c_str(), tag);
  std::remove(path.c_str());
  StatusOr<serve::SocketServer> server = serve::SocketServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  std::thread loop([&fleet, &server, stdin_fd] {
    const Status served =
        serve::RunEventLoop(**fleet, stdin_fd, stdout, &*server);
    EXPECT_TRUE(served.ok()) << served.ToString();
  });

  const std::string desc =
      WorkloadDescriptionToText(pipeline.Profile(workloads::ByName("EP")));
  constexpr int kClients = 6;
  constexpr int kRounds = 4;
  std::atomic<int> ok_responses{0};

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&path, &desc, &ok_responses, c] {
      StatusOr<serve::Client> client = serve::Client::Connect(path);
      ASSERT_TRUE(client.ok()) << client.status().ToString();
      EXPECT_TRUE(client->has_capability("fleet"));
      for (int round = 0; round < kRounds; ++round) {
        wire::Request admit;
        admit.verb = "ADMIT";
        admit.params.emplace_back("name", StrFormat("job-%d-%d", c, round));
        admit.params.emplace_back("threads", "2");
        admit.params.emplace_back("desc.x3-2", desc);
        const std::vector<std::string> batch = {
            wire::FormatRequest(admit), "STATUS", "TELEMETRY",
            StrFormat("DEPART name=job-%d-%d", c, round)};
        StatusOr<std::vector<wire::Response>> responses =
            client->CallMany(batch);
        ASSERT_TRUE(responses.ok()) << responses.status().ToString();
        ASSERT_EQ(responses->size(), batch.size());
        // Responses must come back in request order, on the right
        // connection: the DEPART can only succeed if it was this client's
        // ADMIT that preceded it.
        EXPECT_EQ((*responses)[0].verb, "ADMIT");
        EXPECT_EQ((*responses)[1].verb, "STATUS");
        EXPECT_EQ((*responses)[2].verb, "TELEMETRY");
        EXPECT_EQ((*responses)[3].verb, "DEPART");
        for (const wire::Response& response : *responses) {
          if (response.ok) {
            ok_responses.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  EXPECT_EQ(ok_responses.load(), kClients * kRounds * 4);

  StatusOr<serve::Client> closer = serve::Client::Connect(path);
  ASSERT_TRUE(closer.ok()) << closer.status().ToString();
  const StatusOr<wire::Response> bye = closer->Call("SHUTDOWN");
  ASSERT_TRUE(bye.ok()) << bye.status().ToString();
  EXPECT_TRUE(bye->ok);
  loop.join();
}

// The names date from when the loop had an epoll backend with a poll()
// fallback; both cases now run the one poll() loop. Here stdin is a pipe
// that stays open and silent, as when perfbench feeds the daemon through
// one: the loop keeps watching it while it serves the socket.
TEST(ConcurrencyRegression, PipelinedFleetClientsDefaultPoller) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  PipelinedFleetClients(/*stdin_fd=*/fds[0], "pipe");
  ::close(fds[1]);
  ::close(fds[0]);
}

// Stdin is an open /dev/null, as when CI's serving benchmark starts the
// daemon: the loop watches it, sees EOF at once, detaches it and keeps
// serving the socket.
TEST(ConcurrencyRegression, PipelinedFleetClientsPollFallback) {
  const int dev_null = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(dev_null, 0);
  PipelinedFleetClients(dev_null, "devnull");
  ::close(dev_null);
}

}  // namespace
}  // namespace pandia
