// The placement service's crash model. Seeded ADMIT / DEPART / REBALANCE /
// COMPACT traffic drives a journaled service on two x3-2 machines, with
// injected append failures that take it into degraded mode and out again,
// and after every step the service must agree with a reference model that
// learns only from the replies.
//
// Every acknowledged append is fflush()ed (src/serve/journal.h), so the
// journal file's bytes at any instant are what a kill -9 then would leave.
// A crash is such bytes written to a second path and recovered from twice,
// and the two recoveries must agree. A kill takes the file as a request left
// it and must recover the live STATUS + TELEMETRY. A torn append takes the
// bytes from before a mutation plus a proper prefix of what it appended; it
// must recover the STATUS + TELEMETRY from before the mutation or, once a
// state record is intact, the model with only the intact records applied.
// Each COMPACT is crashed before its rename (the old bytes at the path, the
// new ones at <path>.tmp) and after it (the new bytes), and both must
// recover the acknowledged state. After about half the kills the run
// carries on from the recovered journal.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/serialize/serialize.h"
#include "src/serve/service.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace serve {
namespace {

constexpr int kMachines = 2;
constexpr int kOperations = 500;
constexpr uint64_t kCompactMinRecords = 128;
constexpr double kLiveRatio = 0.5;

const eval::Pipeline& X3() {
  static const eval::Pipeline* pipeline = new eval::Pipeline("x3-2");
  return *pipeline;
}

// The x3-2 description texts of the traffic's four workloads.
const std::vector<std::string>& Descriptions() {
  static const std::vector<std::string>* texts = [] {
    auto* profiled = new std::vector<std::string>;
    for (const char* name : {"EP", "MD", "CG", "BT"}) {
      profiled->push_back(
          WorkloadDescriptionToText(X3().Profile(workloads::ByName(name))));
    }
    return profiled;
  }();
  return *texts;
}

std::string TempPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  std::remove((path + ".tmp").c_str());
  return path;
}

StatusOr<PlacementService> Open(const std::string& journal) {
  std::vector<rack::RackMachine> machines;
  for (int i = 0; i < kMachines; ++i) {
    machines.push_back({StrFormat("node%d", i), X3().description()});
  }
  ServiceOptions options;
  options.journal_path = journal;
  // The crash model is kill -9, which fflush alone survives.
  options.journal.sync = SyncPolicy::kNone;
  options.compact_min_records = kCompactMinRecords;
  options.compact_live_ratio = kLiveRatio;
  return PlacementService::Create(std::move(machines), std::move(options));
}

// Parses one reply, which must be a complete block: "ok VERB" or
// "err <code> <message>", payload rows, then ".".
wire::Response MustParse(const std::string& block) {
  EXPECT_TRUE(block.ends_with("\n.\n")) << block;
  std::vector<std::string> lines = StrSplit(block, '\n');
  lines.pop_back();  // the empty string after the final newline
  StatusOr<wire::Response> response = wire::ParseResponse(lines);
  EXPECT_TRUE(response.ok()) << response.status().ToString() << "\n" << block;
  return response.ok() ? std::move(response).value() : wire::Response{};
}

std::string State(PlacementService& service) {
  return service.HandleLine("STATUS") + service.HandleLine("TELEMETRY");
}

// One state change a reply reports, named by the journal record that
// carries it: ADMITTED, DEPARTED or MOVED.
struct Effect {
  std::string record;
  std::string name;
  int machine = -1;
  std::string placement;  // per-core thread counts as CSV; empty on DEPARTED
};

// The reference model: where each resident job runs, and how many threads
// every core has free.
class Model {
 public:
  Model(int machines, const MachineTopology& topo)
      : free_(machines, std::vector<int>(topo.NumCores(), topo.threads_per_core)) {}

  int jobs() const { return static_cast<int>(jobs_.size()); }
  const std::string& NameAt(uint64_t i) const {
    return std::next(jobs_.begin(), static_cast<long>(i))->first;
  }

  void Apply(const Effect& effect) {
    const auto it = jobs_.find(effect.name);
    if (effect.record == "ADMITTED") {
      EXPECT_TRUE(it == jobs_.end()) << effect.name << " admitted twice";
    } else {
      ASSERT_TRUE(it != jobs_.end()) << effect.name << " is not resident";
      EXPECT_TRUE(effect.record == "MOVED" || effect.machine == it->second.machine)
          << effect.name << " departed from the wrong machine";
      Occupy(it->second, -1);
      jobs_.erase(it);
    }
    if (effect.record != "DEPARTED") {
      ASSERT_TRUE(effect.machine >= 0 && effect.machine < static_cast<int>(free_.size()))
          << effect.machine;
      Job& job = jobs_[effect.name];
      job = Job{effect.machine, effect.placement, 0};
      Occupy(job, +1);
    }
  }

  // STATUS as Reduce leaves it.
  std::string Expected() const {
    std::vector<int> jobs_on(free_.size(), 0);
    for (const auto& [name, job] : jobs_) {
      ++jobs_on[job.machine];
    }
    std::string out;
    for (size_t m = 0; m < free_.size(); ++m) {
      out += StrFormat("machine %zu free=%d jobs=%d\n", m,
                       std::accumulate(free_[m].begin(), free_[m].end(), 0),
                       jobs_on[m]);
    }
    for (const auto& [name, job] : jobs_) {
      out += StrFormat("job %s machine=%d threads=%d placement=%s\n", name.c_str(),
                       job.machine, job.threads, job.placement.c_str());
    }
    return out;
  }

 private:
  struct Job {
    int machine = -1;
    std::string placement;
    int threads = 0;
  };

  // Takes (+1) or gives back (-1) the job's threads on its machine; no core
  // may run more threads than it has.
  void Occupy(Job& job, int sign) {
    std::vector<int>& free = free_[job.machine];
    const std::vector<std::string> cores = StrSplit(job.placement, ',');
    ASSERT_EQ(cores.size(), free.size()) << job.placement;
    job.threads = 0;
    for (size_t c = 0; c < free.size(); ++c) {
      job.threads += std::stoi(cores[c]);
      free[c] -= sign * std::stoi(cores[c]);
      EXPECT_GE(free[c], 0) << "core " << c << " of machine " << job.machine
                            << " is oversubscribed";
    }
  }

  std::map<std::string, Job> jobs_;
  std::vector<std::vector<int>> free_;
};

// STATUS reduced to what the model knows: each machine's free threads and
// job count, and each job's machine, threads and placement.
std::string Reduce(const wire::Response& status) {
  std::string out;
  for (const std::string& row : status.payload) {
    const std::vector<std::string> tokens = StrSplit(row, ' ');
    if (tokens.size() < 3 || (tokens[0] != "machine" && tokens[0] != "job")) {
      continue;
    }
    out += tokens[0] + " " + tokens[2];
    for (size_t i = 3; i < tokens.size(); ++i) {
      const std::string key = tokens[i].substr(0, tokens[i].find('='));
      if (key == "free" || key == "jobs" || key == "machine" || key == "threads" ||
          key == "placement") {
        out += " " + tokens[i];
      }
    }
    out += '\n';
  }
  return out;
}

struct Op {
  std::string verb;
  std::string name;  // the job an ADMIT or DEPART names
  std::string line;
};

// One request of the traffic mix: 55% ADMIT of EP, MD, CG or BT at 1-3
// threads, 35% DEPART of a resident job (ADMIT when there is none), 6%
// REBALANCE and 4% COMPACT.
Op NextOp(Rng& rng, const Model& model, int& minted) {
  const uint64_t dice = rng.NextBounded(100);
  if (dice >= 96) {
    return {"COMPACT", "", "COMPACT"};
  }
  if (dice >= 90) {
    return {"REBALANCE", "",
            StrFormat("REBALANCE max-migrations=%d",
                      1 + static_cast<int>(rng.NextBounded(4)))};
  }
  if (dice >= 55 && model.jobs() > 0) {
    const std::string name = model.NameAt(rng.NextBounded(model.jobs()));
    return {"DEPART", name, "DEPART name=" + name};
  }
  wire::Request request;
  request.verb = "ADMIT";
  request.params.emplace_back("name", StrFormat("job%d", minted++));
  request.params.emplace_back(
      "threads", StrFormat("%d", 1 + static_cast<int>(rng.NextBounded(3))));
  request.params.emplace_back("desc.x3-2", Descriptions()[rng.NextBounded(4)]);
  return {"ADMIT", request.params.front().second, wire::FormatRequest(request)};
}

// The state changes an ok reply reports, in the order the service journals
// them: the ADMIT's or DEPART's own, then one per `moved =` row.
std::vector<Effect> EffectsOf(const Op& op, const wire::Response& response) {
  std::vector<Effect> effects;
  if (op.verb == "ADMIT" || op.verb == "DEPART") {
    effects.push_back({op.verb == "ADMIT" ? "ADMITTED" : "DEPARTED", op.name, -1, ""});
  }
  for (const std::string& row : response.payload) {
    const std::vector<std::string> tokens = StrSplit(row, ' ');
    if (tokens.size() < 3 || tokens[1] != "=") {
      continue;
    }
    if (tokens[0] == "machine") {
      effects.front().machine = std::stoi(tokens[2]);
    } else if (tokens[0] == "placement") {
      effects.front().placement = tokens[2];
    } else if (tokens[0] == "moved" && tokens.size() >= 5) {
      // moved = <name> machine=<m> placement=<csv> speedup=<s>
      effects.push_back({"MOVED", tokens[2],
                         std::stoi(tokens[3].substr(tokens[3].find('=') + 1)),
                         tokens[4].substr(tokens[4].find('=') + 1)});
    }
  }
  return effects;
}

// The verbs of the complete state records in framed journal bytes ("seq crc
// len payload" lines); NOTE probes carry no state and are left out.
std::vector<std::string> StateRecords(const std::string& bytes) {
  std::vector<std::string> verbs;
  size_t start = 0;
  for (size_t end = 0; (end = bytes.find('\n', start)) != std::string::npos;
       start = end + 1) {
    size_t verb = start;
    for (int field = 0; field < 3; ++field) {
      verb = bytes.find(' ', verb) + 1;
    }
    const std::string name = bytes.substr(verb, bytes.find_first_of(" \n", verb) - verb);
    if (name != "NOTE") {
      verbs.push_back(name);
    }
  }
  return verbs;
}

// Writes a crash's bytes to `path` (and `tmp`, when given, to <path>.tmp)
// and recovers a service from them twice. The recoveries must agree and
// must remove the tmp. Returns the second, with its STATUS + TELEMETRY in
// `state`.
std::optional<PlacementService> Recover(const std::string& path,
                                        const std::string& bytes,
                                        const std::string* tmp, std::string& state) {
  EXPECT_TRUE(WriteTextFile(path, bytes).ok());
  if (tmp != nullptr) {
    EXPECT_TRUE(WriteTextFile(path + ".tmp", *tmp).ok());
  }
  std::optional<PlacementService> recovered;
  for (int attempt = 1; attempt <= 2; ++attempt) {
    const std::string first = std::exchange(state, "");
    recovered.reset();
    StatusOr<PlacementService> opened = Open(path);
    if (!opened.ok()) {
      ADD_FAILURE() << "recovery " << attempt << ": " << opened.status().ToString();
      return std::nullopt;
    }
    recovered.emplace(std::move(*opened));
    EXPECT_FALSE(ReadTextFile(path + ".tmp").ok()) << "recovery left the tmp";
    state = State(*recovered);
    EXPECT_TRUE(attempt == 1 || state == first) << "two recoveries disagree";
  }
  return recovered;
}

class ServiceCrashModel : public ::testing::TestWithParam<int> {};

TEST_P(ServiceCrashModel, EveryCrashRecoversTheAcknowledgedState) {
  const int seed = GetParam();
  Rng rng(static_cast<uint64_t>(seed));
  std::string live_path = TempPath(StrFormat("crash_model_%d_a.wire", seed));
  std::string crash_path = TempPath(StrFormat("crash_model_%d_b.wire", seed));
  StatusOr<PlacementService> created = Open(live_path);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::optional<PlacementService> service(std::move(*created));
  Model model(kMachines, X3().description().topo);
  int minted = 0;
  std::string bytes = ReadTextFile(live_path).value();
  std::string state = State(*service);
  int kills = 0, torn = 0, compactions = 0, failed_appends = 0, entries = 0, exits = 0;

  for (int step = 0; step < kOperations && !HasFailure(); ++step) {
    SCOPED_TRACE(StrFormat("seed %d, step %d", seed, step));
    if (rng.NextBounded(25) == 0) {
      service->journal_for_test()->InjectAppendFailures(
          1 + static_cast<int>(rng.NextBounded(4)),
          static_cast<int>(rng.NextBounded(3)));
    }
    const Op op = NextOp(rng, model, minted);
    const Model model_before = model;
    const std::string before = std::move(bytes);
    const std::string state_before = state;
    const bool was_degraded = service->degraded();

    const wire::Response response = MustParse(service->HandleLine(op.line));
    const std::vector<Effect> effects =
        response.ok ? EffectsOf(op, response) : std::vector<Effect>{};
    for (const Effect& effect : effects) {
      model.Apply(effect);
    }
    const std::string status = service->HandleLine("STATUS");
    state = status + service->HandleLine("TELEMETRY");
    EXPECT_EQ(Reduce(MustParse(status)), model.Expected());

    // The records the request appended are the changes its reply reports,
    // unless a COMPACT or an automatic compaction rewrote the file.
    bytes = ReadTextFile(live_path).value();
    const bool rewritten =
        op.verb == "COMPACT" || bytes.compare(0, before.size(), before) != 0;
    const std::string tail = rewritten ? "" : bytes.substr(before.size());
    std::vector<std::string> reported;
    for (const Effect& effect : effects) {
      reported.push_back(effect.record);
    }
    EXPECT_TRUE(rewritten || StateRecords(tail) == reported) << tail;
    // A refused request leaves the journal as it was, but for the NOTE probe
    // a degraded service appends first.
    EXPECT_TRUE(response.ok || bytes == before ||
                (was_degraded && tail.find('\n') == tail.size() - 1 &&
                 tail.ends_with(" NOTE kind=probe\n")))
        << op.verb << " was refused but changed the journal";
    // The journal stays bounded: after a mutation, automatic compaction
    // leaves fewer than kCompactMinRecords records past the snapshot, or a
    // live ratio of at least kLiveRatio.
    const bool degraded = service->degraded();
    const uint64_t records = service->journal_for_test()->records_since_snapshot();
    EXPECT_TRUE(!response.ok || op.verb == "COMPACT" || degraded ||
                records < kCompactMinRecords ||
                model.jobs() >= kLiveRatio * static_cast<double>(records))
        << records << " records for " << model.jobs() << " jobs";
    entries += !was_degraded && degraded ? 1 : 0;
    exits += was_degraded && !degraded ? 1 : 0;
    failed_appends += response.code == StatusCode::kUnavailable ||
                      std::any_of(response.payload.begin(), response.payload.end(),
                                  [](const std::string& row) {
                                    return row.starts_with("warning = ");
                                  });

    // A torn append: the bytes from before the request plus a proper prefix
    // of what it appended.
    if (!tail.empty() && rng.NextBounded(12) == 0) {
      ++torn;
      const std::string cut = tail.substr(0, rng.NextBounded(tail.size()));
      const size_t intact = StateRecords(cut).size();
      std::string recovered_state;
      std::optional<PlacementService> recovered =
          Recover(crash_path, before + cut, nullptr, recovered_state);
      if (intact == 0) {
        EXPECT_EQ(recovered_state, state_before) << "torn " << op.verb;
      } else if (recovered.has_value()) {
        Model partial = model_before;
        for (size_t i = 0; i < intact; ++i) {
          partial.Apply(effects[i]);
        }
        EXPECT_EQ(Reduce(MustParse(recovered->HandleLine("STATUS"))),
                  partial.Expected())
            << "torn " << op.verb << " after " << intact << " records";
      }
    }
    // A COMPACT crashed on either side of its rename.
    if (op.verb == "COMPACT" && response.ok) {
      ++compactions;
      std::string recovered_state;
      (void)Recover(crash_path, before, &bytes, recovered_state);
      EXPECT_EQ(recovered_state, state) << "crash before the rename";
      (void)Recover(crash_path, bytes, nullptr, recovered_state);
      EXPECT_EQ(recovered_state, state) << "crash after the rename";
    }
    // A kill after the request.
    if (rng.NextBounded(20) == 0) {
      ++kills;
      std::string recovered_state;
      std::optional<PlacementService> recovered =
          Recover(crash_path, bytes, nullptr, recovered_state);
      EXPECT_EQ(recovered_state, state) << "kill after " << op.verb;
      if (recovered.has_value() && rng.NextBounded(2) == 0) {
        service = std::move(recovered);
        std::swap(live_path, crash_path);
      }
    }
  }
  ASSERT_FALSE(HasFailure());

  // Each seed ends folded into one snapshot, and a restart from that record
  // alone is byte-identical.
  service->journal_for_test()->InjectAppendFailures(0);
  const wire::Response compacted = MustParse(service->HandleLine("COMPACT"));
  ASSERT_TRUE(compacted.ok) << compacted.error;
  EXPECT_EQ(service->journal_for_test()->record_count(), 1u);
  state = State(*service);
  service.reset();
  StatusOr<PlacementService> restarted = Open(live_path);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ(State(*restarted), state);

  RecordProperty("coverage", StrFormat("kills=%d torn=%d compactions=%d "
                                       "failed-appends=%d degraded=%d/%d",
                                       kills, torn, compactions, failed_appends,
                                       entries, exits));
  EXPECT_GE(kills, 5);
  EXPECT_GE(torn, 5);
  EXPECT_GE(compactions, 5);
  EXPECT_GE(failed_appends, 1);
  EXPECT_GE(entries, 1);
  EXPECT_GE(exits, 1);
  std::remove(live_path.c_str());
  std::remove(crash_path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceCrashModel, ::testing::Range(1, 21),
                         ::testing::PrintToStringParamName());

}  // namespace
}  // namespace serve
}  // namespace pandia
