#include "src/serve/service.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <utility>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/serialize/serialize.h"
#include "src/topology/resource_index.h"
#include "src/util/strings.h"

namespace pandia {
namespace serve {
namespace {

// Automatic compaction's live-ratio trigger (see
// ServiceOptions::compact_min_records).
constexpr double kCompactLiveRatio = 0.5;
// REBALANCE's migration budget when the request sets none.
constexpr int kDefaultMaxMigrations = 4;

obs::Gauge& DegradedGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().gauge("serve.degraded");
  return gauge;
}
obs::Gauge& LiveRatioGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().gauge("serve.journal.live_ratio");
  return gauge;
}

StatusOr<int> ParseInt(const std::string& value, const char* what) {
  char* end = nullptr;
  const long parsed = std::strtol(value.c_str(), &end, 10);
  if (value.empty() || *end != '\0' || parsed < -1000000000L || parsed > 1000000000L) {
    return Status::InvalidArgument(
        StrFormat("parameter '%s' must be an integer, got '%s'", what,
                  value.c_str()));
  }
  return static_cast<int>(parsed);
}

StatusOr<uint64_t> ParseUint64(const std::string& value, const char* what) {
  if (value.empty() || value.size() > 19) {
    return Status::InvalidArgument(StrFormat(
        "parameter '%s' must be a non-negative integer, got '%s'", what,
        value.c_str()));
  }
  uint64_t parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(StrFormat(
          "parameter '%s' must be a non-negative integer, got '%s'", what,
          value.c_str()));
    }
    parsed = parsed * 10 + static_cast<uint64_t>(c - '0');
  }
  return parsed;
}

StatusOr<double> ParseDouble(const std::string& value, const char* what) {
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || *end != '\0') {
    return Status::InvalidArgument(StrFormat(
        "parameter '%s' must be a number, got '%s'", what, value.c_str()));
  }
  return parsed;
}

bool IsMutatingVerb(const std::string& verb) {
  return verb == "ADMIT" || verb == "DEPART" || verb == "REBALANCE" ||
         verb == "COMPACT";
}

// The resource the job is predicted to be limited by: the bottleneck of its
// most-slowed thread ("none" for an uncontended or thread-less prediction).
std::string BottleneckName(const MachineTopology& topo,
                           const Prediction& prediction) {
  int bottleneck = -1;
  double worst = -1.0;
  for (const ThreadPrediction& thread : prediction.threads) {
    if (thread.overall_slowdown > worst) {
      worst = thread.overall_slowdown;
      bottleneck = thread.bottleneck;
    }
  }
  if (bottleneck < 0) {
    return "none";
  }
  return ResourceIndex(topo).Name(bottleneck);
}

}  // namespace

StatusOr<PlacementService> PlacementService::Create(
    std::vector<rack::RackMachine> machines, ServiceOptions options) {
  if (machines.empty()) {
    return Status::InvalidArgument("a placement service needs at least one machine");
  }
  PlacementService service(std::move(machines), std::move(options));
  const std::string& path = service.options_.journal_path;
  if (!path.empty()) {
    StatusOr<Journal> journal = Journal::Open(path, service.options_.journal);
    if (!journal.ok()) {
      return journal.status();
    }
    service.journal_ = std::make_unique<Journal>(std::move(*journal));
    const JournalRecovery& recovered = service.journal_->recovery();
    size_t start = 0;
    if (!recovered.records.empty() &&
        recovered.records.front().request.verb == "SNAPSHOT") {
      PANDIA_RETURN_IF_ERROR(service.RestoreSnapshot(
          recovered.records.front().request, recovered.records.front().line));
      start = 1;
    }
    for (size_t i = start; i < recovered.records.size(); ++i) {
      const JournalRecord& record = recovered.records[i];
      if (record.request.verb == "SNAPSHOT") {
        return Status::DataLoss(StrFormat(
            "journal line %zu: SNAPSHOT is only valid as the first record",
            record.line));
      }
      if (record.request.verb == "NOTE") {
        continue;  // degraded-mode probes carry no state
      }
      PANDIA_RETURN_IF_ERROR(service.ApplyRecord(record.request, record.line));
    }
    if (recovered.truncated_torn_tail) {
      obs::EventLog::Global().Log(
          obs::LogLevel::kWarn, "serve.journal",
          "truncated torn journal tail (unacknowledged record from a crash "
          "mid-append)",
          {{"path", path},
           {"bytes", StrFormat("%llu", static_cast<unsigned long long>(
                                           recovered.truncated_bytes))}});
    }
  }
  return service;
}

PlacementService::PlacementService(std::vector<rack::RackMachine> machines,
                                   ServiceOptions options)
    : options_(std::move(options)),
      rack_(std::move(machines), options_.prediction),
      recorder_(std::make_unique<obs::FlightRecorder>(256)) {}

std::string PlacementService::HandleLine(const std::string& line) {
  StatusOr<wire::Request> request = wire::ParseRequest(line);
  if (!request.ok()) {
    recorder_->Record("request", "PARSE", /*ok=*/false);
    return wire::FormatResponse(wire::Response::Failure(request.status()));
  }
  return wire::FormatResponse(Handle(*request));
}

wire::Response PlacementService::Handle(const wire::Request& request) {
  wire::Response response = Dispatch(request);
  if (journal_ != nullptr) {
    LiveRatioGauge().Set(LiveRatio());
  }
  RecordRequest(request, response);
  return response;
}

void PlacementService::RecordRequest(const wire::Request& request,
                                     const wire::Response& response) {
  std::string detail = request.verb;
  if (const std::string* name = request.Find("name")) {
    detail += " name=" + wire::EscapeValue(*name);
  }
  if (!response.ok) {
    detail += " " + wire::WireCodeName(response.code);
  }
  recorder_->Record("request", detail, response.ok);
}

wire::Response PlacementService::Dispatch(const wire::Request& request) {
  if (IsMutatingVerb(request.verb) && journal_ != nullptr && degraded_ &&
      !ProbeJournal()) {
    return wire::Response::Failure(Status::Unavailable(StrFormat(
        "journal '%s' is unavailable; serving read-only (STATUS, METRICS, "
        "TELEMETRY, RECORDER)",
        options_.journal_path.c_str())));
  }
  wire::Response response = DispatchVerb(request);
  // Compaction opportunity: a mutation just landed and most of the journal
  // suffix no longer describes a resident job. COMPACT itself and degraded
  // mode are excluded (the former just compacted, the latter cannot write).
  if (response.ok && IsMutatingVerb(request.verb) && request.verb != "COMPACT" &&
      journal_ != nullptr && !degraded_ &&
      journal_->records_since_snapshot() >= options_.compact_min_records &&
      LiveRatio() < kCompactLiveRatio) {
    // The request already succeeded and its record is durable in the old
    // journal; a failed compaction is logged (inside CompactJournal) but
    // must not fail the request.
    (void)CompactJournal();
  }
  return response;
}

wire::Response PlacementService::DispatchVerb(const wire::Request& request) {
  if (request.verb == "ADMIT") {
    return HandleAdmit(request);
  }
  if (request.verb == "DEPART") {
    return HandleDepart(request);
  }
  if (request.verb == "REBALANCE") {
    return HandleRebalance(request);
  }
  if (request.verb == "COMPACT") {
    return HandleCompact(request);
  }
  if (request.verb == "STATUS") {
    return HandleStatus();
  }
  if (request.verb == "TELEMETRY") {
    if (!request.params.empty()) {
      return wire::Response::Failure(Status::InvalidArgument(
          StrFormat("TELEMETRY does not take parameter '%s'",
                    request.params.front().first.c_str())));
    }
    return HandleTelemetry();
  }
  if (request.verb == "RECORDER") {
    return HandleRecorder(request);
  }
  if (request.verb == "SHUTDOWN") {
    if (journal_ != nullptr && !degraded_) {
      // Best-effort durability floor for a clean shutdown: whatever the
      // sync policy deferred goes to disk now.
      (void)journal_->Sync();
    }
    return wire::Response::Success("SHUTDOWN");
  }
  return wire::Response::Failure(Status::InvalidArgument(
      StrFormat("unknown verb '%s' (want HELLO, ADMIT, DEPART, REBALANCE, "
                "COMPACT, STATUS, METRICS, TELEMETRY, RECORDER, or SHUTDOWN)",
                request.verb.c_str())));
}

wire::Response PlacementService::HandleAdmit(const wire::Request& request) {
  rack::JobRequest job;
  rack::Policy policy = options_.default_policy;
  for (const auto& [key, value] : request.params) {
    if (key == "name") {
      job.name = value;
    } else if (key == "threads") {
      StatusOr<int> threads = ParseInt(value, "threads");
      if (!threads.ok()) {
        return wire::Response::Failure(threads.status());
      }
      job.requested_threads = *threads;
    } else if (key == "policy") {
      StatusOr<rack::Policy> parsed = rack::PolicyFromName(value);
      if (!parsed.ok()) {
        return wire::Response::Failure(parsed.status());
      }
      policy = *parsed;
    } else if (key.rfind("desc.", 0) == 0) {
      const std::string type = key.substr(5);
      if (type.empty()) {
        return wire::Response::Failure(
            Status::InvalidArgument("description key 'desc.' names no machine type"));
      }
      StatusOr<WorkloadDescription> description = WorkloadDescriptionFromText(value);
      if (!description.ok()) {
        return wire::Response::Failure(Status::InvalidArgument(
            StrFormat("desc.%s: %s", type.c_str(),
                      description.status().message().c_str())));
      }
      job.descriptions.emplace(type, *std::move(description));
    } else {
      return wire::Response::Failure(Status::InvalidArgument(
          StrFormat("ADMIT does not take parameter '%s'", key.c_str())));
    }
  }
  if (job.descriptions.empty()) {
    return wire::Response::Failure(Status::InvalidArgument(
        "ADMIT needs at least one desc.<machine-type> parameter"));
  }

  // Decide, journal, apply: the rack changes only once its record is
  // durable, so a failed append leaves nothing to undo.
  StatusOr<rack::Assignment> chosen = rack_.Choose(job, policy);
  if (!chosen.ok()) {
    return wire::Response::Failure(chosen.status());
  }
  const int machine_index = chosen->machine_index;
  const rack::RackMachine& machine = rack_.machines()[machine_index];
  const std::string& type = machine.description.topo.name;
  const WorkloadDescription& description = job.descriptions.at(type);
  const std::string placement = wire::PlacementToCsv(*chosen->placement);

  // The record carries the chosen type's description text as received:
  // that text parsed into the very description Choose scored, so replay
  // parses it back to the same one. (Find returns the first desc.<type>,
  // the one job.descriptions kept.)
  wire::Request record;
  record.verb = "ADMITTED";
  record.params.emplace_back("name", job.name);
  record.params.emplace_back("machine", StrFormat("%d", machine_index));
  record.params.emplace_back("placement", placement);
  record.params.emplace_back("desc", *request.Find("desc." + type));
  if (Status journaled = AppendJournal(record); !journaled.ok()) {
    return wire::Response::Failure(journaled);
  }
  if (Status placed = rack_.AdmitAt(job.name, machine_index, description,
                                    *chosen->placement, chosen->predicted_speedup);
      !placed.ok()) {
    return wire::Response::Failure(placed);
  }

  wire::Response response = wire::Response::Success("ADMIT");
  response.payload.push_back(StrFormat("machine = %d", machine_index));
  response.payload.push_back(
      StrFormat("machine-name = %s", wire::EscapeValue(machine.name).c_str()));
  response.payload.push_back(StrFormat("placement = %s", placement.c_str()));
  response.payload.push_back(
      StrFormat("threads = %d", chosen->placement->TotalThreads()));
  response.payload.push_back(
      StrFormat("speedup = %.6f", chosen->predicted_speedup));
  return response;
}

Status PlacementService::MoveJob(const std::string& name, int machine_index,
                                 const rack::Rack::Candidate& candidate,
                                 std::vector<std::string>& payload) {
  const std::string placement = wire::PlacementToCsv(candidate.placement);
  wire::Request record;
  record.verb = "MOVED";
  record.params.emplace_back("name", name);
  record.params.emplace_back("machine", StrFormat("%d", machine_index));
  record.params.emplace_back("placement", placement);
  PANDIA_RETURN_IF_ERROR(AppendJournal(record));
  PANDIA_RETURN_IF_ERROR(rack_.Move(name, machine_index, candidate.placement));
  payload.push_back(StrFormat("moved = %s machine=%d placement=%s speedup=%.6f",
                              wire::EscapeValue(name).c_str(), machine_index,
                              placement.c_str(), candidate.job_speedup));
  return Status::Ok();
}

Status PlacementService::ReplaceDegraded(int machine_index,
                                         std::vector<std::string>& payload) {
  // Snapshot names first: moves re-order the resident vector.
  std::vector<std::string> names;
  for (const rack::RackJob& job : rack_.JobsOn(machine_index)) {
    names.push_back(job.name);
  }
  const std::string type =
      rack_.machines()[machine_index].description.topo.name;
  for (const std::string& name : names) {
    const auto& residents = rack_.JobsOn(machine_index);
    const auto it = std::find_if(residents.begin(), residents.end(),
                                 [&](const rack::RackJob& r) { return r.name == name; });
    if (it == residents.end()) {
      continue;
    }
    const size_t index = static_cast<size_t>(it - residents.begin());
    const std::vector<Prediction> current = rack_.PredictMachine(machine_index);
    const double current_speedup = current[index].speedup;

    rack::JobRequest probe;
    probe.name = name;
    probe.descriptions.emplace(type, it->description);
    probe.requested_threads = it->placement.TotalThreads();
    // Only a move that clears the margin is taken, so the search solves
    // only candidates whose speedup ceiling exceeds it.
    const double must_beat = current_speedup * (1.0 + options_.replace_margin);
    const std::optional<rack::Rack::Candidate> candidate = rack_.BestCandidateOn(
        machine_index, probe, rack::Policy::kBestSpeedup, &name, must_beat);
    if (!candidate.has_value() || candidate->job_speedup <= must_beat) {
      continue;
    }
    PANDIA_RETURN_IF_ERROR(MoveJob(name, machine_index, *candidate, payload));
  }
  return Status::Ok();
}

wire::Response PlacementService::HandleDepart(const wire::Request& request) {
  const std::string* name = request.Find("name");
  if (name == nullptr) {
    return wire::Response::Failure(
        Status::InvalidArgument("DEPART needs a name=<job> parameter"));
  }
  for (const auto& [key, value] : request.params) {
    if (key != "name") {
      return wire::Response::Failure(Status::InvalidArgument(
          StrFormat("DEPART does not take parameter '%s'", key.c_str())));
    }
  }
  // Only a resident job departs; the check answers exactly as Depart would.
  if (StatusOr<int> resident = rack_.MachineOf(*name); !resident.ok()) {
    return wire::Response::Failure(resident.status());
  }
  wire::Request record;
  record.verb = "DEPARTED";
  record.params.emplace_back("name", *name);
  if (Status journaled = AppendJournal(record); !journaled.ok()) {
    return wire::Response::Failure(journaled);
  }
  StatusOr<int> departed = rack_.Depart(*name);
  if (!departed.ok()) {
    return wire::Response::Failure(departed.status());
  }

  wire::Response response = wire::Response::Success("DEPART");
  response.payload.push_back(StrFormat("machine = %d", *departed));
  // Freed threads are an opportunity: re-place neighbours the departed job
  // was degrading. The departure itself is already durable and applied, so
  // a failed re-placement (a MOVED append that failed, so the move never
  // happened) must not convert this response into an error — the client
  // would be told a committed departure failed, and a retry would get 'not
  // resident'. Report it as a warning row instead.
  if (Status replaced = ReplaceDegraded(*departed, response.payload);
      !replaced.ok()) {
    response.payload.push_back(StrFormat("warning = re-placement skipped: %s",
                                         replaced.message().c_str()));
  }
  return response;
}

wire::Response PlacementService::HandleRebalance(const wire::Request& request) {
  int max_migrations = kDefaultMaxMigrations;
  for (const auto& [key, value] : request.params) {
    if (key == "max-migrations") {
      StatusOr<int> parsed = ParseInt(value, "max-migrations");
      if (!parsed.ok()) {
        return wire::Response::Failure(parsed.status());
      }
      if (*parsed < 0) {
        return wire::Response::Failure(Status::InvalidArgument(
            "parameter 'max-migrations' must be non-negative"));
      }
      max_migrations = *parsed;
    } else {
      return wire::Response::Failure(Status::InvalidArgument(
          StrFormat("REBALANCE does not take parameter '%s'", key.c_str())));
    }
  }

  wire::Response response = wire::Response::Success("REBALANCE");
  int migrations = 0;
  // Each round re-places the currently worst-predicted job if some machine
  // of its type offers a margin-beating improvement. Stops at the migration
  // budget or at a fixed point (no candidate improves).
  while (migrations < max_migrations) {
    struct Entry {
      std::string name;
      int machine = -1;
      double speedup = 0.0;
    };
    std::vector<Entry> jobs;
    for (size_t m = 0; m < rack_.machines().size(); ++m) {
      const std::vector<Prediction> predictions =
          rack_.PredictMachine(static_cast<int>(m));
      const auto& residents = rack_.JobsOn(static_cast<int>(m));
      for (size_t i = 0; i < residents.size(); ++i) {
        jobs.push_back(
            Entry{residents[i].name, static_cast<int>(m), predictions[i].speedup});
      }
    }
    // Worst predicted speedup first; names break ties deterministically.
    std::sort(jobs.begin(), jobs.end(), [](const Entry& a, const Entry& b) {
      return a.speedup != b.speedup ? a.speedup < b.speedup : a.name < b.name;
    });

    bool moved = false;
    for (const Entry& entry : jobs) {
      const auto& residents = rack_.JobsOn(entry.machine);
      const auto it =
          std::find_if(residents.begin(), residents.end(),
                       [&](const rack::RackJob& r) { return r.name == entry.name; });
      const std::string type =
          rack_.machines()[entry.machine].description.topo.name;
      rack::JobRequest probe;
      probe.name = entry.name;
      probe.descriptions.emplace(type, it->description);
      probe.requested_threads = it->placement.TotalThreads();

      // Candidate machines: same type only (the stored description is
      // machine-specific, §4), own machine included via self-exclusion. A
      // later machine wins only with a strictly greater speedup, so each
      // search has to beat the margin and every earlier machine's best.
      std::optional<rack::Rack::Candidate> best;
      int best_machine = -1;
      double must_beat = entry.speedup * (1.0 + options_.replace_margin);
      for (size_t m = 0; m < rack_.machines().size(); ++m) {
        if (rack_.machines()[m].description.topo.name != type) {
          continue;
        }
        const std::string* exclude =
            static_cast<int>(m) == entry.machine ? &entry.name : nullptr;
        std::optional<rack::Rack::Candidate> candidate =
            rack_.BestCandidateOn(static_cast<int>(m), probe,
                                  rack::Policy::kBestSpeedup, exclude, must_beat);
        if (candidate.has_value() && candidate->job_speedup > must_beat) {
          must_beat = candidate->job_speedup;
          best = std::move(candidate);
          best_machine = static_cast<int>(m);
        }
      }
      if (!best.has_value()) {
        continue;
      }
      if (Status status = MoveJob(entry.name, best_machine, *best, response.payload);
          !status.ok()) {
        // The migrations before this one are durable and applied, so only a
        // REBALANCE that moved nothing fails. Otherwise the reply stays ok
        // and names the stop, as DEPART does for a skipped re-placement.
        if (migrations == 0) {
          return wire::Response::Failure(status);
        }
        response.payload.push_back(StrFormat("warning = rebalance stopped: %s",
                                             status.message().c_str()));
        break;  // `moved` stays false, which ends the rounds
      }
      ++migrations;
      moved = true;
      break;  // re-rank after every migration
    }
    if (!moved) {
      break;
    }
  }
  response.payload.insert(response.payload.begin(),
                          StrFormat("migrations = %d", migrations));
  return response;
}

wire::Response PlacementService::HandleStatus() const {
  wire::Response response = wire::Response::Success("STATUS");
  response.payload.push_back(StrFormat("version = %d", wire::kProtocolVersion));
  response.payload.push_back(
      StrFormat("policy = %s", rack::PolicyName(options_.default_policy).c_str()));
  response.payload.push_back(
      StrFormat("machines = %zu", rack_.machines().size()));
  response.payload.push_back(StrFormat("jobs = %d", rack_.JobCount()));

  struct JobRow {
    std::string name;
    std::string line;
  };
  std::vector<JobRow> rows;
  for (size_t m = 0; m < rack_.machines().size(); ++m) {
    const rack::RackMachine& machine = rack_.machines()[m];
    const auto& residents = rack_.JobsOn(static_cast<int>(m));
    response.payload.push_back(StrFormat(
        "machine = %zu name=%s type=%s free=%d jobs=%zu", m,
        wire::EscapeValue(machine.name).c_str(),
        wire::EscapeValue(machine.description.topo.name).c_str(),
        rack_.FreeThreadCount(static_cast<int>(m)), residents.size()));
    const std::vector<Prediction> predictions =
        rack_.PredictMachine(static_cast<int>(m));
    for (size_t i = 0; i < residents.size(); ++i) {
      const rack::RackJob& job = residents[i];
      const Prediction& prediction = predictions[i];
      rows.push_back(JobRow{
          job.name,
          StrFormat("job = %s machine=%zu threads=%d speedup=%.6f slowdown=%.6f "
                    "bottleneck=%s placement=%s",
                    wire::EscapeValue(job.name).c_str(), m,
                    job.placement.TotalThreads(), prediction.speedup,
                    prediction.speedup > 0.0 ? 1.0 / prediction.speedup : 0.0,
                    BottleneckName(machine.description.topo, prediction).c_str(),
                    wire::PlacementToCsv(job.placement).c_str())});
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const JobRow& a, const JobRow& b) { return a.name < b.name; });
  for (JobRow& row : rows) {
    response.payload.push_back(std::move(row.line));
  }
  return response;
}

wire::Response PlacementService::HandleTelemetry() const {
  const rack::Rack::TelemetrySnapshot telemetry = rack_.Telemetry();
  wire::Response response = wire::Response::Success("TELEMETRY");
  response.payload.push_back(StrFormat(
      "mutation-seq = %llu",
      static_cast<unsigned long long>(telemetry.mutation_seq)));
  response.payload.push_back(
      StrFormat("jobs = %zu", telemetry.jobs.size()));
  // Sorted by name, like STATUS: deterministic output for tests and diffs.
  std::vector<const rack::Rack::JobTelemetry*> jobs;
  jobs.reserve(telemetry.jobs.size());
  for (const rack::Rack::JobTelemetry& job : telemetry.jobs) {
    jobs.push_back(&job);
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const rack::Rack::JobTelemetry* a,
               const rack::Rack::JobTelemetry* b) { return a->name < b->name; });
  for (const rack::Rack::JobTelemetry* job : jobs) {
    // Degradation: how much worse the job is predicted to run now than
    // under the co-location it was admitted into (1.0 = unchanged).
    const double degradation = job->current_speedup > 0.0
                                   ? job->speedup_at_admit / job->current_speedup
                                   : 0.0;
    response.payload.push_back(StrFormat(
        "job = %s machine=%d machine-name=%s threads=%d "
        "speedup-at-admit=%.6f slowdown-at-admit=%.6f current-speedup=%.6f "
        "degradation=%.6f admit-seq=%llu moves=%d co-events=%llu",
        wire::EscapeValue(job->name).c_str(), job->machine_index,
        wire::EscapeValue(job->machine).c_str(), job->threads,
        job->speedup_at_admit, job->slowdown_at_admit, job->current_speedup,
        degradation, static_cast<unsigned long long>(job->admit_seq),
        job->moves, static_cast<unsigned long long>(job->co_events)));
  }
  return response;
}

wire::Response PlacementService::HandleRecorder(const wire::Request& request) const {
  if (!request.params.empty()) {
    return wire::Response::Failure(Status::InvalidArgument(
        StrFormat("RECORDER does not take parameter '%s'",
                  request.params.front().first.c_str())));
  }
  const std::vector<obs::FlightEvent> events = recorder_->Dump();
  wire::Response response = wire::Response::Success("RECORDER");
  response.payload.push_back(
      StrFormat("capacity = %zu", recorder_->capacity()));
  response.payload.push_back(StrFormat(
      "recorded = %llu", static_cast<unsigned long long>(recorder_->recorded())));
  response.payload.push_back(StrFormat(
      "dropped = %llu", static_cast<unsigned long long>(recorder_->dropped())));
  const int64_t origin = events.empty() ? 0 : events.front().timestamp_ns;
  for (const obs::FlightEvent& event : events) {
    response.payload.push_back(
        "event = " + obs::FormatFlightEvent(event, origin));
  }
  return response;
}

Status PlacementService::ApplyRecord(const wire::Request& record, size_t line) {
  const auto param = [&](const char* key) -> StatusOr<std::string> {
    const std::string* value = record.Find(key);
    if (value == nullptr) {
      return Status::DataLoss(StrFormat("journal line %zu: %s record misses '%s'",
                                        line, record.verb.c_str(), key));
    }
    return *value;
  };
  const auto machine_and_placement =
      [&]() -> StatusOr<std::pair<int, Placement>> {
    StatusOr<std::string> machine_text = param("machine");
    if (!machine_text.ok()) {
      return machine_text.status();
    }
    StatusOr<int> machine = ParseInt(*machine_text, "machine");
    if (!machine.ok() || *machine < 0 ||
        static_cast<size_t>(*machine) >= rack_.machines().size()) {
      return Status::DataLoss(
          StrFormat("journal line %zu: bad machine index", line));
    }
    StatusOr<std::string> csv = param("placement");
    if (!csv.ok()) {
      return csv.status();
    }
    StatusOr<Placement> placement = wire::PlacementFromCsv(
        rack_.machines()[*machine].description.topo, *csv);
    if (!placement.ok()) {
      return Status::DataLoss(StrFormat("journal line %zu: %s", line,
                                        placement.status().message().c_str()));
    }
    return std::make_pair(*machine, *std::move(placement));
  };

  Status applied = Status::Ok();
  if (record.verb == "ADMITTED") {
    StatusOr<std::string> name = param("name");
    StatusOr<std::string> desc_text = param("desc");
    if (!name.ok() || !desc_text.ok()) {
      return !name.ok() ? name.status() : desc_text.status();
    }
    StatusOr<std::pair<int, Placement>> target = machine_and_placement();
    if (!target.ok()) {
      return target.status();
    }
    StatusOr<WorkloadDescription> description =
        WorkloadDescriptionFromText(*desc_text);
    if (!description.ok()) {
      return Status::DataLoss(StrFormat("journal line %zu: %s", line,
                                        description.status().message().c_str()));
    }
    applied = rack_.AdmitAt(*name, target->first, *description, target->second);
  } else if (record.verb == "DEPARTED") {
    StatusOr<std::string> name = param("name");
    if (!name.ok()) {
      return name.status();
    }
    applied = rack_.Depart(*name).ok()
                  ? Status::Ok()
                  : Status::DataLoss(StrFormat(
                        "journal line %zu: departed job '%s' is not resident",
                        line, name->c_str()));
  } else if (record.verb == "MOVED") {
    StatusOr<std::string> name = param("name");
    if (!name.ok()) {
      return name.status();
    }
    StatusOr<std::pair<int, Placement>> target = machine_and_placement();
    if (!target.ok()) {
      return target.status();
    }
    applied = rack_.Move(*name, target->first, target->second);
  } else {
    return Status::DataLoss(StrFormat("journal line %zu: unknown record '%s'",
                                      line, record.verb.c_str()));
  }
  if (!applied.ok()) {
    return Status::DataLoss(StrFormat("journal line %zu: %s", line,
                                      applied.message().c_str()));
  }
  return Status::Ok();
}

wire::Request PlacementService::BuildSnapshot() const {
  const rack::Rack::SavedState state = rack_.SaveState();
  wire::Request snapshot;
  snapshot.verb = "SNAPSHOT";
  snapshot.params.emplace_back(
      "mutation-seq",
      StrFormat("%llu", static_cast<unsigned long long>(state.mutation_seq)));
  std::string events;
  for (size_t m = 0; m < state.machine_events.size(); ++m) {
    if (m > 0) {
      events += ',';
    }
    events += StrFormat(
        "%llu", static_cast<unsigned long long>(state.machine_events[m]));
  }
  snapshot.params.emplace_back("events", events);
  snapshot.params.emplace_back("jobs", StrFormat("%zu", state.jobs.size()));
  for (size_t i = 0; i < state.jobs.size(); ++i) {
    const rack::Rack::SavedJob& saved = state.jobs[i];
    wire::Request job;
    job.verb = "JOB";
    job.params.emplace_back("name", saved.job.name);
    job.params.emplace_back("machine", StrFormat("%d", saved.machine_index));
    job.params.emplace_back("placement",
                            wire::PlacementToCsv(saved.job.placement));
    // %.17g: doubles round-trip exactly, so speedup-at-admit (and with it
    // TELEMETRY) is byte-identical across snapshot + restart.
    job.params.emplace_back("speedup",
                            StrFormat("%.17g", saved.job.speedup_at_admit));
    job.params.emplace_back(
        "admit-seq",
        StrFormat("%llu", static_cast<unsigned long long>(saved.job.admit_seq)));
    job.params.emplace_back("moves", StrFormat("%d", saved.job.moves));
    job.params.emplace_back(
        "events-at-placement",
        StrFormat("%llu", static_cast<unsigned long long>(
                              saved.job.machine_events_at_placement)));
    job.params.emplace_back("desc",
                            WorkloadDescriptionToText(saved.job.description));
    // The formatted JOB line travels as one (re-escaped) value; nesting the
    // escaping round-trips exactly.
    snapshot.params.emplace_back(StrFormat("job.%zu", i),
                                 wire::FormatRequest(job));
  }
  return snapshot;
}

Status PlacementService::RestoreSnapshot(const wire::Request& record,
                                         size_t line) {
  const auto data_loss = [&](const std::string& message) {
    return Status::DataLoss(
        StrFormat("journal line %zu: %s", line, message.c_str()));
  };
  const auto param = [&](const wire::Request& request,
                         const char* key) -> StatusOr<std::string> {
    const std::string* value = request.Find(key);
    if (value == nullptr) {
      return data_loss(StrFormat("%s record misses '%s'", request.verb.c_str(),
                                 key));
    }
    return *value;
  };

  rack::Rack::SavedState state;
  StatusOr<std::string> seq_text = param(record, "mutation-seq");
  StatusOr<std::string> events_text = param(record, "events");
  StatusOr<std::string> jobs_text = param(record, "jobs");
  if (!seq_text.ok() || !events_text.ok() || !jobs_text.ok()) {
    return !seq_text.ok() ? seq_text.status()
                          : (!events_text.ok() ? events_text.status()
                                               : jobs_text.status());
  }
  StatusOr<uint64_t> mutation_seq = ParseUint64(*seq_text, "mutation-seq");
  StatusOr<uint64_t> job_count = ParseUint64(*jobs_text, "jobs");
  if (!mutation_seq.ok() || !job_count.ok()) {
    return data_loss("bad SNAPSHOT counters");
  }
  state.mutation_seq = *mutation_seq;
  for (const std::string& entry : StrSplit(*events_text, ',')) {
    StatusOr<uint64_t> value = ParseUint64(entry, "events");
    if (!value.ok()) {
      return data_loss("bad SNAPSHOT machine-event counter");
    }
    state.machine_events.push_back(*value);
  }
  for (uint64_t i = 0; i < *job_count; ++i) {
    StatusOr<std::string> job_line =
        param(record, StrFormat("job.%llu",
                                static_cast<unsigned long long>(i))
                          .c_str());
    if (!job_line.ok()) {
      return job_line.status();
    }
    StatusOr<wire::Request> job = wire::ParseRequest(*job_line);
    if (!job.ok()) {
      return data_loss(StrFormat("job.%llu: %s",
                                 static_cast<unsigned long long>(i),
                                 job.status().message().c_str()));
    }
    if (job->verb != "JOB") {
      return data_loss(StrFormat("job.%llu is a '%s' record, not JOB",
                                 static_cast<unsigned long long>(i),
                                 job->verb.c_str()));
    }
    StatusOr<std::string> name = param(*job, "name");
    StatusOr<std::string> machine_text = param(*job, "machine");
    StatusOr<std::string> placement_csv = param(*job, "placement");
    StatusOr<std::string> speedup_text = param(*job, "speedup");
    StatusOr<std::string> admit_seq_text = param(*job, "admit-seq");
    StatusOr<std::string> moves_text = param(*job, "moves");
    StatusOr<std::string> events_at_text = param(*job, "events-at-placement");
    StatusOr<std::string> desc_text = param(*job, "desc");
    for (const StatusOr<std::string>* field :
         {&name, &machine_text, &placement_csv, &speedup_text, &admit_seq_text,
          &moves_text, &events_at_text, &desc_text}) {
      if (!field->ok()) {
        return field->status();
      }
    }
    StatusOr<int> machine = ParseInt(*machine_text, "machine");
    if (!machine.ok() || *machine < 0 ||
        static_cast<size_t>(*machine) >= rack_.machines().size()) {
      return data_loss(StrFormat("job '%s' names a bad machine index",
                                 name->c_str()));
    }
    StatusOr<Placement> placement = wire::PlacementFromCsv(
        rack_.machines()[*machine].description.topo, *placement_csv);
    if (!placement.ok()) {
      return data_loss(StrFormat("job '%s': %s", name->c_str(),
                                 placement.status().message().c_str()));
    }
    StatusOr<WorkloadDescription> description =
        WorkloadDescriptionFromText(*desc_text);
    if (!description.ok()) {
      return data_loss(StrFormat("job '%s': %s", name->c_str(),
                                 description.status().message().c_str()));
    }
    StatusOr<double> speedup = ParseDouble(*speedup_text, "speedup");
    StatusOr<uint64_t> admit_seq = ParseUint64(*admit_seq_text, "admit-seq");
    StatusOr<int> moves = ParseInt(*moves_text, "moves");
    StatusOr<uint64_t> events_at =
        ParseUint64(*events_at_text, "events-at-placement");
    if (!speedup.ok() || !admit_seq.ok() || !moves.ok() || !events_at.ok()) {
      return data_loss(StrFormat("job '%s' has bad telemetry fields",
                                 name->c_str()));
    }
    // workload_fingerprint is 0 here; RestoreState recomputes it from the
    // description.
    state.jobs.push_back(rack::Rack::SavedJob{
        *machine,
        rack::RackJob{*name, *std::move(description), *std::move(placement),
                      /*workload_fingerprint=*/0, *speedup, *admit_seq, *moves,
                      *events_at}});
  }
  if (Status restored = rack_.RestoreState(state); !restored.ok()) {
    return data_loss(restored.message());
  }
  return Status::Ok();
}

double PlacementService::LiveRatio() const {
  if (journal_ == nullptr || journal_->records_since_snapshot() == 0) {
    return 1.0;
  }
  const double ratio =
      static_cast<double>(rack_.JobCount()) /
      static_cast<double>(journal_->records_since_snapshot());
  return ratio > 1.0 ? 1.0 : ratio;
}

void PlacementService::NoteJournalFailure() {
  ++journal_failures_;
  if (!degraded_ && journal_failures_ >= options_.degraded_failure_threshold) {
    degraded_ = true;
    DegradedGauge().Set(1.0);
    obs::EventLog::Global().Log(
        obs::LogLevel::kError, "serve.degraded",
        "entering read-only degraded mode after persistent journal failures",
        {{"path", options_.journal_path},
         {"failures", StrFormat("%d", journal_failures_)}});
    recorder_->Record("degraded", "enter", /*ok=*/false);
  }
}

void PlacementService::NoteJournalSuccess() {
  journal_failures_ = 0;
  if (degraded_) {
    degraded_ = false;
    DegradedGauge().Set(0.0);
    obs::EventLog::Global().Log(
        obs::LogLevel::kInfo, "serve.degraded",
        "journal append succeeded; leaving read-only degraded mode",
        {{"path", options_.journal_path}});
    recorder_->Record("degraded", "exit");
  }
}

bool PlacementService::ProbeJournal() {
  wire::Request note;
  note.verb = "NOTE";
  note.params.emplace_back("kind", "probe");
  return AppendJournal(note).ok();
}

Status PlacementService::CompactJournal() {
  const uint64_t records_before = journal_->record_count();
  const uint64_t bytes_before = journal_->size_bytes();
  if (Status compacted = journal_->Compact(BuildSnapshot()); !compacted.ok()) {
    obs::EventLog::Global().Log(
        obs::LogLevel::kError, "serve.journal", "journal compaction failed",
        {{"path", options_.journal_path}, {"error", compacted.message()}});
    recorder_->Record("journal", "COMPACT", /*ok=*/false);
    NoteJournalFailure();
    return Status::Unavailable(
        StrFormat("cannot compact journal '%s': %s",
                  options_.journal_path.c_str(), compacted.message().c_str()));
  }
  NoteJournalSuccess();
  obs::EventLog::Global().Log(
      obs::LogLevel::kInfo, "serve.journal", "compacted journal",
      {{"path", options_.journal_path},
       {"records-before", StrFormat("%llu", static_cast<unsigned long long>(
                                                records_before))},
       {"bytes-before",
        StrFormat("%llu", static_cast<unsigned long long>(bytes_before))},
       {"bytes-after", StrFormat("%llu", static_cast<unsigned long long>(
                                             journal_->size_bytes()))}});
  recorder_->Record("journal", "COMPACT");
  return Status::Ok();
}

wire::Response PlacementService::HandleCompact(const wire::Request& request) {
  if (!request.params.empty()) {
    return wire::Response::Failure(Status::InvalidArgument(
        StrFormat("COMPACT does not take parameter '%s'",
                  request.params.front().first.c_str())));
  }
  if (journal_ == nullptr) {
    return wire::Response::Failure(Status::FailedPrecondition(
        "COMPACT needs a journal (the service was started without one)"));
  }
  const uint64_t records_before = journal_->record_count();
  const uint64_t bytes_before = journal_->size_bytes();
  if (Status compacted = CompactJournal(); !compacted.ok()) {
    return wire::Response::Failure(compacted);
  }
  wire::Response response = wire::Response::Success("COMPACT");
  response.payload.push_back(StrFormat(
      "records-before = %llu", static_cast<unsigned long long>(records_before)));
  response.payload.push_back(
      StrFormat("records-after = %llu",
                static_cast<unsigned long long>(journal_->record_count())));
  response.payload.push_back(StrFormat(
      "bytes-before = %llu", static_cast<unsigned long long>(bytes_before)));
  response.payload.push_back(
      StrFormat("bytes-after = %llu",
                static_cast<unsigned long long>(journal_->size_bytes())));
  response.payload.push_back(StrFormat(
      "reclaimed-bytes = %llu",
      static_cast<unsigned long long>(
          bytes_before > journal_->size_bytes()
              ? bytes_before - journal_->size_bytes()
              : 0)));
  return response;
}

Status PlacementService::AppendJournal(const wire::Request& record) {
  std::string detail = record.verb;
  if (const std::string* name = record.Find("name")) {
    detail += " name=" + wire::EscapeValue(*name);
  }
  if (journal_ == nullptr) {
    // No journal file, but the mutation still happened: the flight recorder
    // keeps the mutation sequence observable for journal-less services.
    recorder_->Record("journal", detail);
    return Status::Ok();
  }
  if (Status appended = journal_->Append(record); !appended.ok()) {
    obs::EventLog::Global().Log(
        obs::LogLevel::kError, "serve.journal", "journal append failed",
        {{"path", options_.journal_path},
         {"record", record.verb},
         {"error", appended.message()}});
    recorder_->Record("journal", detail, /*ok=*/false);
    NoteJournalFailure();
    return Status::Unavailable(StrFormat("cannot append to journal '%s'",
                                         options_.journal_path.c_str()));
  }
  NoteJournalSuccess();
  recorder_->Record("journal", detail);
  return Status::Ok();
}

}  // namespace serve
}  // namespace pandia
