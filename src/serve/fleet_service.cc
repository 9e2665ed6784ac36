#include "src/serve/fleet_service.h"

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <utility>

#include "src/obs/log.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"

namespace pandia {
namespace serve {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Per-verb request instruments. One static table keyed by verb keeps metric
// cardinality bounded: every verb the daemon speaks gets its own counters
// and latency histogram, and anything else (unknown verbs) shares the
// "other" slot.
struct VerbInstruments {
  obs::Counter* requests;
  obs::Counter* errors;
  obs::Histogram* latency_us;
};

const VerbInstruments& InstrumentsFor(const std::string& verb) {
  static const std::map<std::string, VerbInstruments>* table = [] {
    auto* map = new std::map<std::string, VerbInstruments>;
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    for (const auto& [verb_key, stem] :
         std::initializer_list<std::pair<const char*, const char*>>{
             {"HELLO", "hello"},
             {"ADMIT", "admit"},
             {"DEPART", "depart"},
             {"REBALANCE", "rebalance"},
             {"COMPACT", "compact"},
             {"STATUS", "status"},
             {"METRICS", "metrics"},
             {"TELEMETRY", "telemetry"},
             {"RECORDER", "recorder"},
             {"SHUTDOWN", "shutdown"},
             {"", "other"}}) {
      const std::string prefix = std::string("serve.") + stem;
      map->emplace(verb_key,
                   VerbInstruments{
                       &registry.counter(prefix + ".requests"),
                       &registry.counter(prefix + ".errors"),
                       &registry.histogram(prefix + ".latency_us",
                                           obs::ExponentialBounds(1, 2, 20))});
    }
    return map;
  }();
  const auto it = table->find(verb);
  return it != table->end() ? it->second : table->at("");
}

obs::Counter& ParseErrors() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("serve.parse_errors");
  return counter;
}
obs::Gauge& JobsGauge() {
  static obs::Gauge& gauge = obs::MetricsRegistry::Global().gauge("serve.jobs");
  return gauge;
}
obs::Gauge& FreeThreadsGauge() {
  static obs::Gauge& gauge =
      obs::MetricsRegistry::Global().gauge("serve.free_threads");
  return gauge;
}
obs::Counter& AdmitFallbacks() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("serve.fleet.admit_fallback");
  return counter;
}

int FreeThreads(const rack::Rack& rack) {
  int free = 0;
  for (size_t m = 0; m < rack.machines().size(); ++m) {
    free += rack.FreeThreadCount(static_cast<int>(m));
  }
  return free;
}

}  // namespace

StatusOr<std::unique_ptr<FleetService>> FleetService::Create(
    std::vector<rack::RackMachine> machines, FleetOptions options) {
  if (options.shards < 1) {
    return Status::InvalidArgument(
        StrFormat("fleet needs at least 1 shard, got %d", options.shards));
  }
  if (machines.size() < static_cast<size_t>(options.shards)) {
    return Status::InvalidArgument(
        StrFormat("fleet of %d shards needs at least %d machines, got %zu",
                  options.shards, options.shards, machines.size()));
  }
  // Deal machines round-robin so heterogeneous machine lists spread their
  // types across shards instead of clustering per shard.
  std::vector<std::vector<rack::RackMachine>> per_shard(
      static_cast<size_t>(options.shards));
  for (size_t i = 0; i < machines.size(); ++i) {
    per_shard[i % static_cast<size_t>(options.shards)].push_back(
        std::move(machines[i]));
  }
  const bool sharded = options.shards > 1;
  std::vector<PlacementService> shards;
  shards.reserve(per_shard.size());
  for (size_t k = 0; k < per_shard.size(); ++k) {
    ServiceOptions shard_options = options.service;
    if (sharded && !shard_options.journal_path.empty()) {
      shard_options.journal_path =
          StrFormat("%s.shard%zu", options.service.journal_path.c_str(), k);
    }
    StatusOr<PlacementService> shard =
        PlacementService::Create(std::move(per_shard[k]), std::move(shard_options));
    if (!shard.ok()) {
      if (!sharded) {
        return shard.status();
      }
      return Status(shard.status().code(),
                    StrFormat("shard %zu: %s", k, shard.status().message().c_str()));
    }
    shards.push_back(*std::move(shard));
  }
  return std::unique_ptr<FleetService>(
      new FleetService(std::move(shards), options.shard_policy));
}

FleetService::FleetService(std::vector<PlacementService> shards,
                           rack::ShardPolicy shard_policy)
    : fleet_(static_cast<int>(shards.size()), shard_policy),
      shards_(std::move(shards)) {}

std::string FleetService::HandleLine(const std::string& line) {
  StatusOr<wire::Request> request = wire::ParseRequest(line);
  if (request.ok()) {
    return wire::FormatResponse(Handle(*request));
  }
  ParseErrors().Increment();
  obs::EventLog::Global().Log(obs::LogLevel::kWarn, "serve.parse",
                              "unparseable request line",
                              {{"error", request.status().message()}});
  // Shard 0 keeps the unparseable line in its flight recorder and answers
  // it with the parse error.
  util::MutexLock lock(mu_);
  return shards_.front().HandleLine(line);
}

wire::Response FleetService::Handle(const wire::Request& request) {
  const int64_t start_ns = NowNs();
  wire::Response response;
  {
    util::MutexLock lock(mu_);
    response = Dispatch(request);
    int jobs = 0;
    int free = 0;
    for (const PlacementService& shard : shards_) {
      jobs += shard.rack().JobCount();
      free += FreeThreads(shard.rack());
    }
    JobsGauge().Set(jobs);
    FreeThreadsGauge().Set(free);
  }
  const VerbInstruments& instruments = InstrumentsFor(request.verb);
  instruments.requests->Increment();
  instruments.latency_us->Observe(static_cast<double>(NowNs() - start_ns) /
                                  1000.0);
  if (!response.ok) {
    instruments.errors->Increment();
    obs::EventLog::Global().Log(
        obs::LogLevel::kWarn, "serve.request", "request failed",
        {{"verb", request.verb},
         {"code", wire::WireCodeName(response.code)},
         {"error", response.error}});
  }
  return response;
}

bool FleetService::shutdown_requested() const {
  util::MutexLock lock(mu_);
  return shutdown_;
}

wire::Response FleetService::Dispatch(const wire::Request& request) {
  if (request.verb == "HELLO" || request.verb == "METRICS") {
    wire::Response response =
        request.verb == "HELLO" ? HandleHello(request) : HandleMetrics(request);
    // Shard 0's flight recorder keeps the requests the front door answers.
    shards_.front().RecordRequest(request, response);
    return response;
  }
  if (request.verb == "SHUTDOWN") {
    shutdown_ = true;
    for (PlacementService& shard : shards_) {
      (void)shard.Handle(request);  // syncs the shard's journal; never fails
    }
    return wire::Response::Success("SHUTDOWN");
  }
  if (shards_.size() == 1) {
    return shards_.front().Handle(request);
  }
  if (request.verb == "ADMIT") {
    return RouteAdmit(request);
  }
  if (request.verb == "DEPART") {
    return RouteDepart(request);
  }
  if (request.verb == "REBALANCE" || request.verb == "COMPACT" ||
      request.verb == "STATUS" || request.verb == "TELEMETRY" ||
      request.verb == "RECORDER") {
    return FanOut(request);
  }
  // Unknown verbs: shard 0 answers with the canonical unknown-verb error.
  return shards_.front().Handle(request);
}

void FleetService::AppendFleetRows(std::vector<std::string>& payload) const {
  payload.push_back(StrFormat("shards = %d", fleet_.num_shards()));
  payload.push_back(StrFormat("shard-policy = %s",
                              rack::ShardPolicyName(fleet_.policy()).c_str()));
}

wire::Response FleetService::HandleHello(const wire::Request& request) const {
  // Strict like TELEMETRY: the handshake takes no parameters, so future
  // parameterized hellos can be detected by old servers as errors instead
  // of being silently half-understood.
  if (!request.params.empty()) {
    return wire::Response::Failure(Status::InvalidArgument(
        StrFormat("HELLO does not take parameter '%s'",
                  request.params.front().first.c_str())));
  }
  wire::Response response = wire::Response::Success("HELLO");
  response.payload.push_back(
      StrFormat("protocol = %d", wire::kProtocolVersion));
  // Capabilities are sorted, comma-separated tokens naming the post-v1
  // extensions this server speaks, fixed by the shard count so handshakes
  // are deterministic.
  if (fleet_.num_shards() == 1) {
    response.payload.push_back("capabilities = compact,recorder,telemetry");
    return response;
  }
  response.payload.push_back("capabilities = compact,fleet,recorder,telemetry");
  AppendFleetRows(response.payload);
  return response;
}

wire::Response FleetService::HandleMetrics(const wire::Request& request) const {
  bool expo = false;
  for (const auto& [key, value] : request.params) {
    if (key != "format") {
      return wire::Response::Failure(Status::InvalidArgument(
          StrFormat("METRICS does not take parameter '%s'", key.c_str())));
    }
    if (value == "expo") {
      expo = true;
    } else if (value != "table") {
      return wire::Response::Failure(Status::InvalidArgument(StrFormat(
          "unknown METRICS format '%s' (want table or expo)", value.c_str())));
    }
  }
  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  wire::Response response = wire::Response::Success("METRICS");
  if (expo) {
    // Line-oriented exposition format (grammar in DESIGN.md): one
    // "<metric> <value>" sample per line, histogram buckets as
    // name{le=BOUND} with cumulative counts, plus name.count / name.sum.
    for (const auto& counter : snapshot.counters) {
      response.payload.push_back(
          StrFormat("%s %llu", counter.name.c_str(),
                    static_cast<unsigned long long>(counter.value)));
    }
    for (const auto& gauge : snapshot.gauges) {
      response.payload.push_back(
          StrFormat("%s %.6f", gauge.name.c_str(), gauge.value));
    }
    for (const auto& histogram : snapshot.histograms) {
      uint64_t cumulative = 0;
      for (size_t i = 0; i < histogram.buckets.size(); ++i) {
        cumulative += histogram.buckets[i];
        const std::string le =
            i < histogram.bounds.size() ? StrFormat("%.6g", histogram.bounds[i])
                                        : std::string("+inf");
        response.payload.push_back(
            StrFormat("%s{le=%s} %llu", histogram.name.c_str(), le.c_str(),
                      static_cast<unsigned long long>(cumulative)));
      }
      response.payload.push_back(
          StrFormat("%s.count %llu", histogram.name.c_str(),
                    static_cast<unsigned long long>(histogram.count)));
      response.payload.push_back(
          StrFormat("%s.sum %.6f", histogram.name.c_str(), histogram.sum));
    }
    return response;
  }
  for (const auto& counter : snapshot.counters) {
    response.payload.push_back(
        StrFormat("counter %s = %llu", counter.name.c_str(),
                  static_cast<unsigned long long>(counter.value)));
  }
  for (const auto& gauge : snapshot.gauges) {
    response.payload.push_back(
        StrFormat("gauge %s = %.6f", gauge.name.c_str(), gauge.value));
  }
  for (const auto& histogram : snapshot.histograms) {
    response.payload.push_back(StrFormat(
        "histogram %s count=%llu sum=%.6f", histogram.name.c_str(),
        static_cast<unsigned long long>(histogram.count), histogram.sum));
  }
  return response;
}

std::vector<rack::ShardLoad> FleetService::ShardLoads() const {
  std::vector<rack::ShardLoad> loads;
  if (fleet_.policy() != rack::ShardPolicy::kLeastLoaded) {
    return loads;  // consistent hashing never reads loads
  }
  loads.reserve(shards_.size());
  for (const PlacementService& shard : shards_) {
    loads.push_back(
        rack::ShardLoad{FreeThreads(shard.rack()), shard.rack().JobCount()});
  }
  return loads;
}

wire::Response FleetService::RouteAdmit(const wire::Request& request) {
  const std::string* name = request.Find("name");
  if (name == nullptr || name->empty()) {
    // Let the shard produce the canonical invalid-argument error.
    return shards_.front().Handle(request);
  }
  // Cross-shard duplicate check first: per-shard checks only see their own
  // residents, and the same name must never be live on two shards.
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (shards_[k].rack().Has(*name)) {
      return wire::Response::Failure(Status::FailedPrecondition(StrFormat(
          "a job named '%s' is already resident (shard %zu)", name->c_str(), k)));
    }
  }
  const std::vector<int> order = fleet_.ShardOrder(*name, ShardLoads());
  std::optional<wire::Response> first_failure;
  for (size_t attempt = 0; attempt < order.size(); ++attempt) {
    const int k = order[attempt];
    wire::Response response = shards_[static_cast<size_t>(k)].Handle(request);
    if (response.ok) {
      if (attempt > 0) {
        AdmitFallbacks().Increment();
      }
      response.payload.push_back(StrFormat("shard = %d", k));
      return response;
    }
    // Shard-local infeasibility (nothing fits: failed-precondition; no
    // machine of a matching type: not-found) falls through to the next
    // shard in the preference order. Anything else — a malformed request,
    // a degraded journal — would fail identically everywhere.
    const bool try_next = response.code == StatusCode::kFailedPrecondition ||
                          response.code == StatusCode::kNotFound;
    if (!try_next) {
      return response;
    }
    if (!first_failure.has_value()) {
      first_failure = std::move(response);
    }
  }
  return *std::move(first_failure);  // preferred shard's refusal
}

wire::Response FleetService::RouteDepart(const wire::Request& request) {
  const std::string* name = request.Find("name");
  if (name != nullptr) {
    for (size_t k = 0; k < shards_.size(); ++k) {
      if (!shards_[k].rack().Has(*name)) {
        continue;
      }
      wire::Response response = shards_[k].Handle(request);
      if (response.ok) {
        response.payload.push_back(StrFormat("shard = %zu", k));
      }
      return response;
    }
  }
  // Missing parameter or unknown job: shard 0 produces the canonical error.
  return shards_.front().Handle(request);
}

wire::Response FleetService::FanOut(const wire::Request& request) {
  wire::Response aggregate = wire::Response::Success(request.verb);
  if (request.verb == "STATUS") {
    AppendFleetRows(aggregate.payload);
  }
  // What a shard applied has landed whatever the others answer, so its
  // rows stay and a failed shard only adds a warning.
  bool any_ok = false;
  std::optional<wire::Response> first_failure;
  for (size_t k = 0; k < shards_.size(); ++k) {
    wire::Response response = shards_[k].Handle(request);
    aggregate.payload.push_back(StrFormat("shard = %zu", k));
    if (!response.ok) {
      aggregate.payload.push_back(
          StrFormat("warning = shard %zu: %s", k, response.error.c_str()));
      if (!first_failure.has_value()) {
        first_failure = std::move(response);
      }
      continue;
    }
    any_ok = true;
    for (std::string& row : response.payload) {
      aggregate.payload.push_back(std::move(row));
    }
  }
  if (!any_ok) {
    return *std::move(first_failure);  // every shard refused
  }
  return aggregate;
}

}  // namespace serve
}  // namespace pandia
