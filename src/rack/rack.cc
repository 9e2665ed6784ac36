#include "src/rack/rack.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "src/obs/metrics.h"
#include "src/util/check.h"
#include "src/util/parallel.h"
#include "src/util/strings.h"

namespace pandia {
namespace rack {
namespace {

// Per-core thread counts for `t` threads on one socket of a partially
// occupied machine. Spread variant: empty cores first (no co-location),
// then SMT slots next to residents, then own SMT pairs. Packed variant:
// fill each empty core completely before touching the next.
bool BuildSocketVariant(const MachineTopology& topo, int socket, int t, bool spread,
                        const std::vector<uint8_t>& free, std::vector<uint8_t>& out) {
  const int first = topo.FirstCoreOfSocket(socket);
  const int last = first + topo.cores_per_socket;
  int remaining = t;
  // One pass over the socket's empty (free >= 2) or half-free (free == 1)
  // cores in index order, adding one thread to each or, when filling, as
  // many as the core has free.
  const auto pass = [&](bool empty, bool fill) {
    for (int core = first; core < last && remaining > 0; ++core) {
      if (empty ? free[core] >= 2 : free[core] == 1) {
        const int add = fill ? std::min(remaining, free[core] - out[core]) : 1;
        out[core] = static_cast<uint8_t>(out[core] + add);
        remaining -= add;
      }
    }
  };
  if (spread) {
    pass(/*empty=*/true, /*fill=*/false);
    pass(/*empty=*/false, /*fill=*/false);
    pass(/*empty=*/true, /*fill=*/false);  // second pass: own SMT pairs
  } else {
    pass(/*empty=*/true, /*fill=*/true);
    pass(/*empty=*/false, /*fill=*/false);
  }
  return remaining == 0;
}

// The free hardware threads of one machine, laid out for enumerating its
// candidate placements one thread count at a time.
struct FreeLayout {
  FreeLayout(const MachineTopology& topology, std::vector<uint8_t> free_threads)
      : topo(topology), free(std::move(free_threads)) {
    socket_free.assign(static_cast<size_t>(topo.num_sockets), 0);
    for (int c = 0; c < topo.NumCores(); ++c) {
      socket_free[topo.SocketOfCore(c)] += free[c];
    }
    capacity = std::accumulate(socket_free.begin(), socket_free.end(), 0);
    socket_order.resize(static_cast<size_t>(topo.num_sockets));
    std::iota(socket_order.begin(), socket_order.end(), 0);
    std::stable_sort(socket_order.begin(), socket_order.end(),
                     [&](int a, int b) { return socket_free[a] > socket_free[b]; });
  }

  const MachineTopology& topo;
  std::vector<uint8_t> free;      // per core
  std::vector<int> socket_free;   // free threads per socket
  std::vector<int> socket_order;  // most free threads first, stable on index
  int capacity = 0;               // free threads on the machine
};

// Appends the candidate placements of exactly `total` threads to `out`, in
// enumeration order: the threads split over the k most-free sockets
// (k = 1..num_sockets) as evenly as possible, in a spread and a packed
// per-core variant, duplicates dropped. Placements of different totals
// never coincide, so every duplicate lies within one total.
void AppendCandidates(const FreeLayout& layout, int total, std::vector<Placement>& out) {
  const MachineTopology& topo = layout.topo;
  const size_t first = out.size();
  for (int k = 1; k <= topo.num_sockets; ++k) {
    for (const bool spread : {true, false}) {
      std::vector<uint8_t> per_core(static_cast<size_t>(topo.NumCores()), 0);
      int remaining = total;
      bool ok = true;
      for (int i = 0; i < k && ok; ++i) {
        const int share = remaining / (k - i) + (remaining % (k - i) != 0 ? 1 : 0);
        const int socket = layout.socket_order[i];
        const int here = std::min(share, layout.socket_free[socket]);
        ok = BuildSocketVariant(topo, socket, here, spread, layout.free, per_core);
        remaining -= here;
      }
      if (!ok || remaining != 0 ||
          std::any_of(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
                      [&](const Placement& p) { return p.PerCore() == per_core; })) {
        continue;
      }
      out.emplace_back(topo, std::move(per_core));
    }
  }
}

obs::Counter& AdmissionsCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("rack.admissions");
  return counter;
}
obs::Counter& DeparturesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("rack.departures");
  return counter;
}
obs::Counter& MovesCounter() {
  static obs::Counter& counter = obs::MetricsRegistry::Global().counter("rack.moves");
  return counter;
}
obs::Counter& ProbeCandidatesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("rack.probe.candidates");
  return counter;
}
obs::Counter& ProbeSolvesCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().counter("rack.probe.solves");
  return counter;
}

}  // namespace

std::string PolicyName(Policy policy) {
  switch (policy) {
    case Policy::kFirstFit:
      return "first-fit";
    case Policy::kBestSpeedup:
      return "best-speedup";
    case Policy::kLeastInterference:
      return "least-interference";
  }
  return "unknown";
}

StatusOr<Policy> PolicyFromName(const std::string& name) {
  if (name == "first-fit") {
    return Policy::kFirstFit;
  }
  if (name == "best-speedup") {
    return Policy::kBestSpeedup;
  }
  if (name == "least-interference") {
    return Policy::kLeastInterference;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown policy '%s' (want first-fit, best-speedup, or least-interference)",
      name.c_str()));
}

Rack::Rack(std::vector<RackMachine> machines, PredictionOptions options)
    : machines_(std::move(machines)), options_(options) {
  PANDIA_CHECK(!machines_.empty());
  residents_.resize(machines_.size());
  machine_events_.resize(machines_.size(), 0);
  // A convergence-trace hook disables memoization for the same reason
  // PredictCached does: a hit would silently skip recording.
  if (options_.common.use_cache && options_.trace == nullptr) {
    cache_ = &PredictionCache::Global();
  }
  machine_context_.reserve(machines_.size());
  engines_.reserve(machines_.size());
  for (const RackMachine& machine : machines_) {
    machine_context_.push_back(MachineOptionsFingerprint(machine.description, options_));
    engines_.emplace_back(machine.description, options_);
  }
}

const std::vector<RackJob>& Rack::JobsOn(int machine_index) const {
  PANDIA_CHECK(machine_index >= 0 &&
               static_cast<size_t>(machine_index) < residents_.size());
  return residents_[machine_index];
}

bool Rack::Has(const std::string& job) const { return MachineOf(job).ok(); }

StatusOr<int> Rack::MachineOf(const std::string& job) const {
  for (size_t m = 0; m < residents_.size(); ++m) {
    for (const RackJob& resident : residents_[m]) {
      if (resident.name == job) {
        return static_cast<int>(m);
      }
    }
  }
  return Status::NotFound(StrFormat("no job named '%s' is resident", job.c_str()));
}

int Rack::JobCount() const {
  size_t total = 0;
  for (const auto& residents : residents_) {
    total += residents.size();
  }
  return static_cast<int>(total);
}

std::vector<uint8_t> Rack::FreeThreads(int machine_index,
                                       const std::string* exclude_job) const {
  const MachineTopology& topo = machines_[machine_index].description.topo;
  std::vector<uint8_t> free(static_cast<size_t>(topo.NumCores()),
                            static_cast<uint8_t>(topo.threads_per_core));
  for (const RackJob& resident : residents_[machine_index]) {
    if (exclude_job != nullptr && resident.name == *exclude_job) {
      continue;
    }
    for (int c = 0; c < topo.NumCores(); ++c) {
      const int used = resident.placement.ThreadsOnCore(c);
      PANDIA_CHECK(free[c] >= used);
      free[c] = static_cast<uint8_t>(free[c] - used);
    }
  }
  return free;
}

int Rack::FreeThreadCount(int machine_index) const {
  const std::vector<uint8_t> free = FreeThreads(machine_index);
  return std::accumulate(free.begin(), free.end(), 0);
}

std::vector<Prediction> Rack::PredictResidents(
    int machine_index, std::span<const RackJob* const> jobs) const {
  std::vector<Prediction> predictions;
  if (jobs.empty()) {
    return predictions;
  }
  // Joint context: machine + options + every resident (workload, placement)
  // pair, in order. Slot i of the joint solve is keyed by {context, i}: any
  // membership, ordering, or placement change produces a different context,
  // so entries cannot go stale by construction.
  uint64_t context = 0;
  if (cache_ != nullptr) {
    context = machine_context_[machine_index];
    for (const RackJob* job : jobs) {
      context = CombineFingerprints(context, job->workload_fingerprint);
      context = CombineFingerprints(context, PlacementFingerprint(job->placement));
    }
    predictions.reserve(jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      std::optional<Prediction> hit =
          cache_->Lookup(PredictionCacheKey{context, static_cast<uint64_t>(i)});
      if (!hit.has_value()) {
        predictions.clear();
        break;
      }
      predictions.push_back(*std::move(hit));
    }
    if (predictions.size() == jobs.size()) {
      return predictions;
    }
  }
  std::vector<CoScheduleRequest> requests;
  requests.reserve(jobs.size());
  for (const RackJob* job : jobs) {
    requests.push_back(CoScheduleRequest{&job->description, job->placement});
  }
  predictions = engines_[machine_index].Predict(requests).jobs;
  if (cache_ != nullptr) {
    for (size_t i = 0; i < predictions.size(); ++i) {
      if (predictions[i].converged) {
        cache_->Insert(PredictionCacheKey{context, static_cast<uint64_t>(i)},
                       predictions[i]);
      }
    }
  }
  return predictions;
}

std::vector<Prediction> Rack::PredictMachine(int machine_index) const {
  PANDIA_CHECK(machine_index >= 0 &&
               static_cast<size_t>(machine_index) < residents_.size());
  std::vector<const RackJob*> jobs;
  jobs.reserve(residents_[machine_index].size());
  for (const RackJob& resident : residents_[machine_index]) {
    jobs.push_back(&resident);
  }
  return PredictResidents(machine_index, jobs);
}

std::vector<Placement> Rack::CandidatePlacements(int machine_index,
                                                int requested_threads,
                                                const std::string* exclude_job) const {
  PANDIA_CHECK(machine_index >= 0 &&
               static_cast<size_t>(machine_index) < residents_.size());
  const FreeLayout layout(machines_[machine_index].description.topo,
                          FreeThreads(machine_index, exclude_job));
  std::vector<Placement> placements;
  for (int total = 1; total <= std::min(requested_threads, layout.capacity); ++total) {
    AppendCandidates(layout, total, placements);
  }
  return placements;
}

std::optional<Rack::Candidate> Rack::BestCandidateOn(int machine_index,
                                                     const JobRequest& job,
                                                     Policy policy,
                                                     const std::string* exclude_job,
                                                     double must_beat) const {
  PANDIA_CHECK(machine_index >= 0 &&
               static_cast<size_t>(machine_index) < residents_.size());
  const auto desc_it =
      job.descriptions.find(machines_[machine_index].description.topo.name);
  if (desc_it == job.descriptions.end()) {
    return std::nullopt;  // no description for this machine type
  }
  return ProbeMachine(machine_index, desc_it->second, job.requested_threads, policy,
                      exclude_job, must_beat);
}

std::optional<Rack::Candidate> Rack::ProbeMachine(int machine_index,
                                                  const WorkloadDescription& workload,
                                                  int requested_threads, Policy policy,
                                                  const std::string* exclude_job,
                                                  double must_beat) const {
  const MachineTopology& topo = machines_[machine_index].description.topo;
  const FreeLayout layout(topo, FreeThreads(machine_index, exclude_job));
  // One thread always fits on a machine with a free thread, so a positive
  // `want` means at least one candidate.
  const int want = std::min(requested_threads, layout.capacity);
  if (want <= 0) {
    return std::nullopt;
  }

  std::vector<const RackJob*> others;
  others.reserve(residents_[machine_index].size());
  for (const RackJob& resident : residents_[machine_index]) {
    if (exclude_job != nullptr && resident.name == *exclude_job) {
      continue;
    }
    others.push_back(&resident);
  }

  // Least interference scores the *change* in the machine's aggregate
  // speedup caused by admitting the job (a plain after-sum would reward
  // already-busy machines), so it alone needs the residents' own joint
  // prediction as a baseline. Its objective has no ceiling.
  const bool interference = policy == Policy::kLeastInterference;
  double before_total = 0.0;
  if (interference) {
    for (const Prediction& prediction : PredictResidents(machine_index, others)) {
      before_total += prediction.speedup;
    }
  }
  const auto objective = [&](const Candidate& candidate) {
    return interference ? candidate.total_speedup : candidate.job_speedup;
  };

  // Bound and prune. The Amdahl ceiling depends on the thread count alone,
  // so the candidates of one thread count form a class of equal ceiling.
  // Classes are visited in descending ceiling order, stable on thread
  // count, and candidates in enumeration order within a class. A candidate
  // is skipped when its ceiling cannot beat the incumbent: below it, or
  // equal to it and later in enumeration order, keyed by (threads, index
  // within class) (the exhaustive scan keeps the first of equal
  // candidates). A class whose first candidate would be skipped by the
  // class ceiling is skipped whole, without being built; each candidate
  // still to solve is checked again just before its solve, against its
  // capacity ceiling at the machine's occupancy with it placed, raised by
  // kCapacityCeilingSlack and capped by the class ceiling. Every ceiling
  // bounds the candidate's joint speedup, so the first enumerated maximum
  // is never skipped and no later candidate displaces it: the result is
  // the exhaustive scan's.
  const CoSchedulePredictor& engine = engines_[machine_index];
  struct CeilingClass {
    int threads;
    double ceiling;
  };
  std::vector<CeilingClass> classes;
  classes.reserve(static_cast<size_t>(want));
  for (int threads = 1; threads <= want; ++threads) {
    classes.push_back({threads, interference ? std::numeric_limits<double>::infinity()
                                             : engine.SpeedupCeiling(workload, threads)});
  }
  std::stable_sort(classes.begin(), classes.end(),
                   [](const CeilingClass& a, const CeilingClass& b) {
                     return a.ceiling > b.ceiling;
                   });
  using Key = std::pair<int, size_t>;  // (threads, index within class)
  std::optional<Candidate> best;
  Key best_key;
  const auto cannot_win = [&](double ceiling, const Key& key) {
    if (ceiling <= must_beat) {
      return true;
    }
    return best.has_value() && (ceiling < objective(*best) ||
                                (ceiling == objective(*best) && key > best_key));
  };

  // The residents' requests never change between candidates (only the new
  // job's trailing slot does, added at the first solve), and PredictInto
  // reuses the prediction's vector capacity, so the scan performs no
  // per-candidate result allocations.
  std::vector<CoScheduleRequest> requests;
  requests.reserve(others.size() + 1);
  for (const RackJob* resident : others) {
    requests.push_back(
        CoScheduleRequest{&resident->description, resident->placement});
  }
  CoSchedulePrediction joint;
  std::vector<Placement> placements;  // the class being scanned
  std::vector<uint8_t> occupancy(layout.free.size());  // with the candidate placed
  uint64_t built = 0;
  uint64_t solves = 0;
  for (const CeilingClass& ceiling_class : classes) {
    if (cannot_win(ceiling_class.ceiling, Key{ceiling_class.threads, 0})) {
      continue;
    }
    placements.clear();
    AppendCandidates(layout, ceiling_class.threads, placements);
    built += placements.size();
    for (size_t i = 0; i < placements.size(); ++i) {
      const Key key{ceiling_class.threads, i};
      if (cannot_win(ceiling_class.ceiling, key)) {
        continue;
      }
      if (!interference) {
        const std::vector<uint8_t>& per_core = placements[i].PerCore();
        for (size_t c = 0; c < occupancy.size(); ++c) {
          occupancy[c] =
              static_cast<uint8_t>(topo.threads_per_core - layout.free[c] + per_core[c]);
        }
        const double capacity =
            engine.CapacityCeiling(workload, placements[i], occupancy) *
            (1.0 + kCapacityCeilingSlack);
        if (cannot_win(std::min(ceiling_class.ceiling, capacity), key)) {
          continue;
        }
      }
      // Joint prediction with the machine's residents. Not memoized: each
      // candidate is a novel transient context, and inserting thousands of
      // them would only churn the cache.
      if (requests.size() == others.size()) {
        requests.push_back(CoScheduleRequest{&workload, placements[i]});
      } else {
        requests.back().placement = placements[i];
      }
      engine.PredictInto(requests, &joint);
      ++solves;
      Candidate candidate{std::move(placements[i]), joint.jobs.back().speedup, 0.0};
      if (interference) {
        for (const Prediction& prediction : joint.jobs) {
          candidate.total_speedup += prediction.speedup;
        }
        candidate.total_speedup -= before_total;  // net rack-wide gain
      }
      if (!best.has_value() || objective(candidate) > objective(*best) ||
          (objective(candidate) == objective(*best) && key < best_key)) {
        best = std::move(candidate);
        best_key = key;
      }
    }
  }
  ProbeCandidatesCounter().Increment(built);
  ProbeSolvesCounter().Increment(solves);
  return best;
}

std::optional<Assignment> Rack::ScanMachines(
    const std::string& job, int first, int last, Policy policy, double must_beat,
    const std::function<std::optional<Candidate>(int, double)>& probe) const {
  // Probe the machines in waves of one machine per worker, lowest index
  // first; the probes only read rack state (the least-interference baseline
  // also goes through the thread-safe prediction cache). The fold keeps the
  // lowest-indexed machine with the strictly greatest objective, so under
  // best speedup every wave passes the best job speedup of the earlier waves
  // (before any, the caller's must_beat) as must_beat: a machine that cannot
  // exceed it cannot be chosen, and the chosen machine's best always exceeds
  // it, since only lower-indexed machines set it. Under first fit the first
  // wave that holds a feasible machine ends the scan. Least interference has
  // no ceiling and probes every machine. The answer is the exhaustive fold's
  // at every job count, and the solves depend on the job count alone, never
  // on thread timing.
  const int wave = util::ResolveJobs(options_.common.jobs);
  const auto objective = [&](const Candidate& candidate) {
    return policy == Policy::kLeastInterference ? candidate.total_speedup
                                                : candidate.job_speedup;
  };
  std::vector<std::optional<Candidate>> candidates(static_cast<size_t>(wave));
  std::optional<Candidate> chosen;
  int chosen_machine = -1;
  for (int begin = first; begin < last; begin += wave) {
    if (policy == Policy::kFirstFit && chosen.has_value()) {
      break;
    }
    const int count = std::min(wave, last - begin);
    const double bar = policy == Policy::kBestSpeedup && chosen.has_value()
                           ? chosen->job_speedup
                           : must_beat;
    util::ParallelFor(static_cast<size_t>(count), options_.common.jobs, [&](size_t i) {
      candidates[i] = probe(begin + static_cast<int>(i), bar);
    });
    for (int i = 0; i < count; ++i) {
      std::optional<Candidate>& candidate = candidates[static_cast<size_t>(i)];
      if (candidate.has_value() &&
          (!chosen.has_value() ? candidate->job_speedup > must_beat
                               : policy != Policy::kFirstFit &&
                                     objective(*candidate) > objective(*chosen))) {
        chosen = std::move(candidate);
        chosen_machine = begin + i;
      }
    }
  }
  if (!chosen.has_value()) {
    return std::nullopt;
  }
  return Assignment{job, chosen_machine, std::move(chosen->placement),
                    chosen->job_speedup};
}

StatusOr<Assignment> Rack::Choose(const JobRequest& job, Policy policy) const {
  if (job.name.empty()) {
    return Status::InvalidArgument("job name must be non-empty");
  }
  if (job.requested_threads <= 0) {
    return Status::InvalidArgument(
        StrFormat("job '%s' requests %d threads; want a positive count",
                  job.name.c_str(), job.requested_threads));
  }
  if (Has(job.name)) {
    return Status::FailedPrecondition(
        StrFormat("a job named '%s' is already resident", job.name.c_str()));
  }
  bool any_type_match = false;
  for (const RackMachine& machine : machines_) {
    const auto it = job.descriptions.find(machine.description.topo.name);
    if (it == job.descriptions.end()) {
      continue;
    }
    any_type_match = true;
    if (Status status = it->second.Validate(); !status.ok()) {
      return Status::InvalidArgument(
          StrFormat("job '%s', machine type '%s': %s", job.name.c_str(),
                    machine.description.topo.name.c_str(), status.message().c_str()));
    }
  }
  if (!any_type_match) {
    return Status::NotFound(
        StrFormat("job '%s' has no description for any machine type in the rack",
                  job.name.c_str()));
  }

  std::optional<Assignment> chosen = ScanMachines(
      job.name, 0, static_cast<int>(machines_.size()), policy,
      -std::numeric_limits<double>::infinity(), [&](int machine_index, double must_beat) {
        return BestCandidateOn(machine_index, job, policy, nullptr, must_beat);
      });
  if (!chosen.has_value()) {
    return Status::FailedPrecondition(
        StrFormat("no machine can place job '%s' (requested %d threads)",
                  job.name.c_str(), job.requested_threads));
  }
  return *std::move(chosen);
}

std::optional<Assignment> Rack::MoveOf(const RackJob& resident, int home,
                                       double current_speedup, MoveScope scope,
                                       double margin) const {
  const std::string& type = machines_[home].description.topo.name;
  const int threads = resident.placement.TotalThreads();
  const bool anywhere = scope == MoveScope::kAnyMachine;
  return ScanMachines(
      resident.name, anywhere ? 0 : home,
      anywhere ? static_cast<int>(machines_.size()) : home + 1, Policy::kBestSpeedup,
      current_speedup * (1.0 + margin),
      [&](int machine_index, double must_beat) -> std::optional<Candidate> {
        if (machines_[machine_index].description.topo.name != type) {
          return std::nullopt;
        }
        return ProbeMachine(machine_index, resident.description, threads,
                            Policy::kBestSpeedup,
                            machine_index == home ? &resident.name : nullptr, must_beat);
      });
}

std::optional<Assignment> Rack::ChooseMove(const std::string& job, MoveScope scope,
                                           double margin) const {
  for (size_t m = 0; m < residents_.size(); ++m) {
    for (size_t i = 0; i < residents_[m].size(); ++i) {
      if (residents_[m][i].name == job) {
        const int home = static_cast<int>(m);
        return MoveOf(residents_[m][i], home, PredictMachine(home)[i].speedup, scope,
                      margin);
      }
    }
  }
  return std::nullopt;
}

std::optional<Assignment> Rack::ChooseRebalanceMove(double margin) const {
  struct Ranked {
    const RackJob* job;
    int machine_index;
    double speedup;
  };
  std::vector<Ranked> ranked;
  for (size_t m = 0; m < residents_.size(); ++m) {
    const std::vector<Prediction> predictions = PredictMachine(static_cast<int>(m));
    for (size_t i = 0; i < residents_[m].size(); ++i) {
      ranked.push_back(
          Ranked{&residents_[m][i], static_cast<int>(m), predictions[i].speedup});
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    return a.speedup != b.speedup ? a.speedup < b.speedup : a.job->name < b.job->name;
  });
  for (const Ranked& entry : ranked) {
    std::optional<Assignment> move = MoveOf(
        *entry.job, entry.machine_index, entry.speedup, MoveScope::kAnyMachine, margin);
    if (move.has_value()) {
      return move;
    }
  }
  return std::nullopt;
}

StatusOr<Assignment> Rack::Admit(const JobRequest& job, Policy policy) {
  StatusOr<Assignment> chosen = Choose(job, policy);
  if (!chosen.ok()) {
    return chosen;
  }
  const int machine = chosen->machine_index;
  const std::string& type = machines_[machine].description.topo.name;
  PANDIA_RETURN_IF_ERROR(AdmitAt(job.name, machine, job.descriptions.at(type),
                                 *chosen->placement, chosen->predicted_speedup));
  return chosen;
}

std::vector<Assignment> Rack::Schedule(std::span<const JobRequest> jobs, Policy policy) {
  std::vector<Assignment> assignments;
  assignments.reserve(jobs.size());
  for (const JobRequest& job : jobs) {
    // Batch streams may repeat names (several instances of one workload);
    // resident names must be unique, so uniquify internally.
    JobRequest request = job;
    for (int suffix = 2; Has(request.name); ++suffix) {
      request.name = StrFormat("%s#%d", job.name.c_str(), suffix);
    }
    StatusOr<Assignment> admitted = Admit(request, policy);
    Assignment assignment = admitted.ok() ? *std::move(admitted) : Assignment{};
    assignment.job = job.name;
    assignments.push_back(std::move(assignment));
  }
  return assignments;
}

Status Rack::ValidatePlacementFits(int machine_index, const Placement& placement,
                                   const std::vector<uint8_t>& free) const {
  const MachineTopology& topo = machines_[machine_index].description.topo;
  const std::vector<uint8_t>& per_core = placement.PerCore();
  if (static_cast<int>(per_core.size()) != topo.NumCores()) {
    return Status::InvalidArgument(
        StrFormat("placement covers %zu cores but machine '%s' has %d",
                  per_core.size(), machines_[machine_index].name.c_str(),
                  topo.NumCores()));
  }
  if (placement.TotalThreads() == 0) {
    return Status::InvalidArgument("placement has no threads");
  }
  for (size_t c = 0; c < per_core.size(); ++c) {
    if (per_core[c] > free[c]) {
      return Status::FailedPrecondition(StrFormat(
          "placement needs %d threads on core %zu of machine '%s' but only %d free",
          static_cast<int>(per_core[c]), c, machines_[machine_index].name.c_str(),
          static_cast<int>(free[c])));
    }
  }
  return Status::Ok();
}

Status Rack::AdmitAt(const std::string& name, int machine_index,
                     const WorkloadDescription& description,
                     const Placement& placement,
                     std::optional<double> speedup_at_admit) {
  if (name.empty()) {
    return Status::InvalidArgument("job name must be non-empty");
  }
  if (machine_index < 0 || static_cast<size_t>(machine_index) >= machines_.size()) {
    return Status::InvalidArgument(
        StrFormat("machine index %d out of range [0, %zu)", machine_index,
                  machines_.size()));
  }
  if (Has(name)) {
    return Status::FailedPrecondition(
        StrFormat("a job named '%s' is already resident", name.c_str()));
  }
  PANDIA_RETURN_IF_ERROR(description.Validate());
  PANDIA_RETURN_IF_ERROR(
      ValidatePlacementFits(machine_index, placement, FreeThreads(machine_index)));
  RackJob& resident = residents_[machine_index].emplace_back(
      RackJob{name, description, placement, WorkloadFingerprint(description)});
  resident.admit_seq = ++mutation_seq_;
  resident.machine_events_at_placement = ++machine_events_[machine_index];
  // Without the decision's score (replay), run the same joint solve Choose
  // scored the candidate with (residents in order, this job last), so the
  // admit-time baseline survives a restart byte for byte.
  resident.speedup_at_admit = speedup_at_admit.has_value()
                                  ? *speedup_at_admit
                                  : PredictMachine(machine_index).back().speedup;
  AdmissionsCounter().Increment();
  return Status::Ok();
}

StatusOr<int> Rack::Depart(const std::string& job) {
  StatusOr<int> found = MachineOf(job);
  if (!found.ok()) {
    return found.status();
  }
  const int machine_index = *found;
  auto& residents = residents_[machine_index];
  std::erase_if(residents, [&](const RackJob& r) { return r.name == job; });
  ++mutation_seq_;
  ++machine_events_[machine_index];
  DeparturesCounter().Increment();
  return machine_index;
}

Status Rack::Move(const std::string& job, int machine_index,
                  const Placement& placement) {
  StatusOr<int> found = MachineOf(job);
  if (!found.ok()) {
    return found.status();
  }
  const int from = *found;
  if (machine_index < 0 || static_cast<size_t>(machine_index) >= machines_.size()) {
    return Status::InvalidArgument(
        StrFormat("machine index %d out of range [0, %zu)", machine_index,
                  machines_.size()));
  }
  // Validate against free threads with the job itself excluded, so a move
  // within one machine can reuse its own slots.
  const std::string* exclude = from == machine_index ? &job : nullptr;
  PANDIA_RETURN_IF_ERROR(ValidatePlacementFits(
      machine_index, placement, FreeThreads(machine_index, exclude)));

  auto& source = residents_[from];
  const auto it = std::find_if(source.begin(), source.end(),
                               [&](const RackJob& r) { return r.name == job; });
  RackJob moved = std::move(*it);
  source.erase(it);
  moved.placement = placement;
  ++mutation_seq_;
  ++machine_events_[from];
  if (machine_index != from) {
    ++machine_events_[machine_index];
  }
  ++moved.moves;
  // Re-baseline the co-runner delta: the job starts observing its new
  // machine from this moment.
  moved.machine_events_at_placement = machine_events_[machine_index];
  residents_[machine_index].push_back(std::move(moved));
  MovesCounter().Increment();
  return Status::Ok();
}

Rack::TelemetrySnapshot Rack::Telemetry() const {
  TelemetrySnapshot snapshot;
  snapshot.mutation_seq = mutation_seq_;
  for (size_t m = 0; m < residents_.size(); ++m) {
    if (residents_[m].empty()) {
      continue;
    }
    const std::vector<Prediction> joint = PredictMachine(static_cast<int>(m));
    for (size_t i = 0; i < residents_[m].size(); ++i) {
      const RackJob& resident = residents_[m][i];
      JobTelemetry job;
      job.name = resident.name;
      job.machine_index = static_cast<int>(m);
      job.machine = machines_[m].name;
      job.threads = resident.placement.TotalThreads();
      job.speedup_at_admit = resident.speedup_at_admit;
      job.slowdown_at_admit = resident.speedup_at_admit > 0.0
                                  ? 1.0 / resident.speedup_at_admit
                                  : 0.0;
      job.current_speedup = i < joint.size() ? joint[i].speedup : 0.0;
      job.admit_seq = resident.admit_seq;
      job.moves = resident.moves;
      job.co_events = machine_events_[m] - resident.machine_events_at_placement;
      snapshot.jobs.push_back(std::move(job));
    }
  }
  return snapshot;
}

void Rack::Reset() {
  for (auto& residents : residents_) {
    residents.clear();
  }
  mutation_seq_ = 0;
  std::fill(machine_events_.begin(), machine_events_.end(), 0);
}

Rack::SavedState Rack::SaveState() const {
  SavedState state;
  state.mutation_seq = mutation_seq_;
  state.machine_events = machine_events_;
  for (size_t m = 0; m < residents_.size(); ++m) {
    for (const RackJob& resident : residents_[m]) {
      state.jobs.push_back(SavedJob{static_cast<int>(m), resident});
    }
  }
  return state;
}

Status Rack::RestoreState(const SavedState& state) {
  if (state.machine_events.size() != machines_.size()) {
    return Status::InvalidArgument(
        StrFormat("saved state has %zu machine-event counters for %zu machines",
                  state.machine_events.size(), machines_.size()));
  }
  // Validate everything into a staging copy first: a bad snapshot must not
  // leave the rack half-restored.
  std::vector<std::vector<RackJob>> staged(machines_.size());
  std::vector<std::vector<uint8_t>> free(machines_.size());
  for (size_t m = 0; m < machines_.size(); ++m) {
    const MachineTopology& topo = machines_[m].description.topo;
    free[m].assign(static_cast<size_t>(topo.NumCores()),
                   static_cast<uint8_t>(topo.threads_per_core));
  }
  for (const SavedJob& saved : state.jobs) {
    if (saved.machine_index < 0 ||
        static_cast<size_t>(saved.machine_index) >= machines_.size()) {
      return Status::InvalidArgument(
          StrFormat("saved job '%s' names machine %d of %zu",
                    saved.job.name.c_str(), saved.machine_index,
                    machines_.size()));
    }
    if (saved.job.name.empty()) {
      return Status::InvalidArgument("saved job has an empty name");
    }
    for (const auto& residents : staged) {
      for (const RackJob& other : residents) {
        if (other.name == saved.job.name) {
          return Status::InvalidArgument(StrFormat(
              "saved state names job '%s' twice", saved.job.name.c_str()));
        }
      }
    }
    PANDIA_RETURN_IF_ERROR(saved.job.description.Validate());
    const size_t m = static_cast<size_t>(saved.machine_index);
    PANDIA_RETURN_IF_ERROR(
        ValidatePlacementFits(saved.machine_index, saved.job.placement, free[m]));
    const std::vector<uint8_t>& per_core = saved.job.placement.PerCore();
    for (size_t c = 0; c < per_core.size(); ++c) {
      free[m][c] = static_cast<uint8_t>(free[m][c] - per_core[c]);
    }
    RackJob job = saved.job;
    job.workload_fingerprint = WorkloadFingerprint(job.description);
    staged[m].push_back(std::move(job));
  }
  residents_ = std::move(staged);
  mutation_seq_ = state.mutation_seq;
  machine_events_ = state.machine_events;
  return Status::Ok();
}

}  // namespace rack
}  // namespace pandia
