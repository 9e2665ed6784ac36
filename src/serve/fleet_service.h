// The daemon's one request front door: N placement shards behind one wire
// endpoint.
//
// FleetService owns N independent shards — each a PlacementService with its
// own rack, journal, and flight recorder — and everything about a request
// that is not one rack's: parsing and parse errors, HELLO, METRICS, the
// shutdown flag, the per-verb `serve.<verb>.*` instruments and the failure
// log (each counted once per client request), and the `serve.jobs` /
// `serve.free_threads` gauges (sums over shards). It routes every other
// verb:
//
//   ADMIT      routed by the admission policy (rack::Fleet): consistent
//              hashing on the job name, or least-loaded. If the chosen
//              shard cannot place the job (full, or no matching machine
//              type), the next shard in the deterministic preference order
//              is tried; the response gains a `shard =` row naming the
//              shard that admitted.
//   DEPART     routed to the shard where the job is resident
//   REBALANCE  fanned out to every shard (migrations stay within a shard —
//              cross-shard migration would need to move journal ownership)
//   COMPACT    fanned out to every shard
//   STATUS     fleet header rows, then every shard's payload under a
//   TELEMETRY  `shard = k` delimiter row, shards in index order — the
//   RECORDER   aggregate is deterministic, so replaying every shard's
//              journal reproduces it byte for byte. A fanned-out request
//              answers ok when any shard succeeded, with a
//              `warning = shard k: <error>` row under each shard that
//              failed; it fails only when every shard failed.
//   SHUTDOWN   every shard syncs its journal; one acknowledgement
//
// A fleet of one shard adds nothing of its own: every shard verb goes
// straight to the shard, there are no `shard =`, `shards =` or
// `shard-policy =` rows and no `fleet` capability, and the shard journals
// to the configured path itself, so a 1-shard daemon answers and journals
// exactly as a single rack does.
//
// Determinism: routing reads only shard state (free threads, job counts,
// residency) that journal replay reconstructs exactly, and rack::Fleet
// breaks every tie deterministically — so a fleet rebuilt from its shards'
// journals routes, reports, and admits identically to the original.
//
// Thread safety: the fleet mutex is the only serving lock. It serializes
// every request end to end, so cross-shard decisions (duplicate-name
// checks, load snapshots, routing) are atomic with the forwarded mutation,
// and it guards the shards, which are externally synchronized.
#ifndef PANDIA_SRC_SERVE_FLEET_SERVICE_H_
#define PANDIA_SRC_SERVE_FLEET_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/rack/fleet.h"
#include "src/rack/rack.h"
#include "src/serialize/wire.h"
#include "src/serve/service.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace pandia {
namespace serve {

struct FleetOptions {
  // Number of placement shards; machines are dealt round-robin (machine i
  // goes to shard i % shards), so heterogeneous machine lists spread types
  // across shards.
  int shards = 2;
  // Admission routing policy (see rack::Fleet).
  rack::ShardPolicy shard_policy = rack::ShardPolicy::kConsistentHash;
  // Per-shard service options. With more than one shard,
  // `service.journal_path` is a base path: shard k journals to
  // "<base>.shard<k>". Empty disables journaling fleet-wide.
  ServiceOptions service;
};

class FleetService {
 public:
  // Builds every shard (replaying per-shard journals when present). Fails
  // on shards < 1, machines.size() < shards, or any shard's journal error.
  static StatusOr<std::unique_ptr<FleetService>> Create(
      std::vector<rack::RackMachine> machines, FleetOptions options);

  FleetService(const FleetService&) = delete;
  FleetService& operator=(const FleetService&) = delete;

  // Processes one request line end to end; the returned text is the
  // complete response block (newline-terminated lines ending with ".\n").
  // Never aborts. Safe to call concurrently: requests are serialized on the
  // fleet mutex.
  [[nodiscard]] std::string HandleLine(const std::string& line)
      PANDIA_EXCLUDES(mu_);

  // Structured form for in-process callers.
  [[nodiscard]] wire::Response Handle(const wire::Request& request)
      PANDIA_EXCLUDES(mu_);

  // True once a SHUTDOWN request was acknowledged; serving loops exit.
  bool shutdown_requested() const PANDIA_EXCLUDES(mu_);

  int num_shards() const { return fleet_.num_shards(); }

  // Quiescent inspection only (tests, start-up reporting): no concurrent
  // Handle/HandleLine while the reference is used.
  PlacementService& shard(int index) PANDIA_NO_THREAD_SAFETY_ANALYSIS {
    return shards_[static_cast<size_t>(index)];
  }

 private:
  FleetService(std::vector<PlacementService> shards,
               rack::ShardPolicy shard_policy);

  wire::Response Dispatch(const wire::Request& request) PANDIA_REQUIRES(mu_);
  // The `shards =` and `shard-policy =` rows HELLO and STATUS carry.
  void AppendFleetRows(std::vector<std::string>& payload) const;
  wire::Response HandleHello(const wire::Request& request) const;
  wire::Response HandleMetrics(const wire::Request& request) const;
  wire::Response RouteAdmit(const wire::Request& request) PANDIA_REQUIRES(mu_);
  wire::Response RouteDepart(const wire::Request& request) PANDIA_REQUIRES(mu_);
  // STATUS / TELEMETRY / RECORDER / REBALANCE / COMPACT: every shard in
  // index order, shard payloads under `shard = k` delimiter rows.
  wire::Response FanOut(const wire::Request& request) PANDIA_REQUIRES(mu_);

  // Per-shard load snapshot for least-loaded routing.
  std::vector<rack::ShardLoad> ShardLoads() const PANDIA_REQUIRES(mu_);

  const rack::Fleet fleet_;
  // Serializes every request: routing reads of shard state must be atomic
  // with the forwarded mutation.
  mutable util::Mutex mu_{"serve.fleet", util::kLockRankServeFleet};
  std::vector<PlacementService> shards_ PANDIA_GUARDED_BY(mu_);
  bool shutdown_ PANDIA_GUARDED_BY(mu_) = false;
};

}  // namespace serve
}  // namespace pandia

#endif  // PANDIA_SRC_SERVE_FLEET_SERVICE_H_
