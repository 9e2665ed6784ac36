// pandia-serve: the long-running placement service daemon (paper §8 — rack
// scheduling as an online service).
//
//   pandia_serve --machine NAME=SPEC [--machine NAME=SPEC ...] [flags]
//
// Each --machine adds one rack machine: NAME is the instance name ("node0")
// and SPEC is either a stored machine-description file or the name of a
// simulated machine (x5-2, x4-2, x3-2, x2-4 — the description is then
// generated from stress runs). Machines of different types can share one
// rack; jobs are placed only on types they carry a description for.
//
// Requests arrive as wire-v1 lines (src/serialize/wire.h) on stdin and/or
// on a Unix-domain socket; every request gets a structured response block
// and no request ever aborts the daemon. The daemon exits on stdin EOF or
// an acknowledged SHUTDOWN request.
//
// Flags:
//   --machine NAME=SPEC  add a rack machine (repeatable, at least one)
//   --policy=P           default admission policy: first-fit, best-speedup
//                        (default), least-interference
//   --journal=FILE       durable checksummed mutation journal; recovered and
//                        replayed on startup when the file exists (restart
//                        recovery, including torn-tail truncation)
//   --sync=P             journal fsync policy: none, interval (default:
//                        fsync every --sync-interval records), every-record
//   --sync-interval=N    records per fsync under --sync=interval (default 32)
//   --compact-min-records=N  automatic-compaction floor: never snapshot
//                        before N records accumulated past the last one
//   --replace-margin=X   relative speedup margin before DEPART/REBALANCE
//                        re-places a neighbour (default 0.02). The searches
//                        skip every candidate placement whose speedup
//                        ceiling (its Amdahl speedup) cannot clear the
//                        margin, so a larger margin also means fewer solves
//   --shards=N           shard the machines across N placement shards,
//                        each with its own journal (<journal>.shard<k>)
//                        and telemetry (default 1: one rack, journaled at
//                        <journal> itself)
//   --shard-policy=P     fleet admission routing: consistent-hash (default)
//                        or least-loaded
//   --socket=PATH        also listen on a Unix-domain socket at PATH
//   --jobs=N, --trace-out=FILE, --metrics  (tools/tool_common.h; the
//                        observability tables go to stderr — stdout carries
//                        response blocks)
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/pandia.h"
#include "tools/tool_common.h"

namespace {

using namespace pandia;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --machine NAME=SPEC [--machine NAME=SPEC ...] "
               "[--policy=P] [--journal=FILE] [--sync=none|interval|every-record] "
               "[--sync-interval=N] [--compact-min-records=N] "
               "[--replace-margin=X] [--shards=N] "
               "[--shard-policy=consistent-hash|least-loaded] [--socket=PATH] "
               "[--jobs=N] [--trace-out=FILE] [--metrics] [--metrics-out=FILE]\n"
               "  SPEC: a machine-description file or a simulated machine "
               "(x5-2, x4-2, x3-2, x2-4)\n",
               argv0);
  return 2;
}

// NAME=SPEC -> RackMachine, loading or generating the description.
StatusOr<rack::RackMachine> LoadMachine(const std::string& spec) {
  const size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 == spec.size()) {
    return Status::InvalidArgument(
        StrFormat("--machine needs NAME=SPEC, got '%s'", spec.c_str()));
  }
  rack::RackMachine machine;
  machine.name = spec.substr(0, eq);
  const std::string source = spec.substr(eq + 1);
  if (const StatusOr<std::string> text = ReadTextFile(source); text.ok()) {
    StatusOr<MachineDescription> parsed = MachineDescriptionFromText(*text);
    if (!parsed.ok()) {
      return Status(parsed.status().code(),
                    source + ": " + std::string(parsed.status().message()));
    }
    machine.description = std::move(*parsed);
    return machine;
  }
  const std::vector<std::string> known = sim::KnownMachineNames();
  if (std::find(known.begin(), known.end(), source) == known.end()) {
    return Status::InvalidArgument(StrFormat(
        "'%s' is neither a readable machine description nor a known machine "
        "(x5-2, x4-2, x3-2, x2-4)",
        source.c_str()));
  }
  machine.description =
      GenerateMachineDescription(sim::Machine{sim::MachineByName(source)});
  return machine;
}

}  // namespace

int main(int argc, char** argv) {
  // A client (or the shell pipeline reading stdout) that vanishes must cost
  // one failed write, never the daemon.
  std::signal(SIGPIPE, SIG_IGN);
  tools::CommonFlags common;
  std::vector<rack::RackMachine> machines;
  serve::ServiceOptions options;
  std::string socket_path;
  int shards = 1;
  rack::ShardPolicy shard_policy = rack::ShardPolicy::kConsistentHash;
  for (int i = 1; i < argc; ++i) {
    const tools::FlagParse parsed = common.Match(argv[i]);
    if (parsed == tools::FlagParse::kError) {
      return 2;
    }
    if (parsed == tools::FlagParse::kOk) {
      continue;
    }
    if (std::strcmp(argv[i], "--machine") == 0 && i + 1 < argc) {
      StatusOr<rack::RackMachine> machine = LoadMachine(argv[++i]);
      if (!machine.ok()) {
        return tools::FailWith(machine.status());
      }
      machines.push_back(std::move(*machine));
    } else if (std::strncmp(argv[i], "--machine=", 10) == 0) {
      StatusOr<rack::RackMachine> machine = LoadMachine(argv[i] + 10);
      if (!machine.ok()) {
        return tools::FailWith(machine.status());
      }
      machines.push_back(std::move(*machine));
    } else if (std::strncmp(argv[i], "--policy=", 9) == 0) {
      const StatusOr<rack::Policy> policy = rack::PolicyFromName(argv[i] + 9);
      if (!policy.ok()) {
        return tools::FailWith(policy.status());
      }
      options.default_policy = *policy;
    } else if (std::strncmp(argv[i], "--journal=", 10) == 0) {
      options.journal_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--sync=", 7) == 0) {
      const StatusOr<serve::SyncPolicy> policy =
          serve::SyncPolicyFromName(argv[i] + 7);
      if (!policy.ok()) {
        return tools::FailWith(policy.status());
      }
      options.journal.sync = *policy;
    } else if (std::strncmp(argv[i], "--sync-interval=", 16) == 0) {
      const StatusOr<int> value =
          tools::ParseIntFlag(argv[i] + 16, "--sync-interval");
      if (!value.ok() || *value < 1) {
        std::fprintf(stderr, "error: --sync-interval needs a positive integer\n");
        return 2;
      }
      options.journal.sync_interval_records = *value;
    } else if (std::strncmp(argv[i], "--compact-min-records=", 22) == 0) {
      const StatusOr<int> value =
          tools::ParseIntFlag(argv[i] + 22, "--compact-min-records");
      if (!value.ok() || *value < 1) {
        std::fprintf(stderr,
                     "error: --compact-min-records needs a positive integer\n");
        return 2;
      }
      options.compact_min_records = static_cast<uint64_t>(*value);
    } else if (std::strncmp(argv[i], "--replace-margin=", 17) == 0) {
      char* end = nullptr;
      const double margin = std::strtod(argv[i] + 17, &end);
      if (end == argv[i] + 17 || *end != '\0' || margin < 0.0) {
        std::fprintf(stderr,
                     "error: --replace-margin needs a non-negative number\n");
        return 2;
      }
      options.replace_margin = margin;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      const StatusOr<int> value = tools::ParseIntFlag(argv[i] + 9, "--shards");
      if (!value.ok() || *value < 1) {
        std::fprintf(stderr, "error: --shards needs a positive integer\n");
        return 2;
      }
      shards = *value;
    } else if (std::strncmp(argv[i], "--shard-policy=", 15) == 0) {
      const StatusOr<rack::ShardPolicy> policy =
          rack::ShardPolicyFromName(argv[i] + 15);
      if (!policy.ok()) {
        return tools::FailWith(policy.status());
      }
      shard_policy = *policy;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socket_path = argv[i] + 9;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s'\n", argv[i]);
      return Usage(argv[0]);
    }
  }
  if (machines.empty()) {
    std::fprintf(stderr, "error: at least one --machine is required\n");
    return Usage(argv[0]);
  }
  common.ActivateTracing();
  common.Apply(options.prediction.common);

  const size_t machine_count = machines.size();
  serve::FleetOptions fleet_options;
  fleet_options.shards = shards;
  fleet_options.shard_policy = shard_policy;
  fleet_options.service = std::move(options);
  StatusOr<std::unique_ptr<serve::FleetService>> fleet =
      serve::FleetService::Create(std::move(machines), std::move(fleet_options));
  if (!fleet.ok()) {
    return tools::FailWith(fleet.status());
  }
  serve::FleetService& service = **fleet;
  int replayed = 0;
  for (int k = 0; k < service.num_shards(); ++k) {
    replayed += service.shard(k).rack().JobCount();
  }
  std::fprintf(stderr,
               "pandia_serve: %zu machine(s), %d shard(s), %d job(s) "
               "replayed%s%s\n",
               machine_count, shards, replayed,
               socket_path.empty() ? "" : ", listening on ",
               socket_path.c_str());

  Status served = Status::Ok();
  if (socket_path.empty()) {
    served = serve::RunEventLoop(service, /*stdin_fd=*/0, stdout, nullptr);
  } else {
    StatusOr<serve::SocketServer> server = serve::SocketServer::Listen(socket_path);
    if (!server.ok()) {
      return tools::FailWith(server.status());
    }
    served = serve::RunEventLoop(service, /*stdin_fd=*/0, stdout, &*server);
  }
  if (!served.ok()) {
    return tools::FailWith(served);
  }
  return common.Finish(stderr);
}
