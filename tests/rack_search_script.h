// A scripted serving session that drives every rack search path of the
// placement service on a 4-machine rack of three machine types:
//
//   1. ADMITs under all three policies at 1-8 threads until more than 80% of
//      the rack's hardware threads are taken;
//   2. DEPARTs of every third job, whose neighbour re-placement emits
//      `moved =` rows;
//   3. REBALANCE max-migrations=3, then TELEMETRY and STATUS.
//
// RunRackSearchScript returns the transcript: each request (ADMITs by name,
// threads, policy and workload instead of their description text) followed
// by the exact response block. Everything is deterministic, so the
// transcript is a byte-level fingerprint of the rack search's decisions.
// The script runs against a PlacementService, or against any service with
// a HandleLine whose rack it is given (the daemon's 1-shard front door).
#ifndef PANDIA_TESTS_RACK_SEARCH_SCRIPT_H_
#define PANDIA_TESTS_RACK_SEARCH_SCRIPT_H_

#include <map>
#include <string>
#include <vector>

#include "src/eval/pipeline.h"
#include "src/rack/rack.h"
#include "src/serialize/serialize.h"
#include "src/serialize/wire.h"
#include "src/serve/service.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/workloads/workloads.h"

namespace pandia {
namespace serve {
namespace rack_search_script {

inline const std::vector<std::string>& MachineTypes() {
  static const std::vector<std::string> types = {"x3-2", "x4-2", "x2-4"};
  return types;
}

// The workloads the script admits.
inline const std::vector<std::string>& Suite() {
  static const std::vector<std::string> suite = {"EP", "CG", "MD", "Swim", "BT", "IS"};
  return suite;
}

inline const eval::Pipeline& PipelineFor(const std::string& type) {
  static std::map<std::string, const eval::Pipeline*>* pipelines =
      new std::map<std::string, const eval::Pipeline*>();
  auto it = pipelines->find(type);
  if (it == pipelines->end()) {
    it = pipelines->emplace(type, new eval::Pipeline(type)).first;
  }
  return *it->second;
}

// Description text of `workload` profiled on `type`, memoized.
inline const std::string& DescriptionText(const std::string& type,
                                          const std::string& workload) {
  static std::map<std::string, std::string>* texts =
      new std::map<std::string, std::string>();
  const std::string key = type + "/" + workload;
  auto it = texts->find(key);
  if (it == texts->end()) {
    it = texts
             ->emplace(key, WorkloadDescriptionToText(PipelineFor(type).Profile(
                                workloads::ByName(workload))))
             .first;
  }
  return it->second;
}

inline std::vector<rack::RackMachine> Machines() {
  return {{"node0", PipelineFor("x3-2").description()},
          {"node1", PipelineFor("x4-2").description()},
          {"node2", PipelineFor("x2-4").description()},
          {"node3", PipelineFor("x3-2").description()}};
}

template <typename Service>
std::string RunRackSearchScript(Service& service, const rack::Rack& rack) {
  const std::vector<std::string>& suite = Suite();
  const std::vector<rack::Policy> policies = {rack::Policy::kBestSpeedup,
                                              rack::Policy::kLeastInterference,
                                              rack::Policy::kFirstFit};
  std::string transcript;
  const auto record = [&](const std::string& label, const std::string& line) {
    transcript += "> " + label + "\n" + service.HandleLine(line);
  };

  int capacity = 0;
  for (size_t m = 0; m < rack.machines().size(); ++m) {
    const MachineTopology& topo = rack.machines()[m].description.topo;
    capacity += topo.NumCores() * topo.threads_per_core;
  }
  const auto used = [&] {
    int free = 0;
    for (size_t m = 0; m < rack.machines().size(); ++m) {
      free += rack.FreeThreadCount(static_cast<int>(m));
    }
    return capacity - free;
  };

  Rng rng(20171015);
  std::vector<std::string> admitted;
  for (int i = 0; i < 80 && used() * 5 <= capacity * 4; ++i) {
    const std::string name = StrFormat("j%02d", i);
    const std::string& workload = suite[rng.NextU64() % suite.size()];
    const int threads = 1 + static_cast<int>(rng.NextU64() % 8);
    const rack::Policy policy = policies[static_cast<size_t>(i) % policies.size()];
    wire::Request admit;
    admit.verb = "ADMIT";
    admit.params.emplace_back("name", name);
    admit.params.emplace_back("threads", StrFormat("%d", threads));
    admit.params.emplace_back("policy", rack::PolicyName(policy));
    for (const std::string& type : MachineTypes()) {
      admit.params.emplace_back("desc." + type, DescriptionText(type, workload));
    }
    record(StrFormat("ADMIT name=%s threads=%d policy=%s workload=%s", name.c_str(),
                     threads, rack::PolicyName(policy).c_str(), workload.c_str()),
           wire::FormatRequest(admit));
    admitted.push_back(name);
  }
  for (size_t i = 0; i < admitted.size(); i += 3) {
    const std::string line = "DEPART name=" + admitted[i];
    record(line, line);
  }
  for (const std::string line :
       {"REBALANCE max-migrations=3", "TELEMETRY", "STATUS"}) {
    record(line, line);
  }
  return transcript;
}

inline std::string RunRackSearchScript(PlacementService& service) {
  return RunRackSearchScript(service, service.rack());
}

}  // namespace rack_search_script
}  // namespace serve
}  // namespace pandia

#endif  // PANDIA_TESTS_RACK_SEARCH_SCRIPT_H_
