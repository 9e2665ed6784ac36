// Extension experiment (paper §8 future work): rack-scale scheduling of a
// job stream over multiple machines. Three assignment policies are
// compared by predicted and simulator-validated aggregate speedup; the
// validation runs every assigned job on its machine with its co-residents
// executing continuously in the background.
#include <map>

#include "bench/common.h"

#include "src/rack/rack.h"

namespace {

using namespace pandia;

// Measured speedup (t1 / co-run time) of one assigned job, with its
// co-residents running in the background. Jobs on one machine occupy
// disjoint cores, so placements identify residents.
double MeasureAssignment(const std::map<std::string, const eval::Pipeline*>& pipelines,
                         const rack::Rack& rack,
                         const rack::Assignment& assignment,
                         const std::string& workload_name,
                         const rack::JobRequest& job) {
  const rack::RackMachine& machine = rack.machines()[assignment.machine_index];
  const std::string& type = machine.description.topo.name;
  const eval::Pipeline& pipeline = *pipelines.at(type);
  const sim::WorkloadSpec spec = workloads::ByName(workload_name);
  std::vector<sim::WorkloadSpec> co_specs;
  std::vector<sim::JobRequest> jobs{{&spec, *assignment.placement, false}};
  const auto& residents = rack.JobsOn(assignment.machine_index);
  co_specs.reserve(residents.size());
  for (const auto& resident : residents) {
    if (resident.placement == *assignment.placement) {
      continue;  // the job itself
    }
    co_specs.push_back(workloads::ByName(resident.description.workload));
  }
  size_t spec_index = 0;
  for (const auto& resident : residents) {
    if (resident.placement == *assignment.placement) {
      continue;
    }
    jobs.push_back(sim::JobRequest{&co_specs[spec_index++], resident.placement,
                                   /*background=*/true});
  }
  const double time = pipeline.machine().Run(jobs).jobs[0].completion_time;
  return job.descriptions.at(type).t1 / time;
}

}  // namespace

int main() {
  using namespace pandia;
  std::printf("=== Extension: rack-scale scheduling (2x X3-2 + 1x X5-2) ===\n\n");
  const eval::Pipeline x3("x3-2");
  const eval::Pipeline x5("x5-2");
  const std::map<std::string, const eval::Pipeline*> pipelines{{"x3-2", &x3},
                                                               {"x5-2", &x5}};

  // The incoming job stream: a mix of compute, bandwidth, and join jobs.
  struct Incoming {
    const char* workload;
    int threads;
  };
  const Incoming stream[] = {{"Swim", 16}, {"EP", 16},    {"CG", 8},  {"MD", 24},
                             {"NPO", 8},   {"Bwaves", 8}, {"IS", 8},  {"Apsi", 8}};
  std::vector<rack::JobRequest> jobs;
  for (const Incoming& incoming : stream) {
    rack::JobRequest job;
    job.name = incoming.workload;
    job.requested_threads = incoming.threads;
    job.descriptions.emplace("x3-2", x3.Profile(workloads::ByName(incoming.workload)));
    job.descriptions.emplace("x5-2", x5.Profile(workloads::ByName(incoming.workload)));
    jobs.push_back(std::move(job));
  }

  Table table({"policy", "placed", "predicted speedup (sum)", "measured speedup (sum)"});
  for (const rack::Policy policy :
       {rack::Policy::kFirstFit, rack::Policy::kBestSpeedup,
        rack::Policy::kLeastInterference}) {
    rack::Rack rack({{"node0", x3.description()},
                     {"node1", x3.description()},
                     {"node2", x5.description()}});
    const std::vector<rack::Assignment> assignments = rack.Schedule(jobs, policy);
    int placed = 0;
    double predicted = 0.0;
    double measured = 0.0;
    for (size_t i = 0; i < assignments.size(); ++i) {
      if (assignments[i].machine_index < 0) {
        continue;
      }
      ++placed;
      predicted += assignments[i].predicted_speedup;
      measured +=
          MeasureAssignment(pipelines, rack, assignments[i], jobs[i].name, jobs[i]);
    }
    table.AddRow({rack::PolicyName(policy), StrFormat("%d/%zu", placed, jobs.size()),
                  StrFormat("%.1f", predicted), StrFormat("%.1f", measured)});
  }
  table.Print();
  std::printf("\ninterference-aware policies should place every job and beat "
              "first-fit on aggregate speedup; the measured column validates the "
              "decisions against simulated co-runs.\n");
  return 0;
}
