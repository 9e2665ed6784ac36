#include "tests/reference_solver.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/obs/prediction_trace.h"
#include "src/topology/memory_policy.h"
#include "src/topology/resource_index.h"
#include "src/util/check.h"

namespace pandia {
namespace {

// Per-thread static state assembled from the requests.
struct ModelThread {
  int job = 0;
  ThreadLocation location;
  std::vector<std::pair<int, double>> demand;  // (resource, rate per utilization)
  int remote_peers = 0;                        // same-job peers on other sockets
};

struct ModelJob {
  const WorkloadDescription* workload = nullptr;
  int first_thread = 0;
  int num_threads = 0;
  double amdahl = 1.0;
  double f_initial = 1.0;
  double os = 0.0;
  double l = 1.0;
  double b = 0.0;
};

}  // namespace

CoSchedulePrediction ReferenceCoSchedulePredict(
    const MachineDescription& machine, const PredictionOptions& options,
    std::span<const CoScheduleRequest> requests) {
  PANDIA_CHECK(!requests.empty());
  obs::PredictionTrace* trace = options.trace;
  if (trace != nullptr) {
    trace->Clear();
  }
  const MachineTopology& topo = machine.topo;
  const ResourceIndex index(topo);

  // --- Assemble jobs and threads ---
  std::vector<ModelJob> jobs;
  std::vector<ModelThread> threads;
  std::vector<uint8_t> combined_per_core(static_cast<size_t>(topo.NumCores()), 0);
  for (const CoScheduleRequest& request : requests) {
    PANDIA_CHECK(request.workload != nullptr);
    PANDIA_CHECK(request.workload->t1 > 0.0);
    const MachineTopology& placement_topo = request.placement.topology();
    PANDIA_CHECK_MSG(placement_topo.num_sockets == topo.num_sockets &&
                         placement_topo.cores_per_socket == topo.cores_per_socket &&
                         placement_topo.threads_per_core == topo.threads_per_core,
                     "placement topology does not match machine description");
    for (int c = 0; c < topo.NumCores(); ++c) {
      combined_per_core[c] =
          static_cast<uint8_t>(combined_per_core[c] + request.placement.ThreadsOnCore(c));
    }
  }
  for (const CoScheduleRequest& request : requests) {
    const WorkloadDescription& workload = *request.workload;
    ModelJob job;
    job.workload = &workload;
    job.first_thread = static_cast<int>(threads.size());
    job.num_threads = request.placement.TotalThreads();
    const double p = workload.parallel_fraction;
    PANDIA_CHECK(p >= 0.0 && p <= 1.0);
    job.amdahl = 1.0 / ((1.0 - p) + p / job.num_threads);
    job.f_initial = job.amdahl / job.num_threads;
    job.os = options.model_communication ? workload.inter_socket_overhead : 0.0;
    job.l = options.model_load_balance ? workload.load_balance : 1.0;
    PANDIA_CHECK(job.l >= 0.0 && job.l <= 1.0);
    job.b = options.model_burstiness ? workload.burstiness : 0.0;

    const std::vector<ThreadLocation> locations = request.placement.ThreadLocations();
    std::vector<bool> active_sockets(static_cast<size_t>(topo.num_sockets), false);
    for (const ThreadLocation& loc : locations) {
      active_sockets[loc.socket] = true;
    }
    const int home_socket = locations.front().socket;
    const ResourceDemandVector& d = workload.demands;
    for (const ThreadLocation& loc : locations) {
      ModelThread thread;
      thread.job = static_cast<int>(jobs.size());
      thread.location = loc;
      if (d.instr_rate > 0.0) {
        thread.demand.emplace_back(index.Core(loc.core), d.instr_rate);
      }
      if (d.l1_bw > 0.0) {
        thread.demand.emplace_back(index.L1(loc.core), d.l1_bw);
      }
      if (d.l2_bw > 0.0) {
        thread.demand.emplace_back(index.L2(loc.core), d.l2_bw);
      }
      if (d.l3_bw > 0.0) {
        thread.demand.emplace_back(index.L3Port(loc.core), d.l3_bw);
        thread.demand.emplace_back(index.L3Agg(loc.socket), d.l3_bw);
      }
      const double dram_total = d.dram_total_bw();
      if (dram_total > 0.0) {
        const std::vector<double> weights =
            MemoryNodeWeights(workload.memory_policy, topo.num_sockets, active_sockets,
                              loc.socket, home_socket);
        for (int m = 0; m < topo.num_sockets; ++m) {
          if (weights[m] <= 0.0) {
            continue;
          }
          thread.demand.emplace_back(index.Dram(m), dram_total * weights[m]);
          if (m != loc.socket) {
            thread.demand.emplace_back(index.Link(loc.socket, m),
                                       dram_total * weights[m]);
          }
        }
      }
      for (const ThreadLocation& peer : locations) {
        if (&peer != &loc && peer.socket != loc.socket) {
          ++thread.remote_peers;
        }
      }
      threads.push_back(std::move(thread));
    }
    jobs.push_back(job);
  }
  const int n_total = static_cast<int>(threads.size());
  const std::vector<double> caps = machine.Capacities(combined_per_core);

  // --- Iterative joint model (§5, generalized over jobs) ---
  std::vector<double> f_start(n_total);
  std::vector<double> s_overall(n_total, 1.0);
  std::vector<double> s_resource(n_total, 1.0);
  std::vector<double> comm_penalty(n_total, 0.0);
  std::vector<double> balance_penalty(n_total, 0.0);
  std::vector<double> utilization(n_total);
  std::vector<int> bottleneck(n_total, -1);
  std::vector<double> load(static_cast<size_t>(index.Count()), 0.0);
  for (int t = 0; t < n_total; ++t) {
    f_start[t] = jobs[threads[t].job].f_initial;
    utilization[t] = f_start[t];
  }

  double slowdown_ceiling = 0.0;
  int iterations = 0;
  bool converged = false;
  double final_delta = 0.0;
  const int max_iterations = options.iterate ? options.max_iterations : 1;

  for (int iter = 0; iter < max_iterations; ++iter) {
    ++iterations;
    const std::vector<double> prev = s_overall;

    // Step 1: resource contention, including cross-job load (§5.1).
    std::fill(load.begin(), load.end(), 0.0);
    for (int t = 0; t < n_total; ++t) {
      for (const auto& [resource, amount] : threads[t].demand) {
        load[resource] += amount * f_start[t];
      }
    }
    for (int t = 0; t < n_total; ++t) {
      const ModelJob& job = jobs[threads[t].job];
      double worst = 1.0;
      int worst_resource = -1;
      for (const auto& [resource, amount] : threads[t].demand) {
        const double factor = load[resource] / caps[resource];
        if (factor > worst) {
          worst = factor;
          worst_resource = resource;
        }
      }
      if (combined_per_core[threads[t].location.core] > 1 && job.b > 0.0) {
        worst *= 1.0 + job.b * f_start[t];
      }
      s_resource[t] = worst;
      bottleneck[t] = worst_resource;
      s_overall[t] = worst;
      utilization[t] = job.f_initial / s_overall[t];
    }

    // Step 2: off-socket communication, within each job (§5.2).
    std::fill(comm_penalty.begin(), comm_penalty.end(), 0.0);
    for (const ModelJob& job : jobs) {
      if (job.os <= 0.0) {
        continue;
      }
      double total_work = 0.0;
      std::vector<double> socket_work(static_cast<size_t>(topo.num_sockets), 0.0);
      for (int t = job.first_thread; t < job.first_thread + job.num_threads; ++t) {
        total_work += 1.0 / s_overall[t];
        socket_work[threads[t].location.socket] += 1.0 / s_overall[t];
      }
      for (int t = job.first_thread; t < job.first_thread + job.num_threads; ++t) {
        const double lockstep = job.os * threads[t].remote_peers;
        const double remote_work =
            total_work - socket_work[threads[t].location.socket];
        const double independent =
            job.num_threads * job.os * (remote_work / total_work);
        const double comm = job.l * independent + (1.0 - job.l) * lockstep;
        comm_penalty[t] = comm * utilization[t];
        s_overall[t] += comm_penalty[t];
        utilization[t] = job.f_initial / s_overall[t];
      }
    }

    // Step 3: load balancing, within each job (§5.3).
    std::fill(balance_penalty.begin(), balance_penalty.end(), 0.0);
    for (const ModelJob& job : jobs) {
      double s_max = 0.0;
      for (int t = job.first_thread; t < job.first_thread + job.num_threads; ++t) {
        s_max = std::max(s_max, s_overall[t]);
      }
      for (int t = job.first_thread; t < job.first_thread + job.num_threads; ++t) {
        const double pulled = job.l * s_overall[t] + (1.0 - job.l) * s_max;
        balance_penalty[t] = pulled - s_overall[t];
        s_overall[t] = pulled;
        utilization[t] = job.f_initial / s_overall[t];
      }
    }

    // §5.4: bounded by the first iteration's maximal slowdown.
    if (iter == 0) {
      slowdown_ceiling = *std::max_element(s_overall.begin(), s_overall.end());
    } else {
      for (int t = 0; t < n_total; ++t) {
        s_overall[t] = std::clamp(s_overall[t], 1.0, slowdown_ceiling);
        utilization[t] = jobs[threads[t].job].f_initial / s_overall[t];
      }
    }

    double worst_delta = 0.0;
    for (int t = 0; t < n_total; ++t) {
      worst_delta =
          std::max(worst_delta, std::fabs(s_overall[t] - prev[t]) / s_overall[t]);
    }
    final_delta = worst_delta;
    if (iter > 0 && worst_delta < options.convergence_eps) {
      converged = true;
    }
    const bool dampened = !converged && iter + 1 >= options.dampen_after;
    if (trace != nullptr) {
      obs::PredictionIterationTrace iteration_trace;
      iteration_trace.iteration = iterations;
      iteration_trace.max_delta = worst_delta;
      iteration_trace.converged = converged;
      iteration_trace.dampened = dampened;
      iteration_trace.thread_slowdowns = s_overall;
      iteration_trace.thread_bottlenecks = bottleneck;
      trace->iterations.push_back(std::move(iteration_trace));
    }
    if (converged) {
      break;
    }

    for (int t = 0; t < n_total; ++t) {
      double next = jobs[threads[t].job].f_initial * (s_resource[t] / s_overall[t]);
      if (dampened) {
        next = 0.5 * (next + f_start[t]);
      }
      f_start[t] = next;
    }
  }

  if (trace != nullptr) {
    trace->converged = converged || !options.iterate;
    trace->final_delta = final_delta;
  }

  // --- Final per-job predictions (§5.5) ---
  CoSchedulePrediction result;
  result.resource_load = load;
  result.jobs.reserve(jobs.size());
  for (const ModelJob& job : jobs) {
    Prediction prediction;
    prediction.amdahl_speedup = job.amdahl;
    double harmonic = 0.0;
    for (int t = job.first_thread; t < job.first_thread + job.num_threads; ++t) {
      harmonic += 1.0 / s_overall[t];
      ThreadPrediction tp;
      tp.location = threads[t].location;
      tp.resource_slowdown = s_resource[t];
      tp.comm_penalty = comm_penalty[t];
      tp.balance_penalty = balance_penalty[t];
      tp.overall_slowdown = s_overall[t];
      tp.utilization = utilization[t];
      tp.bottleneck = bottleneck[t];
      prediction.threads.push_back(tp);
    }
    prediction.speedup = job.amdahl * harmonic / job.num_threads;
    prediction.time = job.workload->t1 / prediction.speedup;
    prediction.iterations = iterations;
    prediction.converged = converged || !options.iterate;
    prediction.final_delta = final_delta;
    prediction.resource_load = load;
    result.jobs.push_back(std::move(prediction));
  }
  return result;
}

}  // namespace pandia
