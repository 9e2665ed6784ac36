// Seeded trace generation: the only input the daemon and the optimizer see.
#include <chrono>
#include <utility>

#include "perfbench/bench.h"

namespace pandia {
namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<size_t> Shuffled(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  return order;
}

std::vector<std::string> DescParams(
    const std::vector<WorkloadDescription>& descriptions) {
  std::vector<std::string> params;
  params.reserve(descriptions.size());
  for (const WorkloadDescription& description : descriptions) {
    params.push_back(StrFormat(
        " desc.%s=%s", kMachineType,
        wire::EscapeValue(WorkloadDescriptionToText(description)).c_str()));
  }
  return params;
}

Trace SparseTrace(uint64_t seed, const std::vector<std::string>& desc_params,
                  int warmup_pairs, int timed_pairs) {
  constexpr size_t kMix = std::size(kThreadMix);
  const size_t cycle = desc_params.size() * kMix;
  Rng rng(seed);
  Trace trace;
  std::vector<size_t> order;
  const int pairs = warmup_pairs + timed_pairs;
  for (int k = 0; k < pairs; ++k) {
    // The warm-up is a cycle prefix of its own; the timed part starts a
    // fresh cycle so it holds whole cycles only.
    const size_t position =
        k < warmup_pairs ? static_cast<size_t>(k)
                         : static_cast<size_t>(k - warmup_pairs) % cycle;
    if (position == 0) {
      order = Shuffled(cycle, rng);
    }
    const size_t combo = order[position];
    const std::string name = StrFormat("s%d", k);
    trace.lines.push_back(StrFormat("ADMIT name=%s threads=%d%s", name.c_str(),
                                    kThreadMix[combo % kMix],
                                    desc_params[combo / kMix].c_str()));
    trace.lines.push_back("DEPART name=" + name);
  }
  trace.warmup = 2 * static_cast<size_t>(warmup_pairs);
  return trace;
}

std::vector<std::string> SearchTrace(uint64_t seed, int cycles) {
  const std::vector<sim::WorkloadSpec> suite = workloads::EvaluationSuite();
  Rng rng(seed);
  std::vector<std::string> names;
  for (int c = 0; c < cycles; ++c) {
    for (size_t w : Shuffled(suite.size(), rng)) {
      names.push_back(suite[w].name);
    }
    names.push_back(kSearchExtra);
  }
  return names;
}

DenseJobs::DenseJobs(uint64_t seed, obs::Tracer& setup)
    : seed_(seed), setup_(setup), pipeline_(kMachineType),
      suite_(workloads::EvaluationSuite()) {}

void DenseJobs::Prepare(size_t n) {
  while (params_.size() < n) {
    const size_t i = params_.size();
    sim::FaultPlan plan;
    plan.enabled = true;
    plan.seed = seed_ * 7919ULL + i + 1;
    plan.time_jitter = kDenseJitter;
    pipeline_.SetFaultPlan(plan);
    const WorkloadDescription description = [&] {
      obs::TraceSpan span(setup_, "workload_desc.profile");
      return pipeline_.Profile(suite_[i % suite_.size()]);
    }();
    params_.push_back(StrFormat(
        " threads=%d desc.%s=%s", kDenseThreads, kMachineType,
        wire::EscapeValue(WorkloadDescriptionToText(description)).c_str()));
  }
}

std::string DenseJobs::AdmitLine(const std::string& name, size_t i) {
  Prepare(i + 1);
  return "ADMIT name=" + name + params_[i];
}

}  // namespace perfbench
}  // namespace pandia
