// Stress applications (paper §3.1–3.2).
//
// Each factory returns a synthetic workload that saturates one resource:
// the CPU stressors run a pipelined integer loop on an L1-resident dataset;
// the bandwidth stressors stream a private array sized for the target level
// (one access per cache line, prefetch-friendly); the DRAM stressor uses an
// array far larger than the LLC. The background filler is the core-local
// CPU-bound load used to pin Turbo Boost at its all-core bin while
// measuring (§6.3); RunFilled is the one place that applies it.
//
// Demand values model those access patterns: 64-byte lines per iteration,
// with address-generation overhead limiting a single thread's DRAM rate the
// way limited MLP does on real parts.
#ifndef PANDIA_SRC_STRESS_STRESS_H_
#define PANDIA_SRC_STRESS_STRESS_H_

#include <cstdint>
#include <optional>
#include <span>

#include "src/sim/machine.h"
#include "src/sim/workload_spec.h"
#include "src/topology/placement.h"

namespace pandia {
namespace stress {

// Compute-bound loop, no memory traffic beyond a token L1 stream. Used to
// measure peak core instruction rate and SMT co-run loss, and as the
// per-thread slowdown source in profiling runs 4 and 5 (§4.4).
sim::WorkloadSpec CpuStressor();

// Bandwidth stressors for each level of the hierarchy.
sim::WorkloadSpec L1Stressor();
sim::WorkloadSpec L2Stressor();
sim::WorkloadSpec L3Stressor();

// Streams from local memory (array >= 100x LLC, numactl-bound local).
sim::WorkloadSpec DramStressor();

// Streams from the memory of `home_socket` regardless of where its threads
// run: placed on another socket, all of its traffic crosses the interconnect.
sim::WorkloadSpec RemoteDramStressor(int home_socket);

// Negligible-footprint CPU-bound filler for otherwise-idle cores.
sim::WorkloadSpec BackgroundFiller();

// Placement with one filler thread on every core not used by any of the
// given placements. Returns nullopt when every core is already occupied
// (a filler job needs at least one thread).
std::optional<Placement> FillerPlacement(const MachineTopology& topo,
                                         std::span<const Placement> occupied);

// sim::Machine::Run of `jobs` plus, last, a background filler on every core
// no job occupies (none when all are), so they see the all-core Turbo bin.
sim::RunResult RunFilled(const sim::Machine& machine,
                         std::span<const sim::JobRequest> jobs,
                         uint64_t fault_nonce = 0);

}  // namespace stress
}  // namespace pandia

#endif  // PANDIA_SRC_STRESS_STRESS_H_
