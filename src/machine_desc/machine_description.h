// Machine description (paper §3).
//
// Workload-independent, created once per machine: the topology reported by
// the OS plus the capacity of every resource, measured empirically by
// running stress applications and reading performance counters. All
// bandwidth/rate values are measured at the all-core turbo bin (profiling
// fills idle cores with a background load, §6.3), so they are what a fully
// loaded machine can actually sustain.
#ifndef PANDIA_SRC_MACHINE_DESC_MACHINE_DESCRIPTION_H_
#define PANDIA_SRC_MACHINE_DESC_MACHINE_DESCRIPTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/topology/resource_index.h"
#include "src/topology/topology.h"
#include "src/util/status.h"

namespace pandia {

struct MachineDescription {
  MachineTopology topo;

  double core_ops = 0.0;          // peak single-thread instruction rate per core
  double smt_combined_ops = 0.0;  // combined peak of two threads sharing a core
  double l1_bw = 0.0;             // per-core L1 link bandwidth
  double l2_bw = 0.0;             // per-core L2 link bandwidth
  double l3_port_bw = 0.0;        // per-core port into the shared L3
  double l3_agg_bw = 0.0;         // per-socket aggregate L3 bandwidth
  double dram_bw = 0.0;           // per-socket memory channel bandwidth
  double link_bw = 0.0;           // per interconnect link

  // Capacity of every resource in ResourceIndex order for a placement with
  // the given per-core thread counts (cores running two threads use the
  // measured SMT-combined rate).
  std::vector<double> Capacities(const std::vector<uint8_t>& threads_per_core) const;

  // Plausibility check for descriptions arriving from outside the process
  // (stored files, user edits): topology dimensions positive, every
  // capacity and cache size finite and positive. The message names the
  // offending field. A description from GenerateMachineDescription always
  // validates.
  Status Validate() const;

  std::string ToString() const;
};

}  // namespace pandia

#endif  // PANDIA_SRC_MACHINE_DESC_MACHINE_DESCRIPTION_H_
