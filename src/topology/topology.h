// Machine topology: the structural information the operating system exposes
// (paper §3): sockets, cores per socket, hardware threads per core, and the
// cache hierarchy. Capacities (bandwidths, instruction rates) are *not* part
// of the topology — Pandia measures those empirically (machine_desc), and the
// simulator holds its own hidden ground-truth capacities (sim::MachineSpec).
#ifndef PANDIA_SRC_TOPOLOGY_TOPOLOGY_H_
#define PANDIA_SRC_TOPOLOGY_TOPOLOGY_H_

#include <string>

namespace pandia {

// Sizes are in abstract capacity units; the paper (§3, Figure 3) observes
// that only consistent units matter, not the absolute scale. We use MiB-like
// units for cache sizes throughout.
struct MachineTopology {
  std::string name;
  int num_sockets = 0;
  int cores_per_socket = 0;
  int threads_per_core = 0;  // SMT width
  double l1_size = 0.0;      // per core
  double l2_size = 0.0;      // per core
  double l3_size = 0.0;      // per socket (shared)

  int NumCores() const { return num_sockets * cores_per_socket; }
  int NumHwThreads() const { return NumCores() * threads_per_core; }
  int SocketOfCore(int core) const { return core / cores_per_socket; }
  int FirstCoreOfSocket(int socket) const { return socket * cores_per_socket; }

  // Number of distinct interconnect links in a fully-connected topology.
  int NumInterconnectLinks() const {
    return num_sockets * (num_sockets - 1) / 2;
  }

  // Index of the (unordered) link between two distinct sockets, in
  // [0, NumInterconnectLinks()).
  int LinkIndex(int socket_a, int socket_b) const;

  friend bool operator==(const MachineTopology&, const MachineTopology&) = default;
};

}  // namespace pandia

#endif  // PANDIA_SRC_TOPOLOGY_TOPOLOGY_H_
