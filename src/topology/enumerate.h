// Enumeration and sampling of canonical thread placements.
//
// Cores within a socket and sockets within the machine are interchangeable
// (the paper's machines are homogeneous and fully connected, §2.2), so the
// placement space is the set of multisets of per-socket loads. For 2-socket
// machines this is small enough to enumerate exhaustively (1034 placements
// at 8 cores/socket, 18144 at 18); the 4-socket machine is sampled, as the
// paper samples ~20% of the X5-2's space.
#ifndef PANDIA_SRC_TOPOLOGY_ENUMERATE_H_
#define PANDIA_SRC_TOPOLOGY_ENUMERATE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/topology/placement.h"
#include "src/topology/topology.h"

namespace pandia {

// All per-socket loads (singles, doubles) with CoresUsed() <= cores_per_socket,
// including the empty load. For SMT-1 machines, doubles is always 0.
std::vector<SocketLoad> EnumerateSocketLoads(const MachineTopology& topo);

// Number of canonical placements (multisets of socket loads, excluding the
// all-empty placement) without materializing them. Exact wherever it fits
// in 64 bits; a larger space saturates at UINT64_MAX, so a caller comparing
// it against an exhaustive limit samples such a space.
uint64_t CountCanonicalPlacements(const MachineTopology& topo);

// All canonical placements, excluding the all-empty placement, in paper order
// (total threads, then per-core counts). Intended for machines where
// CountCanonicalPlacements() is small (call sites should check).
std::vector<Placement> EnumerateCanonicalPlacements(const MachineTopology& topo);

// Deterministic sample of at most `count` distinct canonical placements that
// satisfy `filter` (nullptr = accept all), in paper order. Sampling is
// uniform over random per-socket loads, deduplicated after canonicalization.
std::vector<Placement> SampleCanonicalPlacements(
    const MachineTopology& topo, size_t count, uint64_t seed,
    const std::function<bool(const Placement&)>& filter = nullptr);

// §6.3 "simple pattern exploration" baselines: 1..N threads placed as close
// together as possible (two per core, sockets filled in order) ...
std::vector<Placement> CompactSweep(const MachineTopology& topo);

// ... or spread as far apart as possible (threads balanced across sockets,
// one per core before SMT slots are used).
std::vector<Placement> SpreadSweep(const MachineTopology& topo);

}  // namespace pandia

#endif  // PANDIA_SRC_TOPOLOGY_ENUMERATE_H_
