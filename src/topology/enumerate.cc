#include "src/topology/enumerate.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>

#include "src/util/check.h"
#include "src/util/rng.h"

namespace pandia {
namespace {

// Canonical socket order: busiest socket first, ties broken by more doubles.
bool SocketLoadGreater(const SocketLoad& a, const SocketLoad& b) {
  if (a.Threads() != b.Threads()) {
    return a.Threads() > b.Threads();
  }
  return a.doubles > b.doubles;
}

Placement MakeCanonical(const MachineTopology& topo, std::vector<SocketLoad> loads) {
  std::sort(loads.begin(), loads.end(), SocketLoadGreater);
  return Placement::FromSocketLoads(topo, loads);
}

// Recursively emits multisets of socket loads as non-increasing sequences of
// indices into `loads`.
void EmitMultisets(const MachineTopology& topo, const std::vector<SocketLoad>& loads,
                   std::vector<SocketLoad>& current, size_t max_index, int socket,
                   std::vector<Placement>& out) {
  if (socket == topo.num_sockets) {
    Placement placement = MakeCanonical(topo, current);
    if (placement.TotalThreads() > 0) {
      out.push_back(std::move(placement));
    }
    return;
  }
  for (size_t i = 0; i <= max_index; ++i) {
    current[socket] = loads[i];
    EmitMultisets(topo, loads, current, i, socket + 1, out);
  }
}

// C(options + slots - 1, slots), exactly, or nullopt when it does not fit in
// 64 bits. The loop takes the smaller of C(n, k) and C(n, n - k), so its
// partial results C(n, i) only grow: the first that does not fit means the
// count does not either. Each partial result fits in 64 bits, so its
// product with n - i + 1 fits in 128 bits and divides exactly.
std::optional<uint64_t> MultisetCount(uint64_t options, uint64_t slots) {
  const uint64_t n = options + slots - 1;
  const uint64_t k = std::min(slots, n - slots);
  unsigned __int128 result = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    result = result * (n - i + 1) / i;
    if (result > std::numeric_limits<uint64_t>::max()) {
      return std::nullopt;
    }
  }
  return static_cast<uint64_t>(result);
}

}  // namespace

std::vector<SocketLoad> EnumerateSocketLoads(const MachineTopology& topo) {
  std::vector<SocketLoad> loads;
  const int max_doubles = topo.threads_per_core >= 2 ? topo.cores_per_socket : 0;
  for (int doubles = 0; doubles <= max_doubles; ++doubles) {
    for (int singles = 0; singles + doubles <= topo.cores_per_socket; ++singles) {
      loads.push_back(SocketLoad{singles, doubles});
    }
  }
  return loads;
}

uint64_t CountCanonicalPlacements(const MachineTopology& topo) {
  const std::optional<uint64_t> multisets = MultisetCount(
      EnumerateSocketLoads(topo).size(), static_cast<uint64_t>(topo.num_sockets));
  // Minus the empty placement. With 2^64 multisets or more, the count is at
  // least UINT64_MAX and saturates there.
  return multisets ? *multisets - 1 : std::numeric_limits<uint64_t>::max();
}

std::vector<Placement> EnumerateCanonicalPlacements(const MachineTopology& topo) {
  const std::vector<SocketLoad> loads = EnumerateSocketLoads(topo);
  std::vector<Placement> out;
  out.reserve(CountCanonicalPlacements(topo));
  std::vector<SocketLoad> current(static_cast<size_t>(topo.num_sockets));
  EmitMultisets(topo, loads, current, loads.size() - 1, 0, out);
  std::sort(out.begin(), out.end(), Placement::PaperOrderLess);
  return out;
}

std::vector<Placement> SampleCanonicalPlacements(
    const MachineTopology& topo, size_t count, uint64_t seed,
    const std::function<bool(const Placement&)>& filter) {
  const std::vector<SocketLoad> loads = EnumerateSocketLoads(topo);
  Rng rng(HashCombine(seed, 0x706c6163656d656eULL));
  std::set<std::vector<uint8_t>> seen;
  std::vector<Placement> out;
  // Bounded attempts: the filter may admit fewer than `count` placements.
  const size_t max_attempts = count * 400 + 10000;
  for (size_t attempt = 0; attempt < max_attempts && out.size() < count; ++attempt) {
    std::vector<SocketLoad> chosen(static_cast<size_t>(topo.num_sockets));
    for (auto& load : chosen) {
      load = loads[rng.NextBounded(loads.size())];
    }
    Placement placement = MakeCanonical(topo, std::move(chosen));
    if (placement.TotalThreads() == 0) {
      continue;
    }
    if (filter && !filter(placement)) {
      continue;
    }
    if (seen.insert(placement.PerCore()).second) {
      out.push_back(std::move(placement));
    }
  }
  std::sort(out.begin(), out.end(), Placement::PaperOrderLess);
  return out;
}

std::vector<Placement> CompactSweep(const MachineTopology& topo) {
  std::vector<Placement> out;
  out.reserve(static_cast<size_t>(topo.NumHwThreads()));
  for (int n = 1; n <= topo.NumHwThreads(); ++n) {
    out.push_back(Placement::TwoPerCore(topo, n));
  }
  return out;
}

std::vector<Placement> SpreadSweep(const MachineTopology& topo) {
  std::vector<Placement> out;
  out.reserve(static_cast<size_t>(topo.NumHwThreads()));
  for (int n = 1; n <= topo.NumHwThreads(); ++n) {
    std::vector<SocketLoad> loads(static_cast<size_t>(topo.num_sockets));
    for (int s = 0; s < topo.num_sockets; ++s) {
      // Balanced split: the first (n % sockets) sockets carry one extra.
      int threads = n / topo.num_sockets + (s < n % topo.num_sockets ? 1 : 0);
      if (threads <= topo.cores_per_socket) {
        loads[s] = SocketLoad{threads, 0};
      } else {
        const int doubles = threads - topo.cores_per_socket;
        loads[s] = SocketLoad{topo.cores_per_socket - doubles, doubles};
      }
    }
    out.push_back(Placement::FromSocketLoads(topo, loads));
  }
  return out;
}

}  // namespace pandia
