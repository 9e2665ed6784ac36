#include "src/rack/fleet.h"

#include <algorithm>
#include <numeric>

#include "src/util/check.h"
#include "src/util/fnv1a.h"
#include "src/util/strings.h"

namespace pandia {
namespace rack {
namespace {

// Virtual nodes per shard. Enough to spread the keyspace evenly across a
// handful of shards; the constant is part of the routing function, so
// changing it re-routes names and must be treated as a format change.
constexpr int kVirtualNodesPerShard = 32;

}  // namespace

std::string ShardPolicyName(ShardPolicy policy) {
  switch (policy) {
    case ShardPolicy::kConsistentHash:
      return "consistent-hash";
    case ShardPolicy::kLeastLoaded:
      return "least-loaded";
  }
  return "consistent-hash";
}

StatusOr<ShardPolicy> ShardPolicyFromName(const std::string& name) {
  if (name == "consistent-hash") {
    return ShardPolicy::kConsistentHash;
  }
  if (name == "least-loaded") {
    return ShardPolicy::kLeastLoaded;
  }
  return Status::InvalidArgument(StrFormat(
      "unknown shard policy '%s' (want consistent-hash or least-loaded)",
      name.c_str()));
}

uint64_t FleetHash(std::string_view text) { return Fnv1a64(text); }

Fleet::Fleet(int num_shards, ShardPolicy policy)
    : num_shards_(num_shards), policy_(policy) {
  PANDIA_CHECK(num_shards >= 1);
  if (policy_ == ShardPolicy::kConsistentHash) {
    ring_.reserve(static_cast<size_t>(num_shards_) * kVirtualNodesPerShard);
    for (int shard = 0; shard < num_shards_; ++shard) {
      for (int v = 0; v < kVirtualNodesPerShard; ++v) {
        const std::string label = StrFormat("shard%d#%d", shard, v);
        ring_.push_back(VirtualNode{FleetHash(label), shard});
      }
    }
    std::sort(ring_.begin(), ring_.end(),
              [](const VirtualNode& a, const VirtualNode& b) {
                if (a.position != b.position) {
                  return a.position < b.position;
                }
                return a.shard < b.shard;
              });
  }
}

std::vector<int> Fleet::ShardOrder(std::string_view job_name,
                                   std::span<const ShardLoad> loads) const {
  std::vector<int> order;
  order.reserve(static_cast<size_t>(num_shards_));
  if (policy_ == ShardPolicy::kConsistentHash) {
    // Clockwise ring walk from the name's position, collecting each shard
    // the first time one of its virtual nodes appears.
    const uint64_t position = FleetHash(job_name);
    const auto start = std::lower_bound(
        ring_.begin(), ring_.end(), position,
        [](const VirtualNode& node, uint64_t p) { return node.position < p; });
    std::vector<uint8_t> seen(static_cast<size_t>(num_shards_), 0);
    const size_t begin = static_cast<size_t>(start - ring_.begin());
    for (size_t step = 0;
         step < ring_.size() && order.size() < static_cast<size_t>(num_shards_);
         ++step) {
      const int shard = ring_[(begin + step) % ring_.size()].shard;
      if (!seen[static_cast<size_t>(shard)]) {
        seen[static_cast<size_t>(shard)] = 1;
        order.push_back(shard);
      }
    }
    return order;
  }
  // Least-loaded: most free threads, then fewest jobs, then lowest index.
  // stable_sort over iota keeps equal keys in index order, so the order is
  // a pure function of the load vector.
  PANDIA_CHECK(loads.size() == static_cast<size_t>(num_shards_));
  order.resize(static_cast<size_t>(num_shards_));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&loads](int a, int b) {
    const ShardLoad& la = loads[static_cast<size_t>(a)];
    const ShardLoad& lb = loads[static_cast<size_t>(b)];
    if (la.free_threads != lb.free_threads) {
      return la.free_threads > lb.free_threads;
    }
    if (la.jobs != lb.jobs) {
      return la.jobs < lb.jobs;
    }
    return a < b;
  });
  return order;
}

int Fleet::PreferredShard(std::string_view job_name,
                          std::span<const ShardLoad> loads) const {
  return ShardOrder(job_name, loads).front();
}

}  // namespace rack
}  // namespace pandia
