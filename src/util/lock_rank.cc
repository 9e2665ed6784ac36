#include "src/util/lock_rank.h"

#include <cstdio>
#include <vector>

#include "src/util/check.h"

namespace pandia {
namespace util {
namespace lock_rank_internal {

namespace {

struct HeldLock {
  const void* mu = nullptr;
  const char* name = nullptr;
  int rank = 0;
};

// The per-thread stack of held ranked mutexes. A plain vector: depth is the
// nesting depth of ranked critical sections, in practice ≤ 3.
thread_local std::vector<HeldLock> t_held;

const char* NameOrUnnamed(const char* name) {
  return name != nullptr ? name : "(unnamed)";
}

}  // namespace

#ifdef NDEBUG
std::atomic<bool> g_checking{false};
#else
std::atomic<bool> g_checking{true};
#endif

void OnLock(const void* mu, const char* name, int rank) {
  for (const HeldLock& held : t_held) {
    if (held.rank >= rank) {
      char msg[256];
      std::snprintf(msg, sizeof(msg),
                    "lock rank inversion: acquiring \"%s\" (rank %d) while "
                    "holding \"%s\" (rank %d); ranks must strictly ascend — "
                    "see the kLockRank* table in src/util/mutex.h",
                    NameOrUnnamed(name), rank, NameOrUnnamed(held.name),
                    held.rank);
      PANDIA_CHECK_MSG(held.rank < rank, msg);
    }
  }
  t_held.push_back(HeldLock{mu, name, rank});
}

void OnTryLock(const void* mu, const char* name, int rank) {
  t_held.push_back(HeldLock{mu, name, rank});
}

void OnUnlock(const void* mu) {
  for (size_t i = t_held.size(); i > 0; --i) {
    if (t_held[i - 1].mu == mu) {
      t_held.erase(t_held.begin() + static_cast<ptrdiff_t>(i - 1));
      return;
    }
  }
}

size_t HeldCountForTest() { return t_held.size(); }

}  // namespace lock_rank_internal

void SetLockRankChecking(bool enabled) {
  lock_rank_internal::g_checking.store(enabled, std::memory_order_relaxed);
}

}  // namespace util
}  // namespace pandia
