// Runtime lock-rank validation — the owner of the repo's lock order.
//
// Every long-lived util::Mutex carries a name and a small-integer *rank*
// from the kLockRank* table in src/util/mutex.h, which is the source of
// truth for the acquisition order. The discipline is strict ascending
// acquisition: a thread may only acquire a ranked mutex whose rank is
// greater than every ranked mutex it already holds. Checking follows the
// real call graph, so a nesting through a function call or a callback is
// checked like a lexical one.
//
// Cost model: when checking is off, each Lock()/Unlock() pays one relaxed
// atomic load. When on, a thread-local vector of held (mutex, name, rank)
// entries is maintained; an out-of-order acquisition PANDIA_CHECK-fails
// naming both locks. Checking defaults to on in debug builds (!NDEBUG) and
// off in release; every test binary forces it on with
// SetLockRankChecking(true) (tests/test_main.cc) so the discipline is
// exercised in every build type.
//
// Unranked mutexes (the default constructor) are exempt: they are neither
// checked nor recorded. CondVar::Wait leaves the held stack untouched — the
// mutex is conceptually held across the wait, and the internal re-acquisition
// must not re-trip the check.
#ifndef PANDIA_SRC_UTIL_LOCK_RANK_H_
#define PANDIA_SRC_UTIL_LOCK_RANK_H_

#include <atomic>
#include <cstddef>

namespace pandia {
namespace util {

// Turns runtime rank checking on or off process-wide. Thread-safe; takes
// effect for acquisitions that begin after the call returns. Toggling while
// ranked locks are held is safe (unmatched releases are ignored) but may
// miss inversions until the held stacks drain.
void SetLockRankChecking(bool enabled);

namespace lock_rank_internal {

extern std::atomic<bool> g_checking;

// Check-then-record an acquisition of a ranked mutex. PANDIA_CHECK-fails,
// naming both locks, if the calling thread already holds a mutex of equal or
// greater rank.
void OnLock(const void* mu, const char* name, int rank);

// Record an acquisition without the ordering check. TryLock cannot deadlock
// (it never blocks), so a successful try-acquisition is recorded as held but
// exempt from the discipline.
void OnTryLock(const void* mu, const char* name, int rank);

// Remove the most recent held record for `mu`; no-op if there is none
// (e.g. checking was enabled mid-hold).
void OnUnlock(const void* mu);

// Number of ranked mutexes the calling thread currently holds (test hook).
size_t HeldCountForTest();

}  // namespace lock_rank_internal

inline bool LockRankCheckingEnabled() {
  return lock_rank_internal::g_checking.load(std::memory_order_relaxed);
}

}  // namespace util
}  // namespace pandia

#endif  // PANDIA_SRC_UTIL_LOCK_RANK_H_
