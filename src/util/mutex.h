// Annotated synchronization primitives — the only place in the codebase
// allowed to touch std::mutex / std::condition_variable directly (enforced
// by the `naked-mutex` pandia_lint rule).
//
// Mutex is a plain exclusive lock carrying the Clang thread-safety
// `capability` attribute, so `-Wthread-safety` (PANDIA_THREAD_SAFETY=ON)
// can prove statically that every PANDIA_GUARDED_BY field is only touched
// with its lock held. MutexLock is the RAII acquisition; CondVar is a
// condition variable that waits on a Mutex the caller already holds:
//
//   util::Mutex mu_;
//   int pending_ PANDIA_GUARDED_BY(mu_) = 0;
//   util::CondVar cv_;
//
//   void Produce() {
//     util::MutexLock lock(mu_);
//     ++pending_;
//     cv_.NotifyOne();
//   }
//   void Consume() {
//     util::MutexLock lock(mu_);
//     while (pending_ == 0) {   // explicit loop: the analysis can follow it
//       cv_.Wait(mu_);
//     }
//     --pending_;
//   }
//
// CondVar deliberately has no predicate overload: a predicate lambda is a
// separate function to the analysis and reads of guarded state inside it
// would be flagged (or worse, silently unchecked). Spell the wait loop out.
//
// Mutexes optionally carry a name and a rank (the kLockRank* constants
// below): ranked mutexes participate in the runtime lock-rank check
// (src/util/lock_rank.h), which enforces the strictly-ascending acquisition
// order the table declares. CondVar::Wait releases and re-acquires the
// native mutex directly, so the held-rank stack is untouched across a wait —
// the lock is conceptually held the whole time.
#ifndef PANDIA_SRC_UTIL_MUTEX_H_
#define PANDIA_SRC_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/util/lock_rank.h"
#include "src/util/thread_annotations.h"

namespace pandia {
namespace util {

// Lock ranks — the repo-wide acquisition order, strictly ascending: a thread
// holding a ranked mutex may only acquire mutexes of *greater* rank. This
// table is the source of truth; the runtime checker in src/util/lock_rank.h
// enforces it in every test binary and in debug builds. Gaps are deliberate
// so a new lock slots in without renumbering. When adding a lock: decide what
// it nests inside and what nests inside it, pick a value between those
// neighbors, and name the mutex at its declaration:
//
//   util::Mutex mu_{"serve.service", util::kLockRankServeService};
inline constexpr int kLockRankUnranked = -1;
inline constexpr int kLockRankServeFleet = 10;        // fleet admission/route state
inline constexpr int kLockRankServeService = 20;      // per-rack service state
inline constexpr int kLockRankParallelPool = 30;      // ThreadPool queue
inline constexpr int kLockRankParallelDone = 35;      // ParallelFor completion latch
inline constexpr int kLockRankPredictorCacheShard = 40;  // prediction-cache shard
inline constexpr int kLockRankObsMetrics = 50;        // metrics registry
inline constexpr int kLockRankObsTrace = 55;          // tracer registry
inline constexpr int kLockRankObsTraceBuffer = 56;    // per-thread trace buffer
inline constexpr int kLockRankObsLog = 60;            // log sink
inline constexpr int kLockRankObsFlightRecorder = 65;  // flight-recorder ring

class CondVar;

class PANDIA_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  // A named, ranked mutex participating in the runtime lock-rank check.
  // `name` must outlive the mutex (string literals only).
  Mutex(const char* name, int rank) : name_(name), rank_(rank) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PANDIA_ACQUIRE() {
    if (rank_ != kLockRankUnranked && LockRankCheckingEnabled()) {
      lock_rank_internal::OnLock(this, name_, rank_);
    }
    mu_.lock();
  }
  void Unlock() PANDIA_RELEASE() {
    // Bookkeeping first: once mu_ is released another thread may destroy
    // this mutex (ParallelFor's stack-local completion latch), so nothing
    // after the unlock may read a member.
    if (rank_ != kLockRankUnranked && LockRankCheckingEnabled()) {
      lock_rank_internal::OnUnlock(this);
    }
    mu_.unlock();
  }
  bool TryLock() PANDIA_TRY_ACQUIRE(true) {
    const bool acquired = mu_.try_lock();
    if (acquired && rank_ != kLockRankUnranked && LockRankCheckingEnabled()) {
      lock_rank_internal::OnTryLock(this, name_, rank_);
    }
    return acquired;
  }

  const char* name() const { return name_; }
  int rank() const { return rank_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* name_ = nullptr;
  int rank_ = kLockRankUnranked;
};

// RAII lock: held for the lifetime of the object.
class PANDIA_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PANDIA_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PANDIA_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

// Condition variable over Mutex. Wait() atomically releases the (held)
// mutex, blocks, and re-acquires it before returning; as with every
// condition variable, wake-ups may be spurious, so callers re-check their
// predicate in a loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) PANDIA_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    // The unique_lock re-acquired mu on wake; hand ownership back to the
    // caller's scope (typically a MutexLock) instead of unlocking here.
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace util
}  // namespace pandia

#endif  // PANDIA_SRC_UTIL_MUTEX_H_
