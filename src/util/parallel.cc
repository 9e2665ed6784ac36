#include "src/util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <utility>

namespace pandia {
namespace util {
namespace {

std::atomic<ParallelObserver*> g_observer{nullptr};

// Set for the lifetime of a worker thread; lets ParallelFor detect nested
// calls (from any pool) without instantiating the shared pool.
thread_local const ThreadPool* g_worker_pool = nullptr;

ParallelObserver* Observer() {
  return g_observer.load(std::memory_order_acquire);
}

}  // namespace

void SetParallelObserver(ParallelObserver* observer) {
  g_observer.store(observer, std::memory_order_release);
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  size_t depth = 0;
  {
    MutexLock lock(mu_);
    queue_.push_back(std::move(task));
    depth = queue_.size();
  }
  if (ParallelObserver* observer = Observer()) {
    observer->OnTaskSubmitted(depth);
  }
  cv_.NotifyOne();
}

bool ThreadPool::OnWorkerThread() const { return g_worker_pool == this; }

void ThreadPool::WorkerLoop() {
  g_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      // Explicit wait loop (not a predicate lambda) so the thread-safety
      // analysis can see the guarded reads happen under mu_.
      while (!stop_ && queue_.empty()) {
        cv_.Wait(mu_);
      }
      if (queue_.empty()) {
        return;  // stop_ set and nothing left to drain
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    if (ParallelObserver* observer = Observer()) {
      observer->OnTaskCompleted();
    }
  }
}

ThreadPool& ThreadPool::Shared() {
  // Leaked deliberately: joining workers during static destruction would
  // race with other translation units' teardown.
  static ThreadPool* pool = new ThreadPool(
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency())));
  return *pool;
}

int ResolveJobs(int jobs) {
  if (jobs == 0) {
    const char* env = std::getenv("PANDIA_JOBS");
    jobs = env != nullptr ? std::atoi(env) : 1;
  }
  // Flat cap rather than a hardware-derived one: oversubscription is merely
  // slow, and a hardware-dependent cap would make PANDIA_JOBS behave
  // differently across runners.
  return std::clamp(jobs, 1, 256);
}

void ParallelFor(size_t n, int jobs, const std::function<void(size_t)>& fn) {
  const size_t resolved = static_cast<size_t>(ResolveJobs(jobs));
  const size_t chunks = std::min(resolved, n);
  // Nested ParallelFor (fn itself fanning out) runs serially: the outer
  // call already owns the workers, and a worker blocking on sub-chunks
  // could starve the pool.
  if (chunks <= 1 || g_worker_pool != nullptr) {
    if (ParallelObserver* observer = Observer()) {
      observer->OnParallelFor(n, 1);
    }
    for (size_t i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  if (ParallelObserver* observer = Observer()) {
    observer->OnParallelFor(n, static_cast<int>(chunks));
  }

  std::vector<std::exception_ptr> errors(chunks);
  auto run_chunk = [&](size_t c) {
    const size_t begin = c * n / chunks;
    const size_t end = (c + 1) * n / chunks;
    try {
      for (size_t i = begin; i < end; ++i) {
        fn(i);
      }
    } catch (...) {
      errors[c] = std::current_exception();
    }
  };

  Mutex done_mu{"parallel.done", kLockRankParallelDone};
  CondVar done_cv;
  size_t outstanding = chunks - 1;  // guarded by done_mu
  ThreadPool& pool = ThreadPool::Shared();
  for (size_t c = 1; c < chunks; ++c) {
    pool.Submit([&, c] {
      run_chunk(c);
      {
        MutexLock lock(done_mu);
        --outstanding;
        // Notify while holding the lock: the waiter can only re-check the
        // predicate (and then destroy these stack-local sync objects) after
        // we release it, so NotifyOne never touches a dead cv — and
        // Mutex::Unlock reads none of done_mu's members after the release.
        done_cv.NotifyOne();
      }
    });
  }
  run_chunk(0);
  {
    MutexLock lock(done_mu);
    while (outstanding != 0) {
      done_cv.Wait(done_mu);
    }
  }
  // Deterministic propagation: the lowest-index chunk's exception wins,
  // independent of which worker finished first.
  for (const std::exception_ptr& error : errors) {
    if (error) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace util
}  // namespace pandia
