#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace ganns {
namespace {

thread_local bool tls_in_worker = false;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (auto& thread : threads_) thread.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

bool ThreadPool::InWorker() { return tls_in_worker; }

void ThreadPool::WorkerLoop() {
  tls_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  parallel_for_calls_.fetch_add(1, std::memory_order_relaxed);
  // Nested call from inside a worker task: queueing would have the enclosing
  // task wait on workers that may all be blocked the same way, so run inline
  // on this thread. Same for trivial loops and pools with a single worker
  // (where the caller would execute everything anyway).
  if (tls_in_worker || threads_.size() <= 1 || n == 1) {
    inline_runs_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Dynamic chunked scheduler: helpers and the caller repeatedly claim the
  // next `chunk` indices from a shared counter until the range is drained.
  // Aiming for ~8 chunks per thread keeps the claim overhead negligible
  // while still smoothing out wildly unequal per-index cost.
  const std::size_t chunk =
      std::max<std::size_t>(1, n / (threads_.size() * 8));
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (;;) {
      const std::size_t begin =
          next.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n) break;
      chunks_claimed_.fetch_add(1, std::memory_order_relaxed);
      const std::size_t end = std::min(n, begin + chunk);
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }
  };

  const std::size_t num_helpers =
      std::min(threads_.size(), (n + chunk - 1) / chunk);
  helper_tasks_.fetch_add(num_helpers, std::memory_order_relaxed);
  // `live`, `done_mutex` and `done_cv` live on this stack frame, so a helper
  // must finish touching them before the caller can see live == 0: it
  // decrements and notifies under `done_mutex`, which the caller's wait
  // reacquires before returning.
  std::size_t live = num_helpers;
  std::mutex done_mutex;
  std::condition_variable done_cv;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < num_helpers; ++h) {
      tasks_.push([&] {
        drain();
        std::lock_guard<std::mutex> done_lock(done_mutex);
        if (--live == 0) done_cv.notify_one();
      });
    }
  }
  task_ready_.notify_all();

  drain();  // the caller works too instead of blocking immediately

  std::unique_lock<std::mutex> lock(done_mutex);
  done_cv.wait(lock, [&] { return live == 0; });
}

}  // namespace ganns
