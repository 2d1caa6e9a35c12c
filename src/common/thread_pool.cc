#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <memory>

#include "common/logging.h"

namespace ganns {
namespace {

// Per-call state of one dynamic ParallelFor. It lives on the heap, co-owned
// by the caller and every helper task the call enqueued, so a helper that
// starts after the caller returned touches only this block: it finds the
// range drained and exits without ever dereferencing `fn`.
struct ForState {
  const std::size_t n;
  const std::size_t chunk;
  // Points into the caller's frame; valid until `done` reaches `n`, and only
  // dereferenced by a thread holding an unfinished claimed chunk.
  const std::function<void(std::size_t)>* const fn;
  std::atomic<std::size_t> next{0};  // claim counter
  std::atomic<std::size_t> done{0};  // indices whose fn(i) has returned
  std::mutex mutex;
  bool finished = false;  // done == n; guarded by `mutex`
  std::condition_variable all_done;
};

// Claims chunks off `state` and runs them until the range is drained.
void Drain(ForState& state, std::atomic<std::uint64_t>& chunks_claimed) {
  for (;;) {
    const std::size_t begin =
        state.next.fetch_add(state.chunk, std::memory_order_relaxed);
    if (begin >= state.n) return;
    chunks_claimed.fetch_add(1, std::memory_order_relaxed);
    const std::size_t end = std::min(state.n, begin + state.chunk);
    for (std::size_t i = begin; i < end; ++i) (*state.fn)(i);
    // acq_rel chains every chunk's writes through `done` to whichever
    // thread completes the range; that thread hands them on to the caller
    // through `mutex`.
    const std::size_t count = end - begin;
    if (state.done.fetch_add(count, std::memory_order_acq_rel) + count ==
        state.n) {
      std::lock_guard<std::mutex> lock(state.mutex);
      state.finished = true;
      state.all_done.notify_all();
    }
  }
}

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
  static ThreadPool* pool = new ThreadPool(GlobalSize());
  return *pool;
}

std::size_t ThreadPool::GlobalSize() {
  const char* env = std::getenv("GANNS_THREADS");
  if (env == nullptr) {
    return std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(env, &end, 10);
  GANNS_CHECK_MSG(std::isdigit(static_cast<unsigned char>(*env)) &&
                      *end == '\0' && errno == 0 && parsed > 0,
                  "GANNS_THREADS must be a positive integer, got '" << env
                                                                    << "'");
  return static_cast<std::size_t>(parsed);
}

void ThreadPool::WorkerLoop() {
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
  // Trivial loops and single-worker pools (where the caller would execute
  // everything anyway) run inline.
  if (threads_.size() <= 1 || n == 1) {
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
  const auto state = std::make_shared<ForState>(n, chunk, &fn);

  const std::size_t num_helpers =
      std::min(threads_.size(), (n + chunk - 1) / chunk);
  helper_tasks_.fetch_add(num_helpers, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < num_helpers; ++h) {
      tasks_.push([this, state] { Drain(*state, chunks_claimed_); });
    }
  }
  task_ready_.notify_all();

  Drain(*state, chunks_claimed_);  // the caller works too

  // Every index is claimed by now, each by a thread that is running it, so
  // the wait is for work in progress — never for a helper still queued.
  // That is what lets a worker block here inside a nested call.
  std::unique_lock<std::mutex> lock(state->mutex);
  state->all_done.wait(lock, [&] { return state->finished; });
}

}  // namespace ganns
