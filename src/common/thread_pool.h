#ifndef GANNS_COMMON_THREAD_POOL_H_
#define GANNS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace ganns {

/// Fixed-size worker pool used to execute independent simulator blocks (and
/// brute-force ground-truth shards) concurrently on the host.
///
/// Determinism note: callers must make tasks independent and aggregate results
/// by task index, never by completion order. All code in this repository
/// follows that rule, so results are identical for any pool size (including
/// the single-core machines this reproduction was developed on).
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (0 means hardware concurrency).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool of GlobalSize() workers.
  static ThreadPool& Global();

  /// Worker count of Global(): the positive integer in the GANNS_THREADS
  /// environment variable, or hardware concurrency when it is unset. Any
  /// other value is a fatal error naming the variable.
  static std::size_t GlobalSize();

  std::size_t num_threads() const { return threads_.size(); }

  /// Runs fn(i) for i in [0, n) and blocks until all calls return.
  ///
  /// Scheduling is dynamic: indices are handed out in chunks from a shared
  /// atomic counter, so workers that draw cheap iterations (e.g. small
  /// construction blocks) keep pulling work instead of idling behind a
  /// statically assigned shard — wall time tracks total work, not the
  /// busiest shard. The calling thread participates in the loop.
  ///
  /// Nesting: a call made from inside a worker task shares the pool like any
  /// other call, so e.g. a per-shard task's kernel launch spreads its blocks
  /// over every worker. This cannot deadlock: the caller drains chunks until
  /// every index is claimed, then waits only for claimed indices to finish
  /// — never for a queued helper to start — and nesting depth is finite.
  /// A helper that starts after the range is drained exits without touching
  /// the caller's frame or `fn`.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Lifetime scheduling counters. Every field is a function of the
  /// ParallelFor call sequence alone (chunks_claimed is exactly
  /// sum(ceil(n / chunk)) over dynamic calls), so totals are identical for
  /// any thread interleaving — they can appear in deterministic exports.
  struct Stats {
    std::uint64_t parallel_for_calls = 0;  ///< ParallelFor invocations
    /// Calls that ran inline on the caller: n == 1, or a single-worker pool.
    std::uint64_t inline_runs = 0;
    std::uint64_t chunks_claimed = 0;  ///< dynamic chunks handed out
    std::uint64_t helper_tasks = 0;    ///< worker tasks enqueued
  };

  Stats stats() const {
    return {parallel_for_calls_.load(std::memory_order_relaxed),
            inline_runs_.load(std::memory_order_relaxed),
            chunks_claimed_.load(std::memory_order_relaxed),
            helper_tasks_.load(std::memory_order_relaxed)};
  }

 private:
  void WorkerLoop();

  std::vector<std::thread> threads_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool shutting_down_ = false;
  std::atomic<std::uint64_t> parallel_for_calls_{0};
  std::atomic<std::uint64_t> inline_runs_{0};
  std::atomic<std::uint64_t> chunks_claimed_{0};
  std::atomic<std::uint64_t> helper_tasks_{0};
};

}  // namespace ganns

#endif  // GANNS_COMMON_THREAD_POOL_H_
