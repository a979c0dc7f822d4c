// Fixed-size worker thread pool for real (not simulated) parallel evaluation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dpho::hpc {

/// Simple FIFO thread pool.  Tasks must not throw unhandled exceptions other
/// than through the returned future.
///
/// parallel_for is safe to call from inside a pool task (nested parallelism):
/// the calling thread claims and executes loop indices itself rather than
/// blocking on futures, so even when every worker is occupied -- including by
/// the caller's own enclosing task -- the loop always makes progress.
///
/// Thread counts: because the caller drains indices too, parallel_for and
/// parallel_for_static on a pool of N workers compute on N + 1 threads.  A
/// ThreadPool(1) runs a loop on two cores, so a serial loop is about 2x
/// slower than the same loop on a 1-thread pool, and a "1 -> 2 threads"
/// comparison of the serial path against ThreadPool(2) is 1 -> 3 computing
/// threads.  Read pool sizes in benchmarks with this in mind.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// Enqueues a task; the future resolves with its result or exception.
  /// A worker must not block on a future for work queued behind it; use
  /// parallel_for for fork/join inside pool tasks.
  template <typename F>
  auto submit(F&& fn) -> std::future<decltype(fn())> {
    using Result = decltype(fn());
    auto task = std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      const std::scoped_lock lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// Runs fn(i) for i in [0, count) across the pool (and the calling thread)
  /// and waits for all.  The first exception, by lowest index, is rethrown
  /// after every claimed index has finished.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Zero-allocation static fork/join: runs fn(ctx, i) for i in [0, count)
  /// across the pool and the calling thread and waits for all.  Unlike
  /// parallel_for nothing is enqueued -- workers observe a generation-tagged
  /// broadcast word and claim indices with gen-checked CAS -- so steady-state
  /// callers (the MD step path) stay allocation-free.  Concurrent calls are
  /// serialized (one static loop at a time); nesting inside pool tasks is
  /// safe because the caller participates.  The first exception, by lowest
  /// index, is rethrown after every index has finished.
  void parallel_for_static(std::size_t count, void (*fn)(void*, std::size_t),
                           void* ctx);

 private:
  /// Shared state of one parallel_for: indices are claimed via `next`; the
  /// loop is complete when `remaining` reaches zero.
  struct ForLoop {
    explicit ForLoop(std::size_t count) : remaining(count) {}
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> remaining;
    std::mutex mutex;
    std::condition_variable done;
    std::exception_ptr error;                // first error by index order
    std::size_t error_index = SIZE_MAX;      // guarded by mutex
  };

  static void drain_loop(const std::shared_ptr<ForLoop>& loop, std::size_t count,
                         const std::function<void(std::size_t)>* fn);

  /// Immutable per-loop descriptor of one parallel_for_static call.  Workers
  /// copy it under mutex_ before participating, so a slow worker still
  /// draining generation G never races the publication of G+1's fields.
  struct StaticSnapshot {
    void (*fn)(void*, std::size_t) = nullptr;
    void* ctx = nullptr;
    std::uint32_t count = 0;
    std::uint32_t gen = 0;
  };

  void drain_static(const StaticSnapshot& snap);

  void worker_loop();

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stopping_ = false;

  // parallel_for_static state.  The control word packs {generation, next
  // index}; a claim succeeds only while the generation matches, so a stale
  // worker can never claim indices of a later loop.  Generation 0 means "no
  // loop has ever run".
  std::mutex static_mutex_;  // serializes parallel_for_static callers
  std::atomic<std::uint64_t> static_control_{0};
  std::atomic<std::uint32_t> static_remaining_{0};
  std::condition_variable static_done_;
  bool static_live_ = false;           // guarded by mutex_
  std::uint32_t static_gen_ = 0;       // guarded by mutex_
  StaticSnapshot static_desc_;         // guarded by mutex_
  std::exception_ptr static_error_;    // guarded by mutex_
  std::size_t static_error_index_ = SIZE_MAX;  // guarded by mutex_
};

}  // namespace dpho::hpc
