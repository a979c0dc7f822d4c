#include "hpc/thread_pool.hpp"

#include <utility>

#include "util/error.hpp"

namespace dpho::hpc {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) throw util::ValueError("thread pool needs >= 1 thread");
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::scoped_lock lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::worker_loop() {
  // Last static-loop generation this worker drained: without it a worker
  // would busy-spin on the wait predicate between loop exhaustion and the
  // caller clearing static_live_.
  std::uint32_t seen_static_gen = 0;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      wake_.wait(lock, [&] {
        return stopping_ || !queue_.empty() ||
               (static_live_ && static_gen_ != seen_static_gen);
      });
      if (static_live_ && static_gen_ != seen_static_gen) {
        seen_static_gen = static_gen_;
        const StaticSnapshot snap = static_desc_;
        lock.unlock();
        drain_static(snap);
        continue;
      }
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::drain_loop(const std::shared_ptr<ForLoop>& loop, std::size_t count,
                            const std::function<void(std::size_t)>* fn) {
  for (;;) {
    const std::size_t i = loop->next.fetch_add(1, std::memory_order_relaxed);
    // After exhaustion, return without touching *fn: late-running helper
    // tasks may outlive the parallel_for call frame that owns it.
    if (i >= count) return;
    try {
      (*fn)(i);
    } catch (...) {
      const std::scoped_lock lock(loop->mutex);
      if (i < loop->error_index) {
        loop->error_index = i;
        loop->error = std::current_exception();
      }
    }
    if (loop->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last index done: wake the waiter under the lock so the notification
      // cannot slip between its predicate check and its wait.
      const std::scoped_lock lock(loop->mutex);
      loop->done.notify_all();
    }
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  auto loop = std::make_shared<ForLoop>(count);

  // Helper tasks share the index counter with the caller; any helper that
  // arrives after the loop is exhausted returns immediately.
  const std::size_t helpers = std::min(count, threads_.size());
  {
    const std::scoped_lock lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      queue_.emplace_back([loop, count, fnp = &fn] { drain_loop(loop, count, fnp); });
    }
  }
  if (helpers == 1) {
    wake_.notify_one();
  } else if (helpers > 1) {
    wake_.notify_all();
  }

  // The caller participates: even if every worker is blocked inside an
  // enclosing parallel_for (nested use), this thread completes the loop.
  drain_loop(loop, count, &fn);

  {
    std::unique_lock lock(loop->mutex);
    loop->done.wait(lock, [&] {
      return loop->remaining.load(std::memory_order_acquire) == 0;
    });
    // Take the exception out: a helper may drop the last ForLoop reference
    // after we return, and must not be the thread that frees it.
    if (loop->error) std::rethrow_exception(std::exchange(loop->error, nullptr));
  }
}

void ThreadPool::drain_static(const StaticSnapshot& snap) {
  std::uint64_t control = static_control_.load(std::memory_order_relaxed);
  while ((control >> 32) == snap.gen &&
         (control & 0xffffffffu) < snap.count) {
    const std::uint32_t i = static_cast<std::uint32_t>(control & 0xffffffffu);
    if (!static_control_.compare_exchange_weak(
            control, (std::uint64_t{snap.gen} << 32) | (i + 1u),
            std::memory_order_acq_rel, std::memory_order_relaxed)) {
      continue;  // `control` was reloaded by the failed CAS
    }
    try {
      snap.fn(snap.ctx, i);
    } catch (...) {
      const std::scoped_lock lock(mutex_);
      if (i < static_error_index_) {
        static_error_index_ = i;
        static_error_ = std::current_exception();
      }
    }
    if (static_remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last index done: wake the waiter under the lock so the notification
      // cannot slip between its predicate check and its wait.
      const std::scoped_lock lock(mutex_);
      static_done_.notify_all();
    }
    control = static_control_.load(std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for_static(std::size_t count,
                                     void (*fn)(void*, std::size_t), void* ctx) {
  if (count == 0) return;
  if (fn == nullptr) throw util::ValueError("parallel_for_static: fn is null");
  if (count > 0xffffffffu) {
    throw util::ValueError("parallel_for_static: count exceeds 2^32-1");
  }
  if (count == 1) {
    fn(ctx, 0);
    return;
  }

  const std::scoped_lock serial(static_mutex_);
  StaticSnapshot snap;
  snap.fn = fn;
  snap.ctx = ctx;
  snap.count = static_cast<std::uint32_t>(count);
  {
    const std::scoped_lock lock(mutex_);
    if (++static_gen_ == 0) ++static_gen_;  // gen 0 is reserved for "never"
    snap.gen = static_gen_;
    static_desc_ = snap;
    static_error_ = nullptr;
    static_error_index_ = SIZE_MAX;
    static_remaining_.store(snap.count, std::memory_order_relaxed);
    static_control_.store(std::uint64_t{snap.gen} << 32,
                          std::memory_order_release);
    static_live_ = true;
  }
  wake_.notify_all();

  // The caller participates, so the loop completes even when every worker is
  // occupied by an enclosing task (nested use).
  drain_static(snap);

  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    static_done_.wait(lock, [&] {
      return static_remaining_.load(std::memory_order_acquire) == 0;
    });
    static_live_ = false;
    error = static_error_;
    static_error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace dpho::hpc
