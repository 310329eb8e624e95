// Persistent worker-thread pool for the control plane's parallel sections.
//
// Two consumers, two entry points:
//  * FederationCoordinator's per-cell rounds use ParallelFor(): the calling
//    thread participates as a worker, so a pool of W threads drives W+1
//    shards and a pool of zero threads degenerates to a plain loop —
//    callers never special-case "no pool".
//  * RacingSolver uses Submit(): one long-lived worker replaces the
//    std::thread it used to spawn (and join) every scheduling round, taking
//    thread-creation latency out of the per-round critical path.
//
// Design notes: jobs capture their coordination state by shared_ptr, so a
// job that is still queued when its ParallelFor caller has already returned
// (possible only on the error-free fast path where other workers finished
// the shard range first) runs harmlessly against state it co-owns. The pool
// never throws work away; the destructor drains the queue before joining.

#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace firmament {

class ThreadPool {
 public:
  // Spawns `threads` workers (0 is valid: every entry point then runs
  // inline on the calling thread).
  explicit ThreadPool(size_t threads) {
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_) {
      worker.join();
    }
  }

  size_t num_threads() const { return workers_.size(); }

  // Reasonable default worker count for this host: one less than the
  // hardware concurrency (the calling thread participates in ParallelFor),
  // at least zero.
  static size_t DefaultThreads() {
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 1 ? static_cast<size_t>(hw - 1) : 0;
  }

  // Runs fn(shard) for every shard in [0, shards), distributing shards
  // across the pool's workers AND the calling thread; returns when every
  // shard has completed. fn must not re-enter the pool.
  void ParallelFor(size_t shards, const std::function<void(size_t)>& fn) {
    if (shards == 0) {
      return;
    }
    if (workers_.empty() || shards == 1) {
      for (size_t i = 0; i < shards; ++i) {
        fn(i);
      }
      return;
    }
    struct ForState {
      std::atomic<size_t> next{0};
      std::atomic<size_t> done{0};
      size_t total = 0;
      const std::function<void(size_t)>* fn = nullptr;
      std::mutex mutex;
      std::condition_variable all_done;
    };
    auto state = std::make_shared<ForState>();
    state->total = shards;
    state->fn = &fn;

    auto drain = [](const std::shared_ptr<ForState>& s) {
      size_t i;
      while ((i = s->next.fetch_add(1, std::memory_order_relaxed)) < s->total) {
        (*s->fn)(i);
        if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->total) {
          std::unique_lock<std::mutex> lock(s->mutex);
          s->all_done.notify_all();
        }
      }
    };

    // One drainer job per worker (capped by the shard count); the calling
    // thread drains too, so no shard waits on a busy pool.
    size_t helpers = std::min(workers_.size(), shards - 1);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (size_t i = 0; i < helpers; ++i) {
        queue_.emplace_back([state, drain] { drain(state); });
      }
    }
    wake_.notify_all();
    drain(state);
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == state->total;
    });
    // `fn` outlives this call only through `state->fn`; stale drainer jobs
    // that wake later see next >= total and never touch it.
  }

  // Ticket for one Submit()ted job; Wait() blocks until it has run.
  class Ticket {
   public:
    void Wait() {
      std::unique_lock<std::mutex> lock(state_->mutex);
      state_->cv.wait(lock, [&] { return state_->done; });
    }

    // Non-blocking completion probe; lets a pipelined caller poll an
    // in-flight job while it drains other work.
    bool Done() const {
      std::unique_lock<std::mutex> lock(state_->mutex);
      return state_->done;
    }

   private:
    friend class ThreadPool;
    struct State {
      std::mutex mutex;
      std::condition_variable cv;
      bool done = false;
    };
    std::shared_ptr<State> state_ = std::make_shared<State>();
  };

  // Enqueues fn on a pool worker and returns a ticket to wait on. With an
  // empty pool, runs fn inline before returning (the ticket is already
  // signalled).
  Ticket Submit(std::function<void()> fn) {
    Ticket ticket;
    auto state = ticket.state_;
    auto job = [state, fn = std::move(fn)] {
      fn();
      std::unique_lock<std::mutex> lock(state->mutex);
      state->done = true;
      state->cv.notify_all();
    };
    if (workers_.empty()) {
      job();
      return ticket;
    }
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_.emplace_back(std::move(job));
    }
    wake_.notify_one();
    return ticket;
  }

 private:
  void WorkerLoop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
          return;  // stop_ with a drained queue
        }
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
};

}  // namespace firmament

#endif  // SRC_BASE_THREAD_POOL_H_
