// One persistent worker thread that runs submitted jobs in FIFO order.
//
// RacingSolver owns two: one for the race's cost-scaling leg and one for
// SolveAsync's dispatch. A long-lived worker replaces a std::thread spawned
// (and joined) every scheduling round, taking thread-creation latency out of
// the round's critical path; a wakeup costs a futex.
//
// The worker never throws work away; the destructor drains the queue before
// joining.

#ifndef SRC_BASE_WORKER_THREAD_H_
#define SRC_BASE_WORKER_THREAD_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

namespace firmament {

class WorkerThread {
 public:
  WorkerThread() : thread_([this] { Loop(); }) {}

  WorkerThread(const WorkerThread&) = delete;
  WorkerThread& operator=(const WorkerThread&) = delete;

  ~WorkerThread() {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    thread_.join();
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
    friend class WorkerThread;
    struct State {
      std::mutex mutex;
      std::condition_variable cv;
      bool done = false;
    };
    std::shared_ptr<State> state_ = std::make_shared<State>();
  };

  // Enqueues fn on the worker and returns a ticket to wait on.
  Ticket Submit(std::function<void()> fn) {
    Ticket ticket;
    auto state = ticket.state_;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_.emplace_back([state, fn = std::move(fn)] {
        fn();
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done = true;
        state->cv.notify_all();
      });
    }
    wake_.notify_one();
    return ticket;
  }

 private:
  void Loop() {
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

  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread thread_;  // declared last: starts once the state above exists
};

}  // namespace firmament

#endif  // SRC_BASE_WORKER_THREAD_H_
