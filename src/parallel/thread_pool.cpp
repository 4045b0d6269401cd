#include "parallel/thread_pool.hpp"

#include <utility>

#include "util/fault.hpp"

namespace cobra::par {

namespace {
// Which pool (if any) owns the current thread. Workers set this on entry to
// worker_loop; everything else sees nullptr.
thread_local const ThreadPool* t_owning_pool = nullptr;
}  // namespace

bool ThreadPool::on_worker_thread() const noexcept {
  return t_owning_pool == this;
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    // Fault site `pool.thread_spawn` (GRACEFUL): a worker fails to start
    // (real std::thread ctors throw resource_unavailable_try_again under
    // thread-limit pressure). The pool comes up smaller instead of dying,
    // but always keeps at least one worker so submitted tasks make
    // progress. The engine's results are thread-count-invariant by
    // contract, so a shrunken pool must not change any trajectory.
    if (i > 0 && util::fault::should_fail("pool.thread_spawn")) continue;
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    // Drain outstanding work before tearing down so submitted tasks always
    // run exactly once (tasks may hold references to caller state).
    all_done_.wait(lock, [this] { return in_flight_ == 0; });
    stopping_ = true;
  }
  task_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::worker_loop() {
  t_owning_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      task_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // run without the lock; exceptions would terminate — tasks are
             // required to be noexcept in spirit (Monte-Carlo driver wraps).
    {
      const std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace cobra::par
