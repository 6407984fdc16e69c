// Fixed-size worker pool. Stands in for the paper's parallel data loaders
// (24 per rank) and for the training lanes of one simulated node.
// parallel_for() is its one join; a job queued with submit() is joined by
// nobody but the destructor.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace df::core {

class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  /// Runs every job still queued, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queue a job. Workers take jobs in submit order, so a one-thread pool
  /// runs them in that order. A job that throws terminates the process, as
  /// on any std::thread: a job reports its errors itself.
  void submit(std::function<void()> job);
  size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;  // wakes workers
  bool stop_ = false;
};

/// Run fn(i) for every i in [0, n) on the calling thread and on up to
/// pool.size() helper jobs, and return once every index has finished.
/// Runners claim indices from the call's own counter, so the call never
/// waits on another caller's work or on a helper that has not started
/// (one queued behind other jobs finds nothing left to claim, and touches
/// only the call's own heap state). Any number of threads may call it on
/// one pool at once, pool workers included. Rethrows the first exception
/// thrown by this call's fn(i). A parallel_for issued from inside a body
/// runs serially on that thread.
void parallel_for(ThreadPool& pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace df::core
