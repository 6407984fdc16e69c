// Fixed-size worker pool. Stands in for the paper's parallel data loaders
// (24 per rank) and for Horovod ranks inside one simulated node: work is
// pushed as std::function jobs and joined with wait_idle(), mirroring the
// fork/allgather structure of a Fusion scoring job (paper Fig. 3).
//
// Jobs that throw do not kill the worker: the first exception is captured
// and rethrown from the next wait_idle() join, so a failing rank surfaces
// at the barrier instead of calling std::terminate. parallel_for() joins
// per call instead and rethrows only its own bodies' exceptions.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
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
  /// runs them in that order.
  void submit(std::function<void()> job);
  /// Block until the queue is empty and all workers are idle. Rethrows the
  /// first exception any submitted job threw since the last join (remaining
  /// queued jobs still run to completion first). wait_idle() assumes one
  /// logical submitter/joiner at a time: concurrent joiners block on each
  /// other's jobs and may receive each other's exceptions. parallel_for()
  /// has no such caveat.
  void wait_idle();
  size_t size() const { return workers_.size(); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;       // wakes workers
  std::condition_variable idle_cv_;  // wakes wait_idle
  std::exception_ptr first_error_;   // first job exception since last join
  size_t active_ = 0;
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

/// True while the calling thread runs a parallel_for body.
bool in_parallel_for();

}  // namespace df::core
