#include "core/threadpool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

namespace df::core {

namespace {

thread_local bool t_in_parallel_for = false;

// One parallel_for call. Helper jobs share ownership, so a helper that
// starts after the call returned still has a live counter to find spent.
struct ParallelFor {
  ParallelFor(size_t n, size_t grain, const std::function<void(size_t)>& fn)
      : n(n), grain(grain), fn(&fn) {}

  // Claim and run `grain` indices at a time until none are left. fn is
  // dereferenced only for a claimed index below n, and the caller does not
  // return before that index finishes, so fn is alive whenever it is called.
  void run() {
    const bool outer = std::exchange(t_in_parallel_for, true);
    for (size_t lo = next.fetch_add(grain, std::memory_order_relaxed); lo < n;
         lo = next.fetch_add(grain, std::memory_order_relaxed)) {
      const size_t hi = std::min(n, lo + grain);
      for (size_t i = lo; i < hi; ++i) {
        try {
          (*fn)(i);
        } catch (...) {
          std::lock_guard lk(mu);
          if (!error) error = std::current_exception();
        }
      }
      if (done.fetch_add(hi - lo, std::memory_order_acq_rel) + (hi - lo) == n) {
        std::lock_guard lk(mu);
        cv.notify_all();
      }
    }
    t_in_parallel_for = outer;
  }

  const size_t n, grain;
  const std::function<void(size_t)>* const fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> done{0};
  std::mutex mu;
  std::condition_variable cv;  // the last finished index wakes the caller
  std::exception_ptr error;    // first exception of this call's bodies
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard lk(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

void parallel_for(ThreadPool& pool, size_t n, const std::function<void(size_t)>& fn) {
  if (n <= 1 || t_in_parallel_for) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const size_t helpers = std::min(pool.size(), n - 1);
  // About four claims per runner keep fine-grained bodies (pooling planes)
  // off the shared counters while coarse ones still balance.
  const size_t grain = std::max<size_t>(1, n / (4 * (helpers + 1)));
  const auto call = std::make_shared<ParallelFor>(n, grain, fn);
  for (size_t h = 0; h < helpers; ++h) pool.submit([call] { call->run(); });
  call->run();
  {
    std::unique_lock lk(call->mu);
    call->cv.wait(lk, [&] { return call->done.load(std::memory_order_acquire) == n; });
  }
  if (call->error) std::rethrow_exception(call->error);
}

}  // namespace df::core
