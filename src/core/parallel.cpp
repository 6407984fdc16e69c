#include "core/parallel.h"

#include "core/threadpool.h"

namespace df::core {

namespace {

thread_local ThreadPool* t_compute_pool = nullptr;

// The pool this thread's kernels fan out to, or nullptr to stay serial.
ThreadPool* compute_pool() { return in_parallel_for() ? nullptr : t_compute_pool; }

}  // namespace

ComputePoolGuard::ComputePoolGuard(ThreadPool* pool) : previous_(t_compute_pool) {
  t_compute_pool = pool;
}

ComputePoolGuard::~ComputePoolGuard() { t_compute_pool = previous_; }

size_t compute_lanes() {
  const ThreadPool* pool = compute_pool();
  return pool != nullptr ? pool->size() + 1 : 1;
}

void parallel_for_auto(size_t n, size_t min_parallel, const std::function<void(size_t)>& fn) {
  ThreadPool* pool = compute_pool();
  parallel_for_on(n >= min_parallel ? pool : nullptr, n, fn);
}

void parallel_for_on(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    parallel_for(*pool, n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace df::core
