// Per-thread compute-pool hook. Numeric kernels (gemm, conv lowering,
// voxel splatting, pooling, graph-conv tiles) are leaf code that cannot
// know who owns the threads, so they pick up the pool installed for the
// calling thread and run serially when none is — or when they already run
// inside a parallel_for body, which keeps parallel regions from nesting.
// A thread without a guard (a service worker, a pool worker running a
// job) computes serially; a pool is lent to exactly the threads that
// install it.
#pragma once

#include <cstddef>
#include <functional>

namespace df::core {

class ThreadPool;

/// RAII installer of the calling thread's compute pool (nullptr = serial)
/// for the guard's lifetime; the previous one comes back on destruction.
/// Not owned: the pool must outlive the guard.
class ComputePoolGuard {
 public:
  explicit ComputePoolGuard(ThreadPool* pool);
  ~ComputePoolGuard();
  ComputePoolGuard(const ComputePoolGuard&) = delete;
  ComputePoolGuard& operator=(const ComputePoolGuard&) = delete;

 private:
  ThreadPool* previous_;
};

/// Threads a kernel's parallel region runs on: the calling thread plus the
/// workers of its compute pool, or 1 when its kernels run serially. Kernels
/// size their chunks by it, which changes no bit.
size_t compute_lanes();

/// Run fn(i) for i in [0, n) through parallel_for on the calling thread's
/// compute pool when it has one and n >= min_parallel; otherwise serially
/// on the calling thread. Exceptions thrown by fn propagate in either mode.
void parallel_for_auto(size_t n, size_t min_parallel, const std::function<void(size_t)>& fn);

/// Run fn(i) for i in [0, n) through parallel_for on `pool`, serially on the
/// calling thread when it is nullptr. Unlike parallel_for_auto this takes
/// an explicit pool — used by layers that own their parallelism (training
/// engine lanes, PB2 population members) rather than borrowing a compute
/// pool. Exceptions propagate in either mode.
void parallel_for_on(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace df::core
