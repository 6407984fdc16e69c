#include "core/parallel.h"

#include "core/threadpool.h"

namespace df::core {

void parallel_for_on(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    parallel_for(*pool, n, fn);
    return;
  }
  for (size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace df::core
