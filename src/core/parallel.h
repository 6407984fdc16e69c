// Explicit-pool fan-out for layers that own their parallelism: training
// engine lanes, PB2 population members and a pipelined replica's forward
// lanes (serve/scorer.h). Numeric kernels (gemm, conv, pooling, graph-conv
// tiles, voxel splatting) never fan out: each runs on its calling thread,
// and a caller that wants more cores splits its work above them.
#pragma once

#include <cstddef>
#include <functional>

namespace df::core {

class ThreadPool;

/// Run fn(i) for i in [0, n) through parallel_for on `pool`, serially on the
/// calling thread when it is nullptr. Exceptions propagate in either mode.
void parallel_for_on(ThreadPool* pool, size_t n, const std::function<void(size_t)>& fn);

}  // namespace df::core
