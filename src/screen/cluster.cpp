#include "screen/cluster.h"

#include "core/rng.h"

namespace df::screen {

namespace {
// Stream tag for fault-injection draws; keeps them independent of the
// other streams (assay noise) derived from the same campaign seed.
constexpr uint64_t kFaultStreamTag = 0x4641554c54ULL;  // "FAULT"
}  // namespace

double job_failure_probability(int nodes_per_job) {
  if (nodes_per_job <= 2) return 0.02;
  if (nodes_per_job <= 4) return 0.03;
  if (nodes_per_job <= 6) return 0.08;
  return 0.20;
}

bool batch_fits_gpu(double model_gb, double per_pose_gb, int batch_size, const NodeSpec& node) {
  return model_gb + per_pose_gb * batch_size <= node.gpu_memory_gb;
}

int StochasticFaultInjector::doomed_rank(uint64_t campaign_seed, uint32_t unit_id, int attempt,
                                         int nodes, int ranks) {
  core::Rng rng(core::derive_stream(
      campaign_seed, kFaultStreamTag,
      (static_cast<uint64_t>(unit_id) << 8) | static_cast<uint64_t>(attempt & 0xff)));
  if (!rng.bernoulli(job_failure_probability(nodes))) return -1;
  return static_cast<int>(rng.randint(0, ranks - 1));
}

}  // namespace df::screen
