// Simulated Lassen-like cluster description (DESIGN.md substitution #2).
// Node geometry follows the paper §3.2: 4 NVIDIA V100s, 44 Power9 cores and
// 256 GB per node. The per-job failure model encodes the §4.3 observation
// that inter-node communication instability grows sharply with job width,
// and the FaultInjector hierarchy turns that model into deterministic,
// replayable job deaths the campaign driver can schedule around.
#pragma once

#include <cstdint>
#include <map>
#include <utility>

namespace df::screen {

struct NodeSpec {
  int gpus = 4;
  int cpu_cores = 44;
  double gpu_memory_gb = 16.0;
  double node_memory_gb = 256.0;
};

/// Probability that a job of `nodes_per_job` nodes dies from the
/// Horovod/PyTorch instability the paper measured: ~2% at 1-2 nodes,
/// ~3% at 4, ~20% at 8.
double job_failure_probability(int nodes_per_job);

/// GPU-memory check: a model instance plus `batch_size` poses must fit on
/// one GPU. The paper: 1.5 GB model + 56-pose batches on a 16 GB V100.
bool batch_fits_gpu(double model_gb, double per_pose_gb, int batch_size, const NodeSpec& node);

/// Decides which jobs die and where. Every decision is a pure function of
/// (campaign seed, work-unit id, attempt), never of wall-clock, thread
/// count, or submission order — a killed-and-resumed campaign replays the
/// exact failure history of an uninterrupted one, which is what makes
/// resumed == uninterrupted testable bit-for-bit.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// Returns the rank that dies during attempt `attempt` of work unit
  /// `unit_id` on a `nodes`-wide, `ranks`-rank job, or -1 for a clean run.
  virtual int doomed_rank(uint64_t campaign_seed, uint32_t unit_id, int attempt, int nodes,
                          int ranks) = 0;
};

/// Samples the §4.3 width-dependent failure table through a stream derived
/// from (seed, unit, attempt).
class StochasticFaultInjector : public FaultInjector {
 public:
  int doomed_rank(uint64_t campaign_seed, uint32_t unit_id, int attempt, int nodes,
                  int ranks) override;
};

/// Test double: kills exactly the (unit, attempt) pairs it was told to,
/// at the rank it was told to. Everything else runs clean.
class ScriptedFaultInjector : public FaultInjector {
 public:
  void doom(uint32_t unit_id, int attempt, int rank) {
    doomed_[{unit_id, attempt}] = rank;
  }
  int doomed_rank(uint64_t /*campaign_seed*/, uint32_t unit_id, int attempt, int /*nodes*/,
                  int /*ranks*/) override {
    auto it = doomed_.find({unit_id, attempt});
    return it == doomed_.end() ? -1 : it->second;
  }

 private:
  std::map<std::pair<uint32_t, int>, int> doomed_;
};

}  // namespace df::screen
