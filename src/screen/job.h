// One Fusion scoring job (paper Fig. 3): a fixed set of poses is divided
// across ranks (nodes x GPUs, one client per rank here); each rank streams
// its subset to the shared serve::ScoringService, which featurizes and
// scores it in micro-batches on per-worker model replicas. Results are
// allgathered and written in parallel. Failure injection reproduces the
// §4.3 instability, and — like the real pipeline — a failed job writes
// nothing (results are only flushed after scoring completes), so reruns are
// idempotent.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "chem/graph_featurizer.h"
#include "chem/voxelizer.h"
#include "models/regressor.h"
#include "screen/cluster.h"

namespace df::core {
class ThreadPool;
}

namespace df::serve {
class ScoringService;
}

namespace df::screen {

struct PoseWorkItem {
  int64_t compound_id = 0;
  int32_t target_id = 0;
  int32_t pose_id = 0;
  chem::Molecule ligand;                        // posed conformer
  const std::vector<chem::Atom>* pocket = nullptr;
  core::Vec3 site_center;
};

struct JobConfig {
  int nodes = 4;
  int gpus_per_node = 4;           // ranks = nodes * gpus_per_node
  uint64_t seed = 99;              // stream of the inject_failures draw
  bool inject_failures = false;    // sample §4.3 failure probabilities
  // When set, the campaign's FaultInjector has already decided this job's
  // fate: >= 0 kills that rank mid-eval, -1 runs clean. Overrides
  // inject_failures, keeping all fault randomness keyed on stable work-unit
  // ids instead of per-job engine state.
  std::optional<int> doomed_rank;
  int poses_per_batch = 32;        // service micro-batch size built from this
                                   // config (campaign compat path)
  core::ThreadPool* pool = nullptr;  // shared worker pool (not owned); rank
                                     // clients run as pool jobs when set, as
                                     // raw std::threads otherwise
  chem::VoxelConfig voxel;         // featurization of the compat-path scorer
  chem::GraphFeaturizerConfig graph;
  std::string output_prefix;       // empty = don't write files
};

struct JobReport {
  bool failed = false;
  int failed_rank = -1;
  int poses_scored = 0;
  double startup_seconds = 0;      // service warmup (replica construction);
                                   // ~0 once the service is warm
  double eval_seconds = 0;
  double output_seconds = 0;
  double poses_per_second = 0;     // eval-phase rate
  // Allgathered results (empty when failed, like the real pipeline).
  std::vector<int64_t> compound_ids;
  std::vector<int64_t> target_ids;
  std::vector<int64_t> pose_ids;
  std::vector<float> predictions;
  std::vector<std::string> output_files;
};

/// Per-replica model builder — the legacy name for models::RegressorFactory,
/// kept for the campaign's compatibility overload (serve::add_regressor is
/// the registry-native way to plug one in).
using ModelFactory = models::RegressorFactory;

class FusionScoringJob {
 public:
  explicit FusionScoringJob(JobConfig cfg) : cfg_(std::move(cfg)) {}

  /// Score `items` through `service` with the named scorer. The job is a
  /// client: ranks submit contiguous pose slices and await their futures;
  /// the service owns featurization, batching and model replicas. A service
  /// in ordered-stream mode makes the predictions bit-reproducible at any
  /// service worker count. Service-side typed errors (unknown scorer,
  /// shutdown, scorer failure) surface as std::runtime_error.
  JobReport run(const std::vector<PoseWorkItem>& items, serve::ScoringService& service,
                const std::string& scorer) const;

  const JobConfig& config() const { return cfg_; }

 private:
  JobConfig cfg_;
};

}  // namespace df::screen
