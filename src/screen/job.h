// One Fusion scoring job (paper Fig. 3): a fixed set of poses is divided
// across ranks (nodes x GPUs); each rank submits its contiguous subset as
// one request to the shared serve::ScoringService, whose workers featurize
// and score it in micro-batches on per-worker model replicas. Results are
// allgathered and written in parallel. Failure injection reproduces the
// §4.3 instability, and — like the real pipeline — a failed job writes
// nothing (results are only flushed after scoring completes), so reruns are
// idempotent.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "chem/graph_featurizer.h"
#include "chem/voxelizer.h"
#include "models/regressor.h"
#include "screen/cluster.h"

namespace df::serve {
class ScoringService;
enum class ScoreError;
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
  int poses_per_batch = 32;        // service micro-batch size built from this
                                   // config (campaign compat path)
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

/// A typed scoring-service error surfaced by FusionScoringJob::run, carrying
/// the first failing rank's ScoreError: a campaign retries a scorer failure
/// as a failed job but ends on a stopped service (kShutdown).
class ScoringJobError : public std::runtime_error {
 public:
  ScoringJobError(serve::ScoreError error, const std::string& what)
      : std::runtime_error(what), error_(error) {}
  serve::ScoreError error() const { return error_; }

 private:
  serve::ScoreError error_;
};

class FusionScoringJob {
 public:
  /// Throws std::invalid_argument when nodes or gpus_per_node is below 1.
  explicit FusionScoringJob(JobConfig cfg);

  /// Score `items` through `service` with the named scorer. The job is a
  /// client that owns no threads: the calling thread submits each rank's
  /// contiguous pose slice as one request and awaits every future; the
  /// service owns featurization, batching and model replicas. A service in
  /// ordered-stream mode makes the predictions bit-reproducible at any
  /// service worker count. A doomed rank fails the job before anything is
  /// submitted. An unknown scorer throws std::out_of_range at startup; other
  /// typed service errors surface as ScoringJobError once every request
  /// has resolved, since the requests borrow the items' pockets until then.
  JobReport run(std::span<const PoseWorkItem> items, serve::ScoringService& service,
                const std::string& scorer) const;

  const JobConfig& config() const { return cfg_; }

 private:
  JobConfig cfg_;
};

}  // namespace df::screen
