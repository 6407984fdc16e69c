// Data-parallel deterministic training engine (paper §3.2: Horovod-style
// data parallelism, per-sample gradient accumulation within a batch, an
// optimizer step per batch, prefetching loaders, per-epoch validation MSE —
// the PB2 objective).
//
// Parallel structure and the determinism contract
// -----------------------------------------------
// Each batch is split into a FIXED number of gradient shards
// (`TrainConfig::grad_shards`, independent of the worker count); worker
// lanes — private model replicas built from `TrainConfig::replica_factory`
// — run forward/backward over whole shards, and the per-shard gradient
// partials are reduced in a fixed pairwise tree order before one optimizer
// step on the master model. Because
//   * shard boundaries depend only on (batch size, grad_shards),
//   * every dropout mask is keyed on (seed, epoch, sample position) via
//     counter-based core::derive_stream streams (nn::KeyedDropoutScope),
//   * the loader keys its shuffle on (seed, epoch) and its featurization
//     on (seed, epoch, position), and
//   * the reduction tree never changes shape with the thread count,
// `TrainResult` — every EpochStats, the best epoch, and the final
// parameters — is bit-identical at ANY `threads` value, including 1.
// `threads=1` without a replica factory runs the same arithmetic on the
// master model in-place, so it is the serial reference, not a special case.
//
// Caveat: the parallel path requires stateless training forwards. Models
// whose forward mutates non-parameter state (BatchNorm running statistics,
// `Cnn3dConfig::batch_norm=true`) train only with threads=1; train_model
// throws std::invalid_argument for them at any other resolved thread
// count. The paper's optimized configurations (Tables 2/3/5) are all
// BN-free.
//
// Checkpoint/resume: with `checkpoint_path` set, the engine atomically
// writes weights + optimizer state + the (epoch, batch) cursor every
// `checkpoint_every_batches` steps and at every epoch boundary
// (models/checkpoint.h). All RNG is cursor-derived, so a killed run
// resumes bit-exactly — `tests/test_trainer_resume.cpp` pins this at every
// kill point, mirroring test_campaign_resume.
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "data/loader.h"
#include "models/regressor.h"
#include "nn/optim.h"

namespace df::models {

struct TrainConfig {
  int epochs = 10;
  int batch_size = 8;
  float lr = 1e-3f;
  nn::OptimizerKind optimizer = nn::OptimizerKind::kAdam;
  int loader_workers = 2;
  uint64_t seed = 1;
  float grad_clip = 5.0f;  // global-norm clip; <=0 disables
  bool verbose = false;

  // ---- data-parallel engine ----
  /// Worker lanes (0 = hardware concurrency). Values > 1 require
  /// `replica_factory`; the result is bit-identical at every value.
  int threads = 1;
  /// Builds structurally identical replicas of the model being trained
  /// (same configs + init seed); one per lane. See models/regressor.h for
  /// the replica contract.
  RegressorFactory replica_factory;
  /// Fixed per-batch gradient shard count. Part of the determinism
  /// contract: changing it changes summation order and therefore bits
  /// (like the campaign's scoring_batch); thread count never does.
  int grad_shards = 8;

  // ---- checkpoint/resume ----
  /// Empty = no checkpointing. If the file exists, training resumes from
  /// it (geometry is verified; a mismatched checkpoint throws).
  std::string checkpoint_path;
  /// Also checkpoint mid-epoch every N optimizer steps (0 = only at epoch
  /// boundaries, which are always checkpointed when a path is set).
  int checkpoint_every_batches = 0;
  /// Test hook mirroring CampaignConfig::kill_after_attempts: throw
  /// TrainerKilled after this many optimizer steps in THIS process
  /// (after the step's checkpoint cadence ran; 0 = before the first
  /// step). -1 = never.
  int64_t kill_after_steps = -1;
};

struct EpochStats {
  float train_mse = 0;
  float val_mse = 0;
};

struct TrainResult {
  std::vector<EpochStats> epochs;
  float best_val_mse = 0;
  int best_epoch = -1;
  double seconds = 0;  // wall clock, accumulated across resumed processes
};

/// Thrown by the kill_after_steps test hook so resume tests can die at a
/// deterministic step boundary without exiting the process.
struct TrainerKilled : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Train `model` on `train`, tracking MSE on `val` each epoch. `model`
/// holds the final parameters; `TrainResult` is bit-identical at any
/// `cfg.threads` (see the engine contract above).
TrainResult train_model(Regressor& model, const data::ComplexDataset& train,
                        const data::ComplexDataset& val, const TrainConfig& cfg);

/// Eval-mode predictions over a dataset (order = dataset order).
std::vector<float> evaluate(Regressor& model, const data::ComplexDataset& ds);

/// Labels in dataset order (convenience for metric computation).
std::vector<float> labels_of(const data::ComplexDataset& ds);

float validation_mse(Regressor& model, const data::ComplexDataset& ds);

/// Clip the global gradient norm of `params` to `max_norm`.
void clip_grad_norm(const std::vector<nn::Parameter*>& params, float max_norm);

/// Copy parameter values, and running statistics (TrainedState::stats),
/// from `src` into `dst` (models must be structurally identical, e.g.
/// built from the same config). Used by PB2's exploitation
/// clones, by screening jobs to replicate a trained model across ranks, and
/// by the training engine to broadcast post-step parameters to its lanes.
void copy_parameters(Regressor& dst, Regressor& src);

}  // namespace df::models
