// Model checkpointing: serialize a Regressor's trainable parameters, and its
// BatchNorm running statistics if it has any, to the repository's one
// on-disk container (io/model_artifact.h) and restore them into a
// structurally identical model.
// This is what Ray Tune's PB2 exploitation does with checkpoints (§3.2) and
// what lets a screening deployment ship one trained weight file to every
// rank instead of re-training per process.
//
// Train checkpoints extend the weight file with everything a killed
// training run needs to resume bit-exactly (mirroring the campaign
// checkpoint design of screen/checkpoint.h): optimizer state (per-slot
// tensors + scalars), the (epoch, batch) cursor, the partial-epoch loss
// accumulators, per-epoch stats so far, and the geometry whose change would
// silently break the bit-identical resume guarantee — which is therefore
// verified on load instead of trusted. Because every stochastic draw in
// training (shuffle, featurization, dropout) is keyed on (seed, epoch,
// position) via core::derive_stream, the cursor IS the RNG state: no
// engine internals need saving.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "models/regressor.h"
#include "nn/optim.h"

namespace df::models {

/// Atomically write all trainable parameters (values only, not optimizer
/// state) to `path`. Section names are "p<index>" in trainable_parameters()
/// order, plus a "meta" scalar holding the parameter count for validation.
/// A model with running statistics (TrainedState::stats, i.e. BatchNorm)
/// adds them as "s<index>"; a model without writes no such section.
void save_checkpoint(Regressor& model, const std::string& path);

/// Load parameters, and running statistics if the model has any, saved by
/// save_checkpoint into `model`. Throws io::H5LiteError on damage (Format
/// for a missing section or one of the wrong dtype or size — so a
/// BatchNorm model refuses a file without its statistics) and
/// std::runtime_error if the file does not match the model's structure
/// (parameter count or any shape differs). Every section is checked before
/// any is copied, so a refused file leaves the model untouched.
void load_checkpoint(Regressor& model, const std::string& path);

/// Everything beyond the weights that a resumed train_model needs.
struct TrainProgress {
  // Geometry guard: resume under different values would change bits, so a
  // mismatch is rejected at load time (same policy as CampaignCheckpoint).
  uint64_t seed = 0;
  int64_t optimizer_kind = 0;  // nn::OptimizerKind as int
  int64_t batch_size = 0;
  int64_t grad_shards = 0;
  int64_t n_train = 0;
  int64_t n_val = 0;
  float lr = 0.0f;
  float grad_clip = 0.0f;
  // Cursor: training resumes at batch `batch` of epoch `epoch`. The
  // current epoch's partial accumulators travel with it.
  int64_t epoch = 0;
  int64_t batch = 0;
  int64_t n_samples = 0;     // samples consumed in the current epoch
  double epoch_loss = 0.0;   // squared-error sum over those samples
  double seconds = 0.0;      // wall-clock consumed by all prior processes
  // Completed-epoch history (what TrainResult::epochs holds so far).
  std::vector<float> train_mse, val_mse;
  float best_val_mse = 0.0f;
  int64_t best_epoch = -1;
};

/// Atomically write weights + optimizer state + progress to `path`.
void save_train_checkpoint(Regressor& model, nn::Optimizer& opt, const TrainProgress& progress,
                           const std::string& path);

/// Restore weights into `model` and state into `opt`; returns the saved
/// progress. Throws io::H5LiteError on damage (as load_checkpoint; a
/// weights-only file lacks the train sections) and std::runtime_error when
/// the file does not match the model/optimizer structure; every section is
/// checked before any is copied, so any refusal leaves model and optimizer
/// untouched rather than half-overwritten. When `expected_geometry` is
/// given, its guard fields (seed, optimizer kind, batch size, grad shards,
/// dataset sizes, lr, grad clip) are validated against the file first.
/// Its `epoch` field is an upper bound, not an equality check: a cursor
/// past it (a stale longer run's checkpoint) is rejected, while a smaller
/// cursor resumes normally — so training can be extended by rerunning
/// with a larger epoch budget.
TrainProgress load_train_checkpoint(Regressor& model, nn::Optimizer& opt,
                                    const std::string& path,
                                    const TrainProgress* expected_geometry = nullptr);

}  // namespace df::models
