// Common interface over the binding-affinity models (3D-CNN, SG-CNN and the
// fusion variants): per-sample training forward/backward plus batched
// evaluation. Per-sample gradient flow (with batch-level optimizer steps)
// matches the small batch sizes the paper's optimized models use (Mid-level
// Fusion converged to batch size 1).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"

namespace df::models {

/// One walk over the modules a model trains, in a fixed order: what the
/// optimizer updates (`params`) and what the eval forward reads besides
/// (`stats`, nn::Module::collect_statistics: BatchNorm's running mean and
/// variance). Checkpoints and copy_parameters carry both lists, which come
/// from the same modules since one walk yields them.
struct TrainedState {
  std::vector<nn::Parameter*> params;
  std::vector<core::Tensor*> stats;
  void add(nn::Module& m) {
    m.collect_parameters(params);
    m.collect_statistics(stats);
  }
};

// Replica contract: the eval path is NOT const and NOT thread-safe. Even in
// eval mode, predict()/predict_batch() route through the layer stack's
// forward(), which rewrites per-layer activation caches in place — two
// threads sharing one instance corrupt each other's forwards. Every
// concurrent consumer therefore owns a private replica built from a
// RegressorFactory (one per worker); serve::ScoringService enforces this
// with one lazily-built replica per worker thread plus a re-entrancy guard
// in serve::RegressorScorer that throws if two threads ever enter the same
// replica. The serving layer's core::Workspace arenas are replica state
// under the same rule: RegressorScorer binds a private arena around the
// eval forward and rewinds it every batch, so eval-path tensors must never
// outlive the scoring call that produced them (docs/API.md).
// The same contract covers training: forward_train/backward cache
// activations per instance, so the data-parallel training engine
// (models/trainer.h) gives each worker lane a private replica built from
// TrainConfig::replica_factory and broadcasts the master's parameters to
// the lanes after every optimizer step.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Training-mode forward for one sample; caches activations.
  virtual float forward_train(const data::Sample& s) = 0;
  /// Backward for the most recent forward_train with dLoss/dPrediction.
  virtual void backward(float grad_pred) = 0;
  /// Eval-mode prediction (dropout off, running BN stats). Mutates layer
  /// caches — see the replica contract above.
  virtual float predict(const data::Sample& s) = 0;
  /// Eval-mode prediction for a batch of poses. Models whose trunks accept
  /// a batch dimension override this to run one forward per batch instead
  /// of one per pose (the screening hot path); the default loops.
  virtual std::vector<float> predict_batch(const std::vector<const data::Sample*>& batch) {
    std::vector<float> out;
    out.reserve(batch.size());
    for (const data::Sample* s : batch) out.push_back(predict(*s));
    return out;
  }

  /// Add the modules the optimizer trains to `s`, in a fixed order.
  virtual void collect_trained(TrainedState& s) = 0;
  /// Parameters the optimizer should update.
  std::vector<nn::Parameter*> trainable_parameters() {
    TrainedState s;
    collect_trained(s);
    return std::move(s.params);
  }
  virtual void set_training(bool t) = 0;
  virtual std::string name() const = 0;

  void zero_grad() {
    for (nn::Parameter* p : trainable_parameters()) p->grad.zero();
  }
  int64_t num_parameters() {
    int64_t n = 0;
    for (nn::Parameter* p : trainable_parameters()) n += p->numel();
    return n;
  }
};

/// Builds one private model replica per concurrent consumer (see the replica
/// contract above). Factories must be deterministic — same weights on every
/// call — and safe to invoke from any thread; the serving layer serializes
/// invocations but relies on call-order independence for reproducibility.
using RegressorFactory = std::function<std::unique_ptr<Regressor>()>;

}  // namespace df::models
