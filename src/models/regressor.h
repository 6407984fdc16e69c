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

// Replica contract: an eval forward writes no model state. Concurrent
// predict()/predict_batch() calls on one eval-mode model are safe, each
// thread in its own core::Workspace arena (or none); eval-path tensors must
// never outlive the scoring call that produced them (docs/API.md). Eval
// also leaves training caches alone, so an eval forward between
// forward_train and backward changes no gradient. Training entry points
// (forward_train, backward, set_training(true)) stay single-threaded per
// instance: they cache activations, so the data-parallel training engine
// (models/trainer.h) gives each worker lane a private replica built from
// TrainConfig::replica_factory and broadcasts the master's parameters to
// the lanes after every optimizer step. Serving keeps one replica per
// worker thread (serve::ScoringService, with a re-entrancy guard in
// serve::RegressorScorer), and a pipelined replica runs pose sub-batches
// of one forward on two threads at once.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Training-mode forward for one sample; caches activations.
  virtual float forward_train(const data::Sample& s) = 0;
  /// Backward for the most recent forward_train with dLoss/dPrediction.
  virtual void backward(float grad_pred) = 0;
  /// Eval-mode prediction (dropout off, running BN stats). Writes no model
  /// state — see the replica contract above.
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
