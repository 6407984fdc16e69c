// Layer-wise neural-network substrate (replaces PyTorch's nn.Module).
//
// deepfusion uses explicit per-layer forward/backward instead of a taped
// autograd: every Module caches exactly what its backward needs, and
// composite models (Sequential, the fusion heads) route gradients by hand.
// This keeps the memory profile predictable — important when a "GPU rank"
// is a worker thread with a fixed budget, as in the screening harness.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/tensor.h"

namespace df::nn {

using core::Tensor;

/// A trainable tensor plus its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;
  std::string name;

  Parameter() = default;
  Parameter(Tensor v, std::string n) : value(std::move(v)), grad(value.shape()), name(std::move(n)) {}
  int64_t numel() const { return value.numel(); }
};

class Module {
 public:
  virtual ~Module() = default;

  /// Forward pass. Training-mode layers cache activations for backward.
  virtual Tensor forward(const Tensor& x) = 0;
  /// Given dL/d(output), accumulate parameter grads and return dL/d(input).
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Append this module's parameters (and children's) to `out`.
  virtual void collect_parameters(std::vector<Parameter*>& out) { (void)out; }
  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> out;
    collect_parameters(out);
    return out;
  }
  /// Append this module's (and children's) running statistics: tensors the
  /// eval forward reads that the optimizer does not train (BatchNorm's
  /// running mean and variance). Checkpoints and copy_parameters carry them
  /// beside the parameters.
  virtual void collect_statistics(std::vector<Tensor*>& out) { (void)out; }

  /// Writes only on a change, so asserting eval mode on an eval-mode model
  /// is a read, and concurrent eval forwards (models/regressor.h) share it.
  virtual void set_training(bool t) {
    if (training_ != t) training_ = t;
  }
  bool training() const { return training_; }

  void zero_grad() {
    for (Parameter* p : parameters()) p->grad.zero();
  }

  /// Total trainable scalar count — used by the model-size reporting in
  /// DESIGN/EXPERIMENTS and by the screening memory model.
  int64_t num_parameters() {
    int64_t n = 0;
    for (Parameter* p : parameters()) n += p->numel();
    return n;
  }

 protected:
  bool training_ = true;
};

}  // namespace df::nn
