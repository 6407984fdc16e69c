// Fully connected layer: y = x W + b for x of shape (batch, in_features).
// The bias broadcast (and, via forward_act, an optional pointwise
// activation) rides the GEMM's fused epilogue instead of a separate pass.
#pragma once

#include <vector>

#include "core/gemm.h"
#include "core/rng.h"
#include "nn/module.h"

namespace df::nn {

class Dense : public Module {
 public:
  /// Kaiming-uniform init (matches the PyTorch default the paper's models
  /// were trained with).
  Dense(int64_t in_features, int64_t out_features, core::Rng& rng, bool bias = true);

  Tensor forward(const Tensor& x) override;
  /// Forward with a fused activation epilogue: act(x W + b), bitwise
  /// identical to forward() followed by the elementwise activation. Callers
  /// that need the pre-activation output for backward (training) must use
  /// forward() plus a separate activation layer instead.
  Tensor forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope = 0.01f);
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  int64_t in_features() const { return in_; }
  int64_t out_features() const { return out_; }
  bool has_bias() const { return has_bias_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

 private:
  int64_t in_, out_;
  bool has_bias_;
  Parameter w_;  // (in, out)
  Parameter b_;  // (out)
  Tensor cached_input_;
};

}  // namespace df::nn
