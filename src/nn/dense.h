// Fully connected layer: y = x W + b for x of shape (batch, in_features).
// The bias broadcast (and, via forward_act, an optional pointwise
// activation) rides the GEMM's fused epilogue instead of a separate pass.
#pragma once

#include <vector>

#include "core/gemm.h"
#include "core/rng.h"
#include "nn/eval_weights.h"
#include "nn/module.h"
#include "nn/observer.h"

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

  // -- serving form (eval_weights.h) -------------------------------------
  // Eval forwards run the GEMM the handle names; training forwards always
  // use w_. A weight mutation leaves a packed handle stale, so whoever
  // mutates the weight produces a fresh handle.

  /// w packed once into the B-panel image sgemm would build per call.
  EvalWeights packed_f32() const;
  /// w quantized to per-output symmetric int8 panels. Eval forwards then
  /// quantize each input row to u8 with a runtime step from its own |x|
  /// max, so `act_scale` (the calibrated input step) is only recorded.
  EvalWeights packed_int8(float act_scale) const;
  const EvalWeights& eval_weights() const { return eval_; }
  /// Install a handle; throws std::invalid_argument unless its kind and
  /// lengths fit this layer's (in, out).
  void set_eval_weights(EvalWeights e);

  /// Calibration hook: when set, eval forwards report their input to the
  /// observer before computing. Not used in training mode.
  void set_observer(ActivationObserver* obs) { observer_ = obs; }

 private:
  int64_t in_, out_;
  bool has_bias_;
  Parameter w_;  // (in, out)
  Parameter b_;  // (out)
  Tensor cached_input_;
  EvalWeights eval_;
  ActivationObserver* observer_ = nullptr;
};

}  // namespace df::nn
