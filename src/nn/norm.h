// Batch normalization — a T/F choice in the paper's PB2 search (Table 1;
// every optimized model ultimately turned it off, which our HPO bench also
// tends to find on the synthetic data). The one kind a model builds is
// BatchNorm3d, which normalizes (B, C, D, H, W) per channel directly after
// a Conv3d (models/cnn3d.cpp).
#pragma once

#include "nn/module.h"

namespace df::nn {

class BatchNorm3d : public Module {
 public:
  explicit BatchNorm3d(int64_t channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void collect_statistics(std::vector<Tensor*>& out) override;

  // Folding surface for the model compiler (per-channel affine at eval).
  int64_t channels() const { return c_; }
  float eps() const { return eps_; }
  Parameter& gamma() { return gamma_; }
  Parameter& beta() { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

 private:
  int64_t c_;
  float momentum_, eps_;
  Parameter gamma_, beta_;
  Tensor running_mean_, running_var_;
  Tensor xhat_;
  std::vector<float> invstd_;
};

}  // namespace df::nn
