// The 3D-CNN head (paper §3.3.1 / Fig. 1 orange block): voxelized complex
// -> conv stack (5x5x5 then 3x3x3 filters, two optional residual
// connections, optional batch norm) -> dense head with early/mid dropout.
// Table-3 final hyper-parameters are the config defaults.
#pragma once

#include <memory>

#include "core/rng.h"
#include "models/regressor.h"
#include "nn/conv3d.h"
#include "nn/dense.h"
#include "nn/sequential.h"

namespace df::models {

struct Cnn3dConfig {
  int in_channels = 16;
  int grid_dim = 12;
  int conv_filters1 = 32;   // Table 3: 32 (5x5x5 stage)
  int conv_filters2 = 64;   // Table 3: 64 (3x3x3 stage)
  int dense_nodes = 128;    // Table 3: 128; second dense = /2
  bool batch_norm = false;  // Table 3: F
  bool residual1 = false;   // Table 3: F
  bool residual2 = true;    // Table 3: T
  float dropout1 = 0.25f;   // early (above first dense)
  float dropout2 = 0.125f;  // mid (above second dense)
};

/// Stack per-sample (1, C, D, H, W) voxel grids into one (B, C, D, H, W)
/// batch tensor (shared by the batched CNN and fusion predict paths).
core::Tensor stack_voxel_batch(const std::vector<const data::Sample*>& batch);

class Cnn3d : public Regressor {
 public:
  Cnn3d(const Cnn3dConfig& cfg, core::Rng& rng);

  float forward_train(const data::Sample& s) override;
  void backward(float grad_pred) override;
  float predict(const data::Sample& s) override;
  std::vector<float> predict_batch(const std::vector<const data::Sample*>& batch) override;
  void collect_trained(TrainedState& s) override;
  void set_training(bool t) override;
  std::string name() const override { return "3D-CNN"; }

  /// Latent vector (output of the second dense stage, the paper's layer
  /// M-1) for fusion. Shape (1, latent_dim).
  nn::Tensor forward_latent(const core::Tensor& voxel, bool training);
  /// Backpropagate a latent gradient into the trunk (Coherent Fusion).
  void backward_latent(const nn::Tensor& grad_latent);

  int64_t latent_dim() const { return cfg_.dense_nodes / 2; }
  const Cnn3dConfig& config() const { return cfg_; }

  /// Structure surface for the model compiler (BN folding, dropout stripping).
  nn::Sequential& trunk() { return trunk_; }

 private:
  Cnn3dConfig cfg_;
  nn::Sequential trunk_;             // convs + dense stages -> latent
  std::unique_ptr<nn::Dense> out_;   // latent -> 1
};

}  // namespace df::models
