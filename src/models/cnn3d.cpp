#include "models/cnn3d.h"

#include <cstring>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/norm.h"
#include "nn/residual.h"

namespace df::models {

Cnn3d::Cnn3d(const Cnn3dConfig& cfg, core::Rng& rng) : cfg_(cfg) {
  // The trunk ends on conv1's output halved by the 2^3 pool; at least one
  // voxel must survive it (grid_dim >= 3).
  const int64_t g1 = nn::Conv3d::out_size(cfg.grid_dim, 5, 2, 2);
  const int64_t g2 = g1 / 2;  // maxpool
  if (g2 < 1)
    throw std::invalid_argument("Cnn3d: grid_dim " + std::to_string(cfg.grid_dim) +
                                " leaves no voxel after conv1 and the 2^3 pool");
  const int f1 = cfg.conv_filters1, f2 = cfg.conv_filters2;
  // Stage 1: 5x5x5 stride-2 filters downsample the grid immediately (the
  // deeper-than-FAST variant of §3.3.1 at our reduced grid size).
  trunk_.emplace<nn::Conv3d>(cfg.in_channels, f1, 5, rng, /*stride=*/2, /*padding=*/2);
  if (cfg.batch_norm) trunk_.emplace<nn::BatchNorm3d>(f1);
  trunk_.emplace<nn::ReLU>();
  // Stage 2: 3x3x3, optional residual connection 1. The non-residual form
  // adds the conv directly (no Sequential wrapper) so eval-time Conv+ReLU
  // epilogue fusion sees the adjacency.
  if (cfg.residual1) {
    auto inner = std::make_unique<nn::Sequential>();
    inner->emplace<nn::Conv3d>(f1, f1, 3, rng, 1, 1);
    trunk_.add(std::make_unique<nn::Residual>(std::move(inner)));
  } else {
    trunk_.emplace<nn::Conv3d>(f1, f1, 3, rng, 1, 1);
  }
  trunk_.emplace<nn::ReLU>();
  trunk_.emplace<nn::MaxPool3d>(2, 2);
  // Stage 3: widen to f2.
  trunk_.emplace<nn::Conv3d>(f1, f2, 3, rng, 1, 1);
  if (cfg.batch_norm) trunk_.emplace<nn::BatchNorm3d>(f2);
  trunk_.emplace<nn::ReLU>();
  // Stage 4: optional residual connection 2 (Table 3: on).
  if (cfg.residual2) {
    auto inner = std::make_unique<nn::Sequential>();
    inner->emplace<nn::Conv3d>(f2, f2, 3, rng, 1, 1);
    trunk_.add(std::make_unique<nn::Residual>(std::move(inner)));
  } else {
    trunk_.emplace<nn::Conv3d>(f2, f2, 3, rng, 1, 1);
  }
  trunk_.emplace<nn::ReLU>();
  trunk_.emplace<nn::Flatten>();

  const int64_t flat = g2 * g2 * g2 * f2;
  trunk_.emplace<nn::Dropout>(cfg.dropout1, rng);
  trunk_.emplace<nn::Dense>(flat, cfg.dense_nodes, rng);
  trunk_.emplace<nn::ReLU>();
  trunk_.emplace<nn::Dropout>(cfg.dropout2, rng);
  trunk_.emplace<nn::Dense>(cfg.dense_nodes, cfg.dense_nodes / 2, rng);
  trunk_.emplace<nn::ReLU>();

  out_ = std::make_unique<nn::Dense>(cfg.dense_nodes / 2, 1, rng);
  // Start predictions at mid-pK (Eq. 1 labels span ~2-11.5): saves the
  // optimizer several epochs of drifting the output bias onto the scale.
  out_->bias().value[0] = 6.0f;
}

nn::Tensor Cnn3d::forward_latent(const core::Tensor& voxel, bool training) {
  trunk_.set_training(training);
  return trunk_.forward(voxel);
}

void Cnn3d::backward_latent(const nn::Tensor& grad_latent) { trunk_.backward(grad_latent); }

float Cnn3d::forward_train(const data::Sample& s) {
  out_->set_training(true);
  nn::Tensor latent = forward_latent(s.voxel, true);
  return out_->forward(latent)[0];
}

void Cnn3d::backward(float grad_pred) {
  nn::Tensor g({1, 1});
  g[0] = grad_pred;
  backward_latent(out_->backward(g));
}

float Cnn3d::predict(const data::Sample& s) {
  out_->set_training(false);
  nn::Tensor latent = forward_latent(s.voxel, false);
  return out_->forward(latent)[0];
}

core::Tensor stack_voxel_batch(const std::vector<const data::Sample*>& batch) {
  std::vector<int64_t> shape = batch.front()->voxel.shape();
  shape[0] = static_cast<int64_t>(batch.size());
  core::Tensor out = core::Tensor::uninit(shape);
  const int64_t per = batch.front()->voxel.numel();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i]->voxel.shape() != batch.front()->voxel.shape()) {
      throw std::invalid_argument("stack_voxel_batch: inconsistent voxel shapes");
    }
    std::memcpy(out.data() + static_cast<int64_t>(i) * per, batch[i]->voxel.data(),
                static_cast<size_t>(per) * sizeof(float));
  }
  return out;
}

std::vector<float> Cnn3d::predict_batch(const std::vector<const data::Sample*>& batch) {
  if (batch.empty()) return {};
  out_->set_training(false);
  nn::Tensor latent = forward_latent(stack_voxel_batch(batch), false);
  nn::Tensor y = out_->forward(latent);  // (B, 1)
  std::vector<float> preds(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) preds[i] = y[static_cast<int64_t>(i)];
  return preds;
}

void Cnn3d::collect_trained(TrainedState& s) {
  s.add(trunk_);
  s.add(*out_);
}

void Cnn3d::set_training(bool t) {
  trunk_.set_training(t);
  out_->set_training(t);
}

}  // namespace df::models
