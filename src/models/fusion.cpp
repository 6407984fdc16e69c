#include "models/fusion.h"

#include <cstring>
#include <stdexcept>

#include "nn/dense.h"
#include "nn/residual.h"

namespace df::models {

const char* fusion_name(FusionKind k) {
  switch (k) {
    case FusionKind::Late: return "Late Fusion";
    case FusionKind::Mid: return "Mid-level Fusion";
    case FusionKind::Coherent: return "Coherent Fusion";
  }
  return "?";
}

FusionModel::FusionModel(FusionConfig cfg, std::shared_ptr<Cnn3d> cnn, std::shared_ptr<Sgcnn> sg,
                         core::Rng& rng)
    : cfg_(cfg), cnn_(std::move(cnn)), sg_(std::move(sg)) {
  d_cnn_ = cnn_->latent_dim();
  d_sg_ = sg_->latent_dim();
  int64_t in = d_cnn_ + d_sg_;
  if (cfg_.model_specific_layers) {
    d_ms_ = cfg_.fusion_nodes;
    ms_cnn_ = std::make_unique<nn::Sequential>();
    ms_cnn_->emplace<nn::Dense>(d_cnn_, d_ms_, rng);
    ms_cnn_->add(nn::make_activation(cfg_.activation));
    ms_sg_ = std::make_unique<nn::Sequential>();
    ms_sg_->emplace<nn::Dense>(d_sg_, d_ms_, rng);
    ms_sg_->add(nn::make_activation(cfg_.activation));
    in += 2 * d_ms_;
  }

  // Fusion trunk: first layer maps to fusion_nodes, middle layers are
  // square (optionally residual), final layer predicts the affinity.
  // Dropout rates follow the early/mid/late schedule of Tables 4-5.
  const int n_hidden = std::max(1, cfg_.num_fusion_layers - 1);
  fusion_.emplace<nn::Dropout>(cfg_.dropout1, rng);
  fusion_.emplace<nn::Dense>(in, cfg_.fusion_nodes, rng);
  fusion_.add(nn::make_activation(cfg_.activation));
  for (int l = 1; l < n_hidden; ++l) {
    fusion_.emplace<nn::Dropout>(l == 1 ? cfg_.dropout2 : cfg_.dropout3, rng);
    auto inner = std::make_unique<nn::Sequential>();
    inner->emplace<nn::Dense>(cfg_.fusion_nodes, cfg_.fusion_nodes, rng);
    inner->add(nn::make_activation(cfg_.activation));
    if (cfg_.residual_fusion) {
      fusion_.add(std::make_unique<nn::Residual>(std::move(inner)));
    } else {
      fusion_.add(std::move(inner));
    }
  }
  fusion_.emplace<nn::Dropout>(cfg_.dropout3, rng);
  auto out = std::make_unique<nn::Dense>(cfg_.fusion_nodes, 1, rng);
  out->bias().value[0] = 6.0f;  // mid-pK output prior (see Cnn3d)
  fusion_.add(std::move(out));
}

nn::Tensor FusionModel::build_cat(const nn::Tensor& lc, const nn::Tensor& ls, bool training) {
  const int64_t B = lc.dim(0);
  const int64_t row = d_cnn_ + d_sg_ + 2 * d_ms_;
  nn::Tensor cat({B, row});
  for (int64_t i = 0; i < B; ++i) {
    float* dst = cat.data() + i * row;
    std::memcpy(dst, lc.data() + i * d_cnn_, static_cast<size_t>(d_cnn_) * sizeof(float));
    std::memcpy(dst + d_cnn_, ls.data() + i * d_sg_, static_cast<size_t>(d_sg_) * sizeof(float));
  }
  if (cfg_.model_specific_layers) {
    ms_cnn_->set_training(training);
    ms_sg_->set_training(training);
    nn::Tensor mc = ms_cnn_->forward(lc);
    nn::Tensor msv = ms_sg_->forward(ls);
    for (int64_t i = 0; i < B; ++i) {
      float* dst = cat.data() + i * row + d_cnn_ + d_sg_;
      std::memcpy(dst, mc.data() + i * d_ms_, static_cast<size_t>(d_ms_) * sizeof(float));
      std::memcpy(dst + d_ms_, msv.data() + i * d_ms_, static_cast<size_t>(d_ms_) * sizeof(float));
    }
  }
  return cat;
}

float FusionModel::run_forward(const data::Sample& s, bool training) {
  nn::Tensor lc = cnn_->forward_latent(s.voxel, training && cfg_.kind == FusionKind::Coherent);
  nn::Tensor ls = sg_->forward_latent(s.graph, training && cfg_.kind == FusionKind::Coherent);
  nn::Tensor cat = build_cat(lc, ls, training);
  fusion_.set_training(training);
  return fusion_.forward(cat)[0];
}

float FusionModel::forward_train(const data::Sample& s) { return run_forward(s, true); }

float FusionModel::predict(const data::Sample& s) { return run_forward(s, false); }

std::vector<float> FusionModel::predict_batch(const std::vector<const data::Sample*>& batch) {
  if (batch.empty()) return {};
  const int64_t B = static_cast<int64_t>(batch.size());
  nn::Tensor lc = cnn_->forward_latent(stack_voxel_batch(batch), false);  // (B, d_cnn)
  // SG-CNN branch: pack the batch's graphs block-diagonally and run one
  // wide graph forward — this used to be a per-pose loop, leaving half the
  // fusion model unbatched.
  std::vector<const graph::SpatialGraph*> graphs;
  graphs.reserve(batch.size());
  for (const data::Sample* s : batch) graphs.push_back(&s->graph);
  nn::Tensor ls = sg_->forward_latent_batch(graph::pack_graphs(graphs));  // (B, d_sg)

  nn::Tensor cat = build_cat(lc, ls, /*training=*/false);
  fusion_.set_training(false);
  nn::Tensor y = fusion_.forward(cat);  // (B, 1)
  std::vector<float> preds(batch.size());
  for (int64_t i = 0; i < B; ++i) preds[static_cast<size_t>(i)] = y[i];
  return preds;
}

void FusionModel::backward(float grad_pred) {
  nn::Tensor g({1, 1});
  g[0] = grad_pred;
  nn::Tensor dcat = fusion_.backward(g);

  nn::Tensor dlc({1, d_cnn_}), dls({1, d_sg_});
  int64_t off = 0;
  for (int64_t i = 0; i < d_cnn_; ++i) dlc.at(0, i) = dcat.at(0, off++);
  for (int64_t i = 0; i < d_sg_; ++i) dls.at(0, i) = dcat.at(0, off++);
  if (cfg_.model_specific_layers) {
    nn::Tensor dmc({1, d_ms_}), dms({1, d_ms_});
    for (int64_t i = 0; i < d_ms_; ++i) dmc.at(0, i) = dcat.at(0, off++);
    for (int64_t i = 0; i < d_ms_; ++i) dms.at(0, i) = dcat.at(0, off++);
    dlc += ms_cnn_->backward(dmc);
    dls += ms_sg_->backward(dms);
  }

  if (cfg_.kind == FusionKind::Coherent) {
    // Coherent backpropagation: gradients continue into both heads.
    cnn_->backward_latent(dlc);
    sg_->backward_latent(dls);
  }
  // Mid-level fusion: heads stay frozen; the latent gradient stops here.
}

void FusionModel::collect_trained(TrainedState& s) {
  s.add(fusion_);
  if (ms_cnn_) s.add(*ms_cnn_);
  if (ms_sg_) s.add(*ms_sg_);
  if (cfg_.kind == FusionKind::Coherent) {
    cnn_->collect_trained(s);
    sg_->collect_trained(s);
  }
}

void FusionModel::set_training(bool t) {
  fusion_.set_training(t);
  if (ms_cnn_) ms_cnn_->set_training(t);
  if (ms_sg_) ms_sg_->set_training(t);
  cnn_->set_training(t);
  sg_->set_training(t);
}

}  // namespace df::models
