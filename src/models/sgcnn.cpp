#include "models/sgcnn.h"

#include <stdexcept>

namespace df::models {

Sgcnn::Sgcnn(const SgcnnConfig& cfg, core::Rng& rng) : cfg_(cfg) {
  const int64_t h = cfg.covalent_gather_width;
  const int64_t w = cfg.noncovalent_gather_width;
  dense1_out_ = static_cast<int64_t>(static_cast<float>(w) / 1.5f);
  dense2_out_ = dense1_out_ / 2;
  embed_ = std::make_unique<nn::Dense>(cfg.node_features, h, rng);
  cov_ = std::make_unique<graph::GatedGraphConv>(h, cfg.covalent_k, rng);
  noncov_ = std::make_unique<graph::GatedGraphConv>(h, cfg.noncovalent_k, rng);
  gather_ = std::make_unique<graph::Gather>(h, cfg.node_features, w, rng);
  dense1_ = std::make_unique<nn::Dense>(w, dense1_out_, rng);
  dense2_ = std::make_unique<nn::Dense>(dense1_out_, dense2_out_, rng);
  out_ = std::make_unique<nn::Dense>(dense2_out_, 1, rng);
  // Mid-pK output prior (see Cnn3d): labels live on the 2-11.5 pK scale.
  out_->bias().value[0] = 6.0f;
}

nn::Tensor Sgcnn::forward_latent(const graph::SpatialGraph& g, bool training) {
  embed_->set_training(training);
  dense1_->set_training(training);
  if (g.num_nodes() == 0) throw std::invalid_argument("Sgcnn: empty graph");
  nn::Tensor h0 = embed_->forward(g.node_features);
  nn::Tensor h1 = cov_->forward(h0, g.covalent, training);
  nn::Tensor h2 = noncov_->forward(h1, g.noncovalent, training);
  nn::Tensor pooled = gather_->forward_sum(h2, g.node_features, g.num_ligand_nodes, training);
  if (!training) return dense1_->forward_act(pooled, core::EpilogueAct::kReLU);
  nn::Tensor a1 = dense1_->forward(pooled);
  relu1_in_ = a1;
  return a1.map([](float v) { return v > 0.0f ? v : 0.0f; });
}

nn::Tensor Sgcnn::forward_latent_batch(const graph::PackedGraphBatch& packed) {
  embed_->set_training(false);
  dense1_->set_training(false);
  // The propagation layers are row-stable, so running them over the packed
  // (total_nodes, dim) matrix — one wide GEMM per layer instead of one
  // small GEMM per pose — reproduces every per-pose row bitwise; only the
  // readout needs to know the graph boundaries.
  nn::Tensor h0 = embed_->forward(packed.node_features);
  nn::Tensor h1 = cov_->forward(h0, packed.covalent, /*training=*/false);
  nn::Tensor h2 = noncov_->forward(h1, packed.noncovalent, /*training=*/false);
  nn::Tensor pooled = gather_->forward_segments(h2, packed.node_features, packed.node_offset,
                                                packed.ligand_counts);
  return dense1_->forward_act(pooled, core::EpilogueAct::kReLU);
}

std::vector<float> Sgcnn::predict_batch(const std::vector<const data::Sample*>& batch) {
  if (batch.empty()) return {};
  set_training(false);
  std::vector<const graph::SpatialGraph*> graphs;
  graphs.reserve(batch.size());
  for (const data::Sample* s : batch) graphs.push_back(&s->graph);
  nn::Tensor latent = forward_latent_batch(graph::pack_graphs(graphs));
  nn::Tensor z = dense2_->forward_act(latent, core::EpilogueAct::kReLU);
  nn::Tensor y = out_->forward(z);  // (B, 1)
  std::vector<float> preds(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) preds[i] = y[static_cast<int64_t>(i)];
  return preds;
}

void Sgcnn::backward_latent(const nn::Tensor& grad_latent) {
  nn::Tensor g = grad_latent;
  for (int64_t i = 0; i < g.numel(); ++i) {
    if (relu1_in_[i] <= 0.0f) g[i] = 0.0f;
  }
  nn::Tensor dpooled = dense1_->backward(g);
  auto [dh2, dx_gather] = gather_->backward_sum(dpooled);
  nn::Tensor dh1 = noncov_->backward(dh2);
  nn::Tensor dh0 = cov_->backward(dh1);
  nn::Tensor dx_embed = embed_->backward(dh0);
  // Node-feature gradients (dx_gather, dx_embed) stop here: inputs are data.
  (void)dx_gather;
  (void)dx_embed;
}

float Sgcnn::forward_train(const data::Sample& s) {
  set_training(true);
  nn::Tensor latent = forward_latent(s.graph, true);
  nn::Tensor a2 = dense2_->forward(latent);
  relu2_in_ = a2;
  nn::Tensor z = a2.map([](float v) { return v > 0.0f ? v : 0.0f; });
  return out_->forward(z)[0];
}

void Sgcnn::backward(float grad_pred) {
  nn::Tensor g({1, 1});
  g[0] = grad_pred;
  nn::Tensor dz = out_->backward(g);
  for (int64_t i = 0; i < dz.numel(); ++i) {
    if (relu2_in_[i] <= 0.0f) dz[i] = 0.0f;
  }
  backward_latent(dense2_->backward(dz));
}

float Sgcnn::predict(const data::Sample& s) {
  set_training(false);
  nn::Tensor latent = forward_latent(s.graph, false);
  nn::Tensor z = dense2_->forward_act(latent, core::EpilogueAct::kReLU);
  return out_->forward(z)[0];
}

void Sgcnn::collect_trained(TrainedState& s) {
  s.add(*embed_);
  cov_->collect_parameters(s.params);  // the graph layers hold no statistics
  noncov_->collect_parameters(s.params);
  gather_->collect_parameters(s.params);
  s.add(*dense1_);
  s.add(*dense2_);
  s.add(*out_);
}

void Sgcnn::set_training(bool t) {
  embed_->set_training(t);
  // GatedGraphConv takes the training flag per forward call, and so does
  // Gather, whose layers follow the model's mode too.
  gather_->set_training(t);
  dense1_->set_training(t);
  dense2_->set_training(t);
  out_->set_training(t);
}

}  // namespace df::models
