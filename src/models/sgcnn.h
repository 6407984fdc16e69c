// The SG-CNN head (paper §3.3.1 / Fig. 1 blue block): PotentialNet-style
// spatial graph network. Covalent-edge propagation, then non-covalent
// propagation, a ligand-summed gather, and a dense head whose widths are
// the non-covalent gather width reduced by 1.5x then 2x — exactly the
// sizing rule of the paper. Table-2 final hyper-parameters are defaults.
#pragma once

#include <memory>

#include "core/rng.h"
#include "graph/gated_graph_conv.h"
#include "graph/gather.h"
#include "models/regressor.h"
#include "nn/dense.h"

namespace df::models {

struct SgcnnConfig {
  int node_features = chem::kGraphNodeFeatures;
  int covalent_k = 6;            // Table 2
  int noncovalent_k = 3;         // Table 2
  int covalent_gather_width = 24;    // Table 2 — hidden state width
  int noncovalent_gather_width = 128;  // Table 2 — graph embedding width
};

class Sgcnn : public Regressor {
 public:
  Sgcnn(const SgcnnConfig& cfg, core::Rng& rng);

  float forward_train(const data::Sample& s) override;
  void backward(float grad_pred) override;
  float predict(const data::Sample& s) override;
  /// Batched eval: packs the batch's graphs block-diagonally and runs one
  /// wide graph forward (graph::PackedGraphBatch) — bitwise identical to
  /// per-pose predict.
  std::vector<float> predict_batch(const std::vector<const data::Sample*>& batch) override;
  void collect_trained(TrainedState& s) override;
  void set_training(bool t) override;
  std::string name() const override { return "SG-CNN"; }

  /// Latent vector for fusion: the paper pulls layer N-3 of the SG-CNN,
  /// which is the first dense stage's activation. Shape (1, latent_dim).
  nn::Tensor forward_latent(const graph::SpatialGraph& g, bool training);
  void backward_latent(const nn::Tensor& grad_latent);

  /// Batched latent rows for a packed graph batch: (num_graphs, latent_dim),
  /// row g bitwise equal to forward_latent(graph g, false). Eval only — the
  /// propagation caches needed for backward are per-graph.
  nn::Tensor forward_latent_batch(const graph::PackedGraphBatch& packed);

  int64_t latent_dim() const { return dense1_out_; }
  const SgcnnConfig& config() const { return cfg_; }

 private:
  SgcnnConfig cfg_;
  int64_t dense1_out_, dense2_out_;
  std::unique_ptr<nn::Dense> embed_;
  std::unique_ptr<graph::GatedGraphConv> cov_, noncov_;
  std::unique_ptr<graph::Gather> gather_;
  std::unique_ptr<nn::Dense> dense1_, dense2_, out_;
  // caches for latent-path backward
  nn::Tensor relu1_in_, relu2_in_;
};

}  // namespace df::models
