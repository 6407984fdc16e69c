// The fusion models — the paper's central contribution.
//
//  * Late Fusion: unweighted mean of the two heads' predictions (§2.1).
//  * Mid-level Fusion: latent vectors from both heads pass through optional
//    model-specific dense layers, are concatenated with the raw latents and
//    fed to fusion dense layers; head weights stay frozen (§2.1, Table 4).
//  * Coherent Fusion: the same wiring, but gradients backpropagate through
//    the fusion layers *and* both heads, fine-tuning them jointly (§2.2,
//    Table 5). Heads may be pre-trained (the configuration PB2 selected) or
//    trained from scratch.
#pragma once

#include <memory>

#include "models/cnn3d.h"
#include "models/sgcnn.h"
#include "nn/activations.h"
#include "nn/dropout.h"
#include "nn/sequential.h"

namespace df::models {

enum class FusionKind { Late, Mid, Coherent };

const char* fusion_name(FusionKind k);

struct FusionConfig {
  FusionKind kind = FusionKind::Coherent;
  int num_fusion_layers = 4;          // Table 5: 4 (Mid: 5)
  int fusion_nodes = 64;              // dense nodes per fusion layer
  bool model_specific_layers = false; // Table 5: excluded (Mid: included)
  bool residual_fusion = false;       // Table 5: F (Mid: T)
  nn::Activation activation = nn::Activation::kSELU;  // Tables 4/5
  float dropout1 = 0.386f;            // early (Table 5)
  float dropout2 = 0.247f;            // mid
  float dropout3 = 0.055f;            // late
};

/// Late Fusion is stateless beyond its heads.
class LateFusion : public Regressor {
 public:
  LateFusion(std::shared_ptr<Cnn3d> cnn, std::shared_ptr<Sgcnn> sg)
      : cnn_(std::move(cnn)), sg_(std::move(sg)) {}

  float forward_train(const data::Sample& s) override { return predict(s); }
  void backward(float) override {}  // nothing trainable beyond the heads
  float predict(const data::Sample& s) override {
    return 0.5f * (cnn_->predict(s) + sg_->predict(s));
  }
  std::vector<float> predict_batch(const std::vector<const data::Sample*>& batch) override {
    std::vector<float> c = cnn_->predict_batch(batch);
    const std::vector<float> s = sg_->predict_batch(batch);
    for (size_t i = 0; i < c.size(); ++i) c[i] = 0.5f * (c[i] + s[i]);
    return c;
  }
  void collect_trained(TrainedState&) override {}
  void set_training(bool t) override {
    cnn_->set_training(t);
    sg_->set_training(t);
  }
  std::string name() const override { return "Late Fusion"; }

  Cnn3d& cnn_head() { return *cnn_; }
  Sgcnn& sg_head() { return *sg_; }

 private:
  std::shared_ptr<Cnn3d> cnn_;
  std::shared_ptr<Sgcnn> sg_;
};

/// Mid-level and Coherent fusion share the wiring; `kind` decides whether
/// head gradients flow (Coherent) or stop at the latents (Mid).
class FusionModel : public Regressor {
 public:
  FusionModel(FusionConfig cfg, std::shared_ptr<Cnn3d> cnn, std::shared_ptr<Sgcnn> sg,
              core::Rng& rng);

  float forward_train(const data::Sample& s) override;
  void backward(float grad_pred) override;
  float predict(const data::Sample& s) override;
  /// Batched eval: one CNN trunk forward, one packed block-diagonal SG-CNN
  /// forward (graph::PackedGraphBatch) and one fusion trunk forward per
  /// batch — bitwise identical to per-pose predict.
  std::vector<float> predict_batch(const std::vector<const data::Sample*>& batch) override;
  void collect_trained(TrainedState& s) override;
  void set_training(bool t) override;
  std::string name() const override { return fusion_name(cfg_.kind); }

  const FusionConfig& config() const { return cfg_; }
  Cnn3d& cnn_head() { return *cnn_; }
  Sgcnn& sg_head() { return *sg_; }

  /// Structure surface for the model compiler. The ms blocks are null when
  /// model_specific_layers is off.
  nn::Sequential& fusion_trunk() { return fusion_; }
  nn::Sequential* ms_cnn() { return ms_cnn_.get(); }
  nn::Sequential* ms_sg() { return ms_sg_.get(); }

  /// Switch between frozen-head (Mid) and joint-backprop (Coherent)
  /// training. Used to warm up the fusion trunk before letting gradients
  /// flow into pre-trained heads — without a warm-up, a random trunk's
  /// gradients destroy the heads faster than the trunk learns.
  void set_kind(FusionKind kind) { cfg_.kind = kind; }

 private:
  float run_forward(const data::Sample& s, bool training);
  /// Concatenate head latents (B rows each) with the optional
  /// model-specific blocks into the fusion trunk's input — the one place
  /// that knows the cat layout, shared by the per-sample and batched paths.
  nn::Tensor build_cat(const nn::Tensor& lc, const nn::Tensor& ls, bool training);

  FusionConfig cfg_;
  std::shared_ptr<Cnn3d> cnn_;
  std::shared_ptr<Sgcnn> sg_;
  std::unique_ptr<nn::Sequential> ms_cnn_, ms_sg_;  // model-specific blocks
  nn::Sequential fusion_;                           // trunk + final dense(1)
  int64_t d_cnn_ = 0, d_sg_ = 0, d_ms_ = 0;
};

}  // namespace df::models
