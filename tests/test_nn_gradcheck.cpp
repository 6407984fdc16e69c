// Finite-difference gradient checks for every hand-written backward pass in
// the nn package, plus end-to-end composite checks through whole models
// (voxelizer features → fused head loss) via check_model_gradients.
// Per-layer checks exclude dropout (stochastic); the composite checks run
// dropout ACTIVE under a fixed KeyedDropoutScope key, which makes the
// masks — and therefore the loss surface — deterministic across the
// finite-difference re-evaluations. BatchNorm uses a batch large enough
// for stable statistics.
#include <gtest/gtest.h>

#include "core/rng.h"
#include "data/splits.h"
#include "gradcheck.h"
#include "models/fusion.h"
#include "nn/activations.h"
#include "nn/conv3d.h"
#include "nn/dense.h"
#include "nn/norm.h"
#include "nn/residual.h"
#include "nn/sequential.h"

namespace df::nn {
namespace {

using core::Rng;
using core::Tensor;
using testing::check_input_gradients;
using testing::check_param_gradients;

TEST(GradCheck, DenseParams) {
  Rng rng(1);
  Dense d(5, 4, rng);
  d.set_training(true);
  Tensor x = Tensor::randn({3, 5}, rng);
  check_param_gradients(d, [&] { return d.forward(x); });
}

TEST(GradCheck, DenseInput) {
  Rng rng(2);
  Dense d(5, 4, rng);
  d.set_training(true);
  check_input_gradients(d, Tensor::randn({3, 5}, rng));
}

TEST(GradCheck, ReluInput) {
  Rng rng(3);
  ReLU relu;
  relu.set_training(true);
  // keep values away from the kink
  Tensor x = Tensor::randn({4, 6}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.1f) x[i] = 0.5f;
  }
  check_input_gradients(relu, x);
}

TEST(GradCheck, LeakyReluInput) {
  Rng rng(4);
  LeakyReLU lrelu(0.1f);
  lrelu.set_training(true);
  Tensor x = Tensor::randn({4, 6}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.1f) x[i] = -0.5f;
  }
  check_input_gradients(lrelu, x);
}

TEST(GradCheck, SeluInput) {
  Rng rng(5);
  SELU selu;
  selu.set_training(true);
  Tensor x = Tensor::randn({4, 6}, rng);
  for (int64_t i = 0; i < x.numel(); ++i) {
    if (std::abs(x[i]) < 0.1f) x[i] = 0.4f;
  }
  check_input_gradients(selu, x);
}

TEST(GradCheck, Conv3dParams) {
  Rng rng(6);
  Conv3d conv(2, 3, 3, rng, 1, 1);
  conv.set_training(true);
  Tensor x = Tensor::randn({2, 2, 4, 4, 4}, rng);
  check_param_gradients(conv, [&] { return conv.forward(x); }, 1e-2f, 3e-2f);
}

TEST(GradCheck, Conv3dInput) {
  Rng rng(7);
  Conv3d conv(2, 3, 3, rng, 1, 1);
  conv.set_training(true);
  check_input_gradients(conv, Tensor::randn({1, 2, 4, 4, 4}, rng), 1e-2f, 3e-2f);
}

TEST(GradCheck, Conv3dStridedPaddedInput) {
  Rng rng(8);
  Conv3d conv(1, 2, 5, rng, 2, 2);
  conv.set_training(true);
  check_input_gradients(conv, Tensor::randn({1, 1, 8, 8, 8}, rng), 1e-2f, 3e-2f);
}

TEST(GradCheck, BatchNorm3dInput) {
  Rng rng(10);
  BatchNorm3d bn(2);
  bn.set_training(true);
  check_input_gradients(bn, Tensor::randn({4, 2, 3, 3, 3}, rng), 1e-2f, 4e-2f);
}

TEST(GradCheck, MaxPoolInput) {
  Rng rng(11);
  MaxPool3d pool(2, 2);
  pool.set_training(true);
  // spread values so the argmax is stable under +/- eps
  Tensor x({1, 1, 4, 4, 4});
  for (int64_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>((i * 37) % 64) * 0.5f;
  check_input_gradients(pool, x, 1e-3f, 2e-2f);
}

TEST(GradCheck, ResidualDense) {
  Rng rng(12);
  auto inner = std::make_unique<Sequential>();
  inner->emplace<Dense>(4, 4, rng);
  Residual res(std::move(inner));
  res.set_training(true);
  Tensor x = Tensor::randn({3, 4}, rng);
  check_param_gradients(res, [&] { return res.forward(x); });
  check_input_gradients(res, x);
}

TEST(GradCheck, SequentialStack) {
  Rng rng(13);
  Sequential seq;
  auto d1 = std::make_unique<Dense>(6, 8, rng);
  // Keep SELU pre-activations away from its derivative kink at 0, where
  // finite differences are invalid (SELU' jumps from ~1.76 to ~1.05).
  d1->weight().value *= 0.2f;
  d1->bias().value.fill(1.0f);
  seq.add(std::move(d1));
  seq.emplace<SELU>();
  seq.emplace<Dense>(8, 3, rng);
  seq.set_training(true);
  Tensor x = Tensor::randn({2, 6}, rng);
  check_param_gradients(seq, [&] { return seq.forward(x); });
  check_input_gradients(seq, x);
}

// ---- end-to-end composite checks (real featurized samples) ----

data::Sample featurized_sample(uint64_t seed) {
  data::PdbbindConfig pcfg;
  pcfg.num_complexes = 2;
  pcfg.core_size = 1;
  pcfg.settle_runs = 1;
  pcfg.settle_steps = 4;
  Rng rng(seed);
  static std::vector<data::ComplexRecord> recs;  // keep alive for the dataset view
  recs = data::SyntheticPdbbind(pcfg).generate(rng);
  data::DatasetConfig dc;
  dc.voxel.grid_dim = 8;
  data::ComplexDataset ds(&recs, {0}, dc);
  Rng frng(seed + 1);
  return ds.get(0, frng);
}

models::Cnn3dConfig composite_cnn_config() {
  models::Cnn3dConfig cfg;
  cfg.grid_dim = 8;
  cfg.conv_filters1 = 3;
  cfg.conv_filters2 = 4;
  cfg.dense_nodes = 8;
  cfg.dropout1 = 0.2f;  // active: keyed masks keep the check deterministic
  cfg.dropout2 = 0.1f;
  return cfg;
}

models::SgcnnConfig composite_sg_config() {
  models::SgcnnConfig cfg;
  cfg.covalent_gather_width = 6;
  cfg.noncovalent_gather_width = 12;
  cfg.covalent_k = 2;
  cfg.noncovalent_k = 2;
  return cfg;
}

TEST(GradCheckComposite, Cnn3dEndToEndWithDropout) {
  const data::Sample s = featurized_sample(101);
  Rng rng(15);
  models::Cnn3d model(composite_cnn_config(), rng);
  df::testing::check_model_gradients(model, s, /*dropout_key=*/0xC0FFEEu);
}

TEST(GradCheckComposite, SgcnnEndToEnd) {
  const data::Sample s = featurized_sample(103);
  Rng rng(16);
  models::Sgcnn model(composite_sg_config(), rng);
  df::testing::check_model_gradients(model, s, /*dropout_key=*/0xC0FFEEu);
}

TEST(GradCheckComposite, CoherentFusionEndToEndWithDropout) {
  // The full paper pipeline in one check: voxel grid through the 3D-CNN
  // trunk, spatial graph through the SG-CNN, both latents through the
  // fusion head, gradients back through everything — with all three
  // dropout rates non-zero.
  const data::Sample s = featurized_sample(105);
  Rng rng(17);
  auto cnn = std::make_shared<models::Cnn3d>(composite_cnn_config(), rng);
  auto sg = std::make_shared<models::Sgcnn>(composite_sg_config(), rng);
  models::FusionConfig fc;
  fc.kind = models::FusionKind::Coherent;
  fc.fusion_nodes = 8;
  fc.num_fusion_layers = 3;
  fc.dropout1 = 0.3f;
  fc.dropout2 = 0.2f;
  fc.dropout3 = 0.1f;
  models::FusionModel fusion(fc, cnn, sg, rng);
  df::testing::check_model_gradients(fusion, s, /*dropout_key=*/0xFADEDu);
}

TEST(GradCheckComposite, KeyedDropoutMakesForwardDeterministic) {
  // The property the composite checks (and the parallel trainer) lean on.
  const data::Sample s = featurized_sample(107);
  Rng rng(18);
  models::Cnn3d model(composite_cnn_config(), rng);
  model.set_training(true);
  float a, b, c;
  {
    nn::KeyedDropoutScope k(42);
    a = model.forward_train(s);
  }
  {
    nn::KeyedDropoutScope k(42);
    b = model.forward_train(s);
  }
  {
    nn::KeyedDropoutScope k(43);
    c = model.forward_train(s);
  }
  EXPECT_EQ(a, b);  // same key, same masks, same prediction
  EXPECT_NE(a, c);  // different key actually changes the masks
}

TEST(GradCheck, ConvPoolDenseStack) {
  Rng rng(14);
  Sequential seq;
  seq.emplace<Conv3d>(1, 2, 3, rng, 1, 1);
  seq.emplace<ReLU>();
  seq.emplace<MaxPool3d>(2, 2);
  seq.emplace<Flatten>();
  seq.emplace<Dense>(2 * 2 * 2 * 2, 3, rng);
  seq.set_training(true);
  Tensor x = Tensor::randn({1, 1, 4, 4, 4}, rng);
  check_param_gradients(seq, [&] { return seq.forward(x); }, 1e-2f, 3e-2f);
}

}  // namespace
}  // namespace df::nn
