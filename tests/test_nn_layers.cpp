#include <gtest/gtest.h>

#include <cstring>

#include "core/rng.h"
#include "models/cnn3d.h"
#include "nn/activations.h"
#include "nn/conv3d.h"
#include "nn/dense.h"
#include "nn/dropout.h"
#include "nn/losses.h"
#include "nn/norm.h"
#include "nn/residual.h"
#include "nn/sequential.h"

namespace df::nn {
namespace {

using core::Rng;
using core::Tensor;

TEST(Dense, OutputShapeAndBias) {
  Rng rng(1);
  Dense d(4, 3, rng);
  Tensor x = Tensor::randn({2, 4}, rng);
  Tensor y = d.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 3}));
}

TEST(Dense, RejectsWrongInputWidth) {
  Rng rng(1);
  Dense d(4, 3, rng);
  Tensor x({2, 5});
  EXPECT_THROW(d.forward(x), std::invalid_argument);
}

TEST(Dense, LinearInWeights) {
  // With zero weights and bias, output must be zero.
  Rng rng(1);
  Dense d(3, 2, rng);
  d.weight().value.zero();
  d.bias().value.zero();
  Tensor y = d.forward(Tensor::randn({4, 3}, rng));
  EXPECT_FLOAT_EQ(y.norm(), 0.0f);
}

TEST(Activations, ReluClampsNegatives) {
  ReLU relu;
  Tensor y = relu.forward(Tensor::from({-1.0f, 0.0f, 2.0f}));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
}

TEST(Activations, LeakyReluSlope) {
  LeakyReLU lrelu(0.1f);
  Tensor y = lrelu.forward(Tensor::from({-2.0f, 3.0f}));
  EXPECT_FLOAT_EQ(y[0], -0.2f);
  EXPECT_FLOAT_EQ(y[1], 3.0f);
}

TEST(Activations, SeluFixedPointProperties) {
  // SELU(0) = 0; positive branch is scale*x; negative saturates to
  // -scale*alpha.
  SELU selu;
  Tensor y = selu.forward(Tensor::from({0.0f, 1.0f, -30.0f}));
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_NEAR(y[1], SELU::kScale, 1e-5f);
  EXPECT_NEAR(y[2], -SELU::kScale * SELU::kAlpha, 1e-3f);
}

TEST(Activations, FactoryNames) {
  EXPECT_STREQ(activation_name(Activation::kReLU), "ReLU");
  EXPECT_STREQ(activation_name(Activation::kSELU), "SELU");
  auto m = make_activation(Activation::kLeakyReLU);
  ASSERT_NE(m, nullptr);
}

TEST(Conv3d, OutputGeometry) {
  Rng rng(2);
  Conv3d conv(2, 4, 3, rng, /*stride=*/1, /*padding=*/1);
  Tensor x = Tensor::randn({1, 2, 6, 6, 6}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{1, 4, 6, 6, 6}));
}

TEST(Conv3d, StrideTwoHalvesGrid) {
  Rng rng(2);
  Conv3d conv(1, 2, 5, rng, 2, 2);
  Tensor x = Tensor::randn({1, 1, 12, 12, 12}, rng);
  Tensor y = conv.forward(x);
  EXPECT_EQ(y.dim(2), 6);
}

TEST(Conv3d, IdentityKernelReproducesInput) {
  Rng rng(2);
  Conv3d conv(1, 1, 1, rng, 1, 0);
  conv.parameters()[0]->value.fill(1.0f);  // weight
  conv.parameters()[1]->value.fill(0.0f);  // bias
  Tensor x = Tensor::randn({1, 1, 4, 4, 4}, rng);
  Tensor y = conv.forward(x);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y[i], x[i], 1e-6f);
}

// A window longer than its input would read past the channel. Conv and
// pool reject it instead of truncating the output extent up to 1.
TEST(Conv3d, RejectsWindowLongerThanPaddedInput) {
  Rng rng(2);
  // 2 + 2*1 falls one voxel short of 5, less than the stride.
  Conv3d conv(1, 2, 5, rng, /*stride=*/2, /*padding=*/1);
  EXPECT_EQ(Conv3d::out_size(2, 5, 2, 1), 0);
  EXPECT_THROW(conv.forward(Tensor::randn({1, 1, 2, 6, 6}, rng)), std::invalid_argument);
  EXPECT_THROW(conv.forward(Tensor::randn({1, 1, 6, 6, 2}, rng)), std::invalid_argument);
  // A larger shortfall, unpadded.
  Conv3d narrow(1, 2, 3, rng, 1, 0);
  EXPECT_EQ(Conv3d::out_size(1, 3, 1, 0), 0);
  EXPECT_THROW(narrow.forward(Tensor::randn({1, 1, 4, 1, 4}, rng)), std::invalid_argument);
}

TEST(Conv3d, ExactFitRuns) {
  // D + 2p == k: one window per axis, every tap but the center in padding.
  Rng rng(2);
  Conv3d conv(3, 5, 3, rng, 1, 1);
  const Tensor x = Tensor::randn({2, 3, 1, 1, 1}, rng);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 5, 1, 1, 1}));
  const Tensor ref = conv3d_forward_naive(x, conv.weight().value, conv.bias().value, 1, 1);
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_NEAR(y[i], ref[i], 1e-6f);
}

TEST(MaxPool3d, RejectsWindowLongerThanInput) {
  MaxPool3d pool(2, 2);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 1, 1, 64})), std::invalid_argument);
  EXPECT_THROW(pool.forward(Tensor({1, 1, 2, 1, 2})), std::invalid_argument);
}

TEST(Cnn3d, RejectsGridWithNoVoxelAfterPool) {
  Rng rng(2);
  models::Cnn3dConfig cfg;
  cfg.grid_dim = 2;  // conv1 -> 1^3, which the 2^3 pool cannot cover
  EXPECT_THROW(models::Cnn3d(cfg, rng), std::invalid_argument);
  cfg.grid_dim = 3;  // the smallest grid that runs: conv1 -> 2^3, pool -> 1^3
  models::Cnn3d net(cfg, rng);
  const Tensor x = Tensor::randn({1, cfg.in_channels, 3, 3, 3}, rng);
  const Tensor latent = net.forward_latent(x, /*training=*/false);
  EXPECT_EQ(latent.shape(), (std::vector<int64_t>{1, net.latent_dim()}));
}

TEST(MaxPool3d, SelectsMaxima) {
  MaxPool3d pool(2, 2);
  Tensor x({1, 1, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  Tensor y = pool.forward(x);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
}

TEST(MaxPool3d, BackwardRoutesToArgmax) {
  MaxPool3d pool(2, 2);
  Tensor x({1, 1, 2, 2, 2});
  for (int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  pool.forward(x);
  Tensor g({1, 1, 1, 1, 1});
  g[0] = 5.0f;
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[7], 5.0f);
  EXPECT_FLOAT_EQ(gx.sum(), 5.0f);
}

// A gradient that is not the last training forward's output shape used to
// size backward's buffers while the lowering wrote the cached input's
// extent: a (1,3,2,2,2) gradient after a (2,2,4,4,4) forward overflowed.
TEST(Conv3d, BackwardRejectsGradientOfTheWrongShape) {
  Rng rng(5);
  Conv3d conv(2, 3, 3, rng, 1, 1);
  EXPECT_THROW(conv.backward(Tensor({2, 3, 4, 4, 4})), std::runtime_error);
  conv.forward(Tensor::randn({2, 2, 4, 4, 4}, rng));
  for (const std::vector<int64_t>& bad : std::vector<std::vector<int64_t>>{
           {1, 3, 2, 2, 2}, {2, 3, 4, 4, 5}, {2, 4, 4, 4, 4}, {3, 3, 4, 4, 4}, {2, 3, 64}}) {
    EXPECT_THROW(conv.backward(Tensor(bad)), std::invalid_argument) << Tensor(bad).shape_str();
  }
  EXPECT_EQ(conv.backward(Tensor({2, 3, 4, 4, 4})).shape(), (std::vector<int64_t>{2, 2, 4, 4, 4}));
}

// Backward routes through the last training forward's indices only: before
// one it throws, an eval forward (which records none) leaves them alone,
// and a gradient of another shape (a larger one used to read past the
// indices) is rejected.
TEST(MaxPool3d, BackwardNeedsTheTrainingForwardsOutputShape) {
  MaxPool3d pool(2, 2);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 1, 1})), std::runtime_error);
  pool.set_training(false);
  pool.forward(Tensor({1, 1, 2, 2, 2}));
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 1, 1})), std::runtime_error);

  pool.set_training(true);
  Tensor x({1, 1, 2, 2, 2});
  x[6] = 1.0f;
  pool.forward(x);
  EXPECT_THROW(pool.backward(Tensor({1, 1, 1, 1, 2})), std::invalid_argument);
  EXPECT_THROW(pool.backward(Tensor({2, 1, 1, 1, 1})), std::invalid_argument);
  EXPECT_THROW(pool.backward(Tensor({1, 1})), std::invalid_argument);

  pool.set_training(false);
  EXPECT_EQ(pool.forward(Tensor({2, 3, 4, 4, 4})).numel(), 48);
  EXPECT_THROW(pool.backward(Tensor({2, 3, 2, 2, 2})), std::invalid_argument);
  Tensor g({1, 1, 1, 1, 1});
  g[0] = 5.0f;
  const Tensor gx = pool.backward(g);
  EXPECT_EQ(gx.shape(), x.shape());
  EXPECT_FLOAT_EQ(gx[6], 5.0f);
  EXPECT_FLOAT_EQ(gx.sum(), 5.0f);
}

TEST(Flatten, RoundTrip) {
  Flatten f;
  Rng rng(3);
  Tensor x = Tensor::randn({2, 3, 2, 2, 2}, rng);
  Tensor y = f.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{2, 24}));
  Tensor back = f.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(BatchNorm1d, NormalizesTrainingBatch) {
  Rng rng(4);
  BatchNorm1d bn(3);
  bn.set_training(true);
  Tensor x = Tensor::randn({64, 3}, rng, 5.0f);
  x += 10.0f;
  Tensor y = bn.forward(x);
  // Per-feature mean ~0, var ~1.
  for (int64_t j = 0; j < 3; ++j) {
    double mean = 0, var = 0;
    for (int64_t i = 0; i < 64; ++i) mean += y.at(i, j);
    mean /= 64;
    for (int64_t i = 0; i < 64; ++i) var += (y.at(i, j) - mean) * (y.at(i, j) - mean);
    var /= 64;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(BatchNorm1d, EvalUsesRunningStats) {
  Rng rng(4);
  BatchNorm1d bn(2);
  bn.set_training(true);
  for (int i = 0; i < 50; ++i) {
    Tensor x = Tensor::randn({32, 2}, rng, 2.0f);
    x += 3.0f;
    bn.forward(x);
  }
  bn.set_training(false);
  Tensor probe({1, 2});
  probe.at(0, 0) = 3.0f;  // at the running mean -> output ~0
  probe.at(0, 1) = 3.0f;
  Tensor y = bn.forward(probe);
  EXPECT_NEAR(y[0], 0.0f, 0.15f);
  EXPECT_NEAR(y[1], 0.0f, 0.15f);
}

TEST(BatchNorm3d, PerChannelNormalization) {
  Rng rng(5);
  BatchNorm3d bn(2);
  bn.set_training(true);
  Tensor x = Tensor::randn({4, 2, 3, 3, 3}, rng, 3.0f);
  Tensor y = bn.forward(x);
  // channel 0 statistics
  double mean = 0;
  const int64_t spatial = 27;
  for (int64_t b = 0; b < 4; ++b)
    for (int64_t s = 0; s < spatial; ++s) mean += y[(b * 2 + 0) * spatial + s];
  mean /= 4 * spatial;
  EXPECT_NEAR(mean, 0.0, 1e-4);
}

TEST(Dropout, EvalIsIdentity) {
  Rng rng(6);
  Dropout d(0.5f, rng);
  d.set_training(false);
  Tensor x = Tensor::randn({100}, rng);
  Tensor y = d.forward(x);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Dropout, TrainingPreservesExpectation) {
  Rng rng(6);
  Dropout d(0.3f, rng);
  d.set_training(true);
  Tensor x({20000}, 1.0f);
  Tensor y = d.forward(x);
  EXPECT_NEAR(y.mean(), 1.0f, 0.05f);  // inverted dropout keeps E[y]=x
}

TEST(Dropout, ZeroRateIsIdentityInTraining) {
  Rng rng(6);
  Dropout d(0.0f, rng);
  d.set_training(true);
  Tensor x = Tensor::randn({50}, rng);
  Tensor y = d.forward(x);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Residual, AddsIdentity) {
  Rng rng(7);
  auto inner = std::make_unique<Sequential>();
  inner->emplace<Dense>(3, 3, rng);
  Residual res(std::move(inner));
  Tensor x = Tensor::randn({2, 3}, rng);
  Tensor y = res.forward(x);
  // y - inner(x) == x  =>  check via zeroed inner weights
  auto inner2 = std::make_unique<Sequential>();
  auto dense = std::make_unique<Dense>(3, 3, rng);
  dense->weight().value.zero();
  dense->bias().value.zero();
  inner2->add(std::move(dense));
  Residual res0(std::move(inner2));
  Tensor y0 = res0.forward(x);
  for (int64_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y0[i], x[i]);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(Losses, MseKnownValue) {
  Tensor p = Tensor::from({1, 2});
  Tensor t = Tensor::from({0, 4});
  Tensor g;
  const float l = mse_loss(p, t, &g);
  EXPECT_FLOAT_EQ(l, (1.0f + 4.0f) / 2.0f);
  EXPECT_FLOAT_EQ(g[0], 2.0f * 1.0f / 2.0f);
  EXPECT_FLOAT_EQ(g[1], 2.0f * -2.0f / 2.0f);
}

TEST(Losses, MaeKnownValue) {
  EXPECT_FLOAT_EQ(mae_loss(Tensor::from({1, -1}), Tensor::from({0, 0})), 1.0f);
}

TEST(Losses, HuberMatchesMseInCore) {
  Tensor p = Tensor::from({0.1f});
  Tensor t = Tensor::from({0.0f});
  const float h = huber_loss(p, t, 1.0f);
  EXPECT_NEAR(h, 0.5f * 0.01f, 1e-6f);
}

TEST(Losses, HuberLinearTail) {
  Tensor p = Tensor::from({10.0f});
  Tensor t = Tensor::from({0.0f});
  Tensor g;
  huber_loss(p, t, 1.0f, &g);
  EXPECT_FLOAT_EQ(g[0], 1.0f);  // clipped gradient
}

TEST(Sequential, ChainsAndCollectsParams) {
  Rng rng(8);
  Sequential seq;
  seq.emplace<Dense>(4, 8, rng);
  seq.emplace<ReLU>();
  seq.emplace<Dense>(8, 2, rng);
  EXPECT_EQ(seq.parameters().size(), 4u);  // 2 weights + 2 biases
  Tensor y = seq.forward(Tensor::randn({3, 4}, rng));
  EXPECT_EQ(y.shape(), (std::vector<int64_t>{3, 2}));
}

// Sequential's eval dispatch fuses each Dense/Conv3d with the activation
// after it. Its output must be byte-identical to running every layer's own
// eval forward in turn, for each serving handle kind. conv1 lowers N = 216
// positions per sample; conv2's stride leaves N = 27 < 32, so its fp32 GEMMs
// group samples (B = 5: two full groups and a partial one).
TEST(Sequential, EvalDispatchMatchesLayerByLayerForwardBitwise) {
  using Kind = EvalWeights::Kind;
  std::vector<Tensor> outputs;
  for (Kind kind : {Kind::kNone, Kind::kF32, Kind::kInt8}) {
    Rng rng(11);
    Sequential seq;
    seq.emplace<Conv3d>(2, 4, 3, rng, 1, 1);  // 6^3 -> 6^3
    seq.emplace<ReLU>();
    seq.emplace<Conv3d>(4, 6, 3, rng, 2, 1);  // 6^3 -> 3^3
    seq.emplace<LeakyReLU>(0.2f);
    seq.emplace<Flatten>();
    seq.emplace<Dense>(6 * 27, 10, rng);
    seq.emplace<SELU>();
    seq.emplace<Dense>(10, 4, rng);
    seq.emplace<ReLU>();
    seq.set_training(false);
    const auto give = [kind](auto& layer) {
      if (kind == Kind::kF32) layer.set_eval_weights(layer.packed_f32());
      if (kind == Kind::kInt8) layer.set_eval_weights(layer.packed_int8(3.0f / 127.0f));
    };
    for (size_t i = 0; i < seq.size(); ++i) {
      if (auto* c = dynamic_cast<Conv3d*>(&seq.layer(i))) give(*c);
      if (auto* d = dynamic_cast<Dense*>(&seq.layer(i))) give(*d);
    }

    const Tensor x = Tensor::randn({5, 2, 6, 6, 6}, rng);
    Tensor want = x;
    for (size_t i = 0; i < seq.size(); ++i) want = seq.layer(i).forward(want);
    const Tensor got = seq.forward(x);
    ASSERT_EQ(got.shape(), want.shape());
    const size_t bytes = static_cast<size_t>(got.numel()) * sizeof(float);
    EXPECT_EQ(std::memcmp(got.data(), want.data(), bytes), 0)
        << "handle kind " << static_cast<int>(kind);
    outputs.push_back(got);
  }
  // Each kind really ran its own GEMM: fp32 panels reproduce the raw
  // weights bitwise, int8 does not.
  const size_t bytes = static_cast<size_t>(outputs[0].numel()) * sizeof(float);
  EXPECT_EQ(std::memcmp(outputs[1].data(), outputs[0].data(), bytes), 0);
  EXPECT_NE(std::memcmp(outputs[2].data(), outputs[0].data(), bytes), 0);
}

TEST(Module, ZeroGradClearsAll) {
  Rng rng(9);
  Dense d(3, 3, rng);
  d.set_training(true);
  Tensor x = Tensor::randn({2, 3}, rng);
  d.forward(x);
  d.backward(Tensor::ones({2, 3}));
  EXPECT_GT(d.weight().grad.norm(), 0.0f);
  d.zero_grad();
  EXPECT_FLOAT_EQ(d.weight().grad.norm(), 0.0f);
}

TEST(Module, NumParametersCounts) {
  Rng rng(10);
  Dense d(10, 5, rng);
  EXPECT_EQ(d.num_parameters(), 10 * 5 + 5);
}

}  // namespace
}  // namespace df::nn
