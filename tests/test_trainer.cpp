// Training-loop checks: loss decreases on real featurized data for every
// model family, gradient clipping, and evaluation plumbing. Fixtures come
// from trainer_test_utils.h and are deliberately tiny so the suite stays
// under the `fast` label budget; the engine's parallel/determinism and
// checkpoint/resume properties live in test_trainer_parallel.cpp and
// test_trainer_resume.cpp.
#include <gtest/gtest.h>

#include "trainer_test_utils.h"

namespace df::models {
namespace {

namespace tu = testutil;
using core::Rng;

// Loss-decrease assertions are most robust without dropout noise; the
// dropout-active configs are exercised by the determinism suites.
Cnn3dConfig dropout_free_cnn() {
  Cnn3dConfig cfg = tu::tiny_cnn();
  cfg.dropout1 = cfg.dropout2 = 0.0f;
  return cfg;
}

TEST(Trainer, SgcnnLossDecreases) {
  const auto c = tu::make_corpus(16, 1);
  Rng rng(2);
  Sgcnn model(tu::tiny_sg(), rng);
  TrainConfig tc;
  tc.epochs = 3;
  tc.batch_size = 8;
  tc.lr = 3e-3f;
  const TrainResult res = train_model(model, *c->train, *c->val, tc);
  ASSERT_EQ(res.epochs.size(), 3u);
  EXPECT_LT(res.epochs.back().train_mse, res.epochs.front().train_mse);
  EXPECT_GE(res.best_epoch, 0);
  EXPECT_LE(res.best_val_mse, res.epochs.front().val_mse + 1e-5f);
}

TEST(Trainer, Cnn3dLossDecreases) {
  const auto c = tu::make_corpus(10, 3);
  Rng rng(4);
  Cnn3d model(dropout_free_cnn(), rng);
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;
  tc.lr = 1e-3f;
  const TrainResult res = train_model(model, *c->train, *c->val, tc);
  EXPECT_LT(res.epochs.back().train_mse, res.epochs.front().train_mse);
}

TEST(Trainer, CoherentFusionLossDecreases) {
  const auto c = tu::make_corpus(10, 5);
  Rng rng(6);
  auto cnn = std::make_shared<Cnn3d>(dropout_free_cnn(), rng);
  auto sg = std::make_shared<Sgcnn>(tu::tiny_sg(), rng);
  FusionConfig fc = tu::tiny_fusion();
  fc.dropout1 = fc.dropout2 = fc.dropout3 = 0.0f;
  FusionModel fusion(fc, cnn, sg, rng);
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 8;
  tc.lr = 1e-3f;
  const TrainResult res = train_model(fusion, *c->train, *c->val, tc);
  EXPECT_LT(res.epochs.back().train_mse, res.epochs.front().train_mse);
}

TEST(Trainer, EvaluateMatchesDatasetOrder) {
  const auto c = tu::make_corpus(10, 7);
  Rng rng(8);
  Sgcnn model(tu::tiny_sg(), rng);
  const std::vector<float> preds = evaluate(model, *c->val);
  const std::vector<float> labels = labels_of(*c->val);
  EXPECT_EQ(preds.size(), c->val->size());
  EXPECT_EQ(labels.size(), c->val->size());
  for (float p : preds) EXPECT_TRUE(std::isfinite(p));
}

TEST(Trainer, ValidationMseConsistentWithEvaluate) {
  const auto c = tu::make_corpus(24, 9);
  ASSERT_GT(c->val->size(), 0u);
  Rng rng(10);
  Sgcnn model(tu::tiny_sg(), rng);
  const float mse = validation_mse(model, *c->val);
  const std::vector<float> preds = evaluate(model, *c->val);
  const std::vector<float> labels = labels_of(*c->val);
  double acc = 0;
  for (size_t i = 0; i < preds.size(); ++i) acc += (preds[i] - labels[i]) * (preds[i] - labels[i]);
  EXPECT_NEAR(mse, acc / preds.size(), 1e-4);
}

TEST(Trainer, ClipGradNormScalesDown) {
  nn::Parameter a(core::Tensor::from({3.0f, 4.0f}), "a");  // |g| = 5
  a.grad[0] = 3.0f;
  a.grad[1] = 4.0f;
  clip_grad_norm({&a}, 1.0f);
  EXPECT_NEAR(a.grad.norm(), 1.0f, 1e-4f);
  // Below the threshold: untouched.
  nn::Parameter b(core::Tensor::from({0.3f}), "b");
  b.grad[0] = 0.3f;
  clip_grad_norm({&b}, 1.0f);
  EXPECT_FLOAT_EQ(b.grad[0], 0.3f);
}

TEST(Trainer, ParallelThreadsRequireReplicaFactory) {
  const auto c = tu::make_corpus(8, 11);
  Rng rng(12);
  Sgcnn model(tu::tiny_sg(), rng);
  TrainConfig tc;
  tc.epochs = 1;
  tc.threads = 2;  // no replica_factory set
  EXPECT_THROW(train_model(model, *c->train, *c->val, tc), std::invalid_argument);
}

TEST(Trainer, BatchNormModelsTrainOnOneThreadOnly) {
  // Only the lanes run training forwards, so a parallel run would leave the
  // master's running statistics at their initial values.
  const auto c = tu::make_corpus(8, 13);
  Cnn3dConfig cfg = tu::tiny_cnn();
  cfg.batch_norm = true;
  const RegressorFactory factory = [cfg]() -> std::unique_ptr<Regressor> {
    Rng rng(14);
    return std::make_unique<Cnn3d>(cfg, rng);
  };
  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 4;
  tc.threads = 2;
  tc.replica_factory = factory;
  const std::unique_ptr<Regressor> parallel = factory();
  EXPECT_THROW(train_model(*parallel, *c->train, *c->val, tc), std::invalid_argument);

  tc.threads = 1;
  const std::unique_ptr<Regressor> serial = factory();
  const TrainResult res = train_model(*serial, *c->train, *c->val, tc);
  ASSERT_EQ(res.epochs.size(), 1u);
  TrainedState state;
  serial->collect_trained(state);
  ASSERT_FALSE(state.stats.empty());
  const core::Tensor& mean = *state.stats.front();
  bool moved = false;
  for (int64_t i = 0; i < mean.numel(); ++i) moved = moved || mean[i] != 0.0f;
  EXPECT_TRUE(moved) << "the running mean never left its initial zeros";
}

TEST(Trainer, ReportsWallClock) {
  const auto c = tu::make_corpus(8, 11);
  Rng rng(12);
  Sgcnn model(tu::tiny_sg(), rng);
  TrainConfig tc;
  tc.epochs = 1;
  const TrainResult res = train_model(model, *c->train, *c->val, tc);
  EXPECT_GT(res.seconds, 0.0);
}

}  // namespace
}  // namespace df::models
