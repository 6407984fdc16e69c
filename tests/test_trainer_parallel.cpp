// Data-parallel training determinism pins (the trainer analogue of
// test_campaign_determinism): for every model family, train_model at 4 and
// 8 lanes must be BITWISE identical to the serial run — every EpochStats,
// the best epoch, and the final parameters — with dropout and rotation
// augmentation on, so the keyed per-sample streams are part of what is
// pinned. Reruns with the same seed must also be bitwise stable.
#include <gtest/gtest.h>

#include "trainer_test_utils.h"

namespace df::models {
namespace {

namespace tu = testutil;

TrainConfig base_config() {
  TrainConfig tc;
  tc.epochs = 2;
  tc.batch_size = 6;
  tc.lr = 1e-3f;
  tc.grad_shards = 4;
  tc.seed = 77;
  return tc;
}

/// Train a fresh model from `factory` at the given lane count and hand
/// back (result, model-with-final-weights).
std::pair<TrainResult, std::unique_ptr<Regressor>> run(const RegressorFactory& factory,
                                                       const tu::Corpus& c, TrainConfig tc,
                                                       int threads) {
  std::unique_ptr<Regressor> model = factory();
  tc.threads = threads;
  if (threads > 1) tc.replica_factory = factory;
  TrainResult res = train_model(*model, *c.train, *c.val, tc);
  return {std::move(res), std::move(model)};
}

void expect_parallel_equals_serial(const RegressorFactory& factory, bool augment,
                                   uint64_t corpus_seed) {
  const std::unique_ptr<tu::Corpus> c = tu::make_corpus(16, corpus_seed, augment);
  ASSERT_GT(c->val->size(), 0u);  // empty val would reduce the pin to zeros
  const TrainConfig tc = base_config();
  auto [serial_res, serial_model] = run(factory, *c, tc, 1);
  ASSERT_EQ(serial_res.epochs.size(), 2u);
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    auto [par_res, par_model] = run(factory, *c, tc, threads);
    tu::expect_results_bitwise_equal(serial_res, par_res);
    tu::expect_parameters_bitwise_equal(*serial_model, *par_model);
  }
}

TEST(TrainerParallel, SgcnnBitwiseAcrossThreadCounts) {
  expect_parallel_equals_serial(tu::sg_factory(), /*augment=*/false, 31);
}

TEST(TrainerParallel, Cnn3dBitwiseAcrossThreadCountsWithDropoutAndAugment) {
  expect_parallel_equals_serial(tu::cnn_factory(), /*augment=*/true, 33);
}

TEST(TrainerParallel, CoherentFusionBitwiseAcrossThreadCounts) {
  expect_parallel_equals_serial(tu::fusion_factory(), /*augment=*/true, 35);
}

TEST(TrainerParallel, RerunWithSameSeedBitwiseStable) {
  const std::unique_ptr<tu::Corpus> c = tu::make_corpus(16, 37, /*augment=*/true);
  const TrainConfig tc = base_config();
  auto [res_a, model_a] = run(tu::cnn_factory(), *c, tc, 4);
  auto [res_b, model_b] = run(tu::cnn_factory(), *c, tc, 4);
  tu::expect_results_bitwise_equal(res_a, res_b);
  tu::expect_parameters_bitwise_equal(*model_a, *model_b);
}

TEST(TrainerParallel, DifferentSeedActuallyChangesTraining) {
  // Guards the pins above against a degenerate "everything is constant"
  // world: seeds must matter (shuffle, dropout, augmentation all keyed).
  const std::unique_ptr<tu::Corpus> c = tu::make_corpus(16, 39, /*augment=*/true);
  TrainConfig tc = base_config();
  auto [res_a, model_a] = run(tu::cnn_factory(), *c, tc, 1);
  tc.seed = tc.seed + 1;
  auto [res_b, model_b] = run(tu::cnn_factory(), *c, tc, 1);
  ASSERT_EQ(res_a.epochs.size(), res_b.epochs.size());
  EXPECT_NE(tu::float_bits(res_a.epochs.back().train_mse),
            tu::float_bits(res_b.epochs.back().train_mse));
}

}  // namespace
}  // namespace df::models
