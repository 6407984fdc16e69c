// Fusion-model semantics: Late = mean of heads; Mid keeps heads frozen;
// Coherent backpropagates into both heads (the paper's key innovation).
// An eval predict_batch between forward_train and backward leaves the
// training caches alone, in both heads and both fusion kinds.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "data/target.h"
#include "models/fusion.h"

namespace df::models {
namespace {

using core::Rng;

data::Sample make_sample(Rng& rng) {
  chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  std::vector<chem::Atom> pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  chem::VoxelConfig vc;
  vc.grid_dim = 8;
  data::Sample s;
  s.voxel = chem::Voxelizer(vc).voxelize(lig, pocket, {});
  s.graph = chem::GraphFeaturizer().featurize(lig, pocket);
  s.label = 7.0f;
  return s;
}

std::shared_ptr<Cnn3d> make_cnn(Rng& rng) {
  Cnn3dConfig cfg;
  cfg.grid_dim = 8;
  cfg.conv_filters1 = 4;
  cfg.conv_filters2 = 8;
  cfg.dense_nodes = 16;
  cfg.dropout1 = cfg.dropout2 = 0.0f;
  return std::make_shared<Cnn3d>(cfg, rng);
}

std::shared_ptr<Sgcnn> make_sg(Rng& rng) {
  SgcnnConfig cfg;
  cfg.covalent_gather_width = 8;
  cfg.noncovalent_gather_width = 12;
  cfg.covalent_k = 2;
  cfg.noncovalent_k = 2;
  return std::make_shared<Sgcnn>(cfg, rng);
}

FusionConfig deterministic_fusion(FusionKind kind) {
  FusionConfig cfg;
  cfg.kind = kind;
  cfg.dropout1 = cfg.dropout2 = cfg.dropout3 = 0.0f;
  cfg.fusion_nodes = 8;
  return cfg;
}

TEST(LateFusion, IsExactMeanOfHeads) {
  Rng rng(1);
  auto cnn = make_cnn(rng);
  auto sg = make_sg(rng);
  LateFusion late(cnn, sg);
  Rng srng(2);
  data::Sample s = make_sample(srng);
  EXPECT_NEAR(late.predict(s), 0.5f * (cnn->predict(s) + sg->predict(s)), 1e-5f);
  EXPECT_TRUE(late.trainable_parameters().empty());
}

TEST(FusionModel, OutputFinite) {
  Rng rng(3);
  for (FusionKind kind : {FusionKind::Mid, FusionKind::Coherent}) {
    auto cnn = make_cnn(rng);
    auto sg = make_sg(rng);
    FusionModel fusion(deterministic_fusion(kind), cnn, sg, rng);
    Rng srng(4);
    data::Sample s = make_sample(srng);
    EXPECT_TRUE(std::isfinite(fusion.predict(s))) << fusion_name(kind);
  }
}

TEST(FusionModel, MidFreezesHeads) {
  Rng rng(5);
  auto cnn = make_cnn(rng);
  auto sg = make_sg(rng);
  FusionModel fusion(deterministic_fusion(FusionKind::Mid), cnn, sg, rng);
  // Heads' parameters are NOT in the trainable set...
  auto params = fusion.trainable_parameters();
  for (nn::Parameter* hp : cnn->trainable_parameters()) {
    EXPECT_EQ(std::find(params.begin(), params.end(), hp), params.end());
  }
  // ...and backward leaves head gradients untouched.
  Rng srng(6);
  data::Sample s = make_sample(srng);
  cnn->zero_grad();
  sg->zero_grad();
  fusion.forward_train(s);
  fusion.backward(1.0f);
  for (nn::Parameter* hp : cnn->trainable_parameters()) {
    EXPECT_FLOAT_EQ(hp->grad.norm(), 0.0f) << hp->name;
  }
}

TEST(FusionModel, CoherentBackpropagatesIntoBothHeads) {
  Rng rng(7);
  auto cnn = make_cnn(rng);
  auto sg = make_sg(rng);
  FusionModel fusion(deterministic_fusion(FusionKind::Coherent), cnn, sg, rng);
  Rng srng(8);
  data::Sample s = make_sample(srng);
  fusion.zero_grad();
  fusion.forward_train(s);
  fusion.backward(1.0f);
  float cnn_grad = 0, sg_grad = 0;
  for (nn::Parameter* p : cnn->trainable_parameters()) cnn_grad += p->grad.norm();
  for (nn::Parameter* p : sg->trainable_parameters()) sg_grad += p->grad.norm();
  EXPECT_GT(cnn_grad, 0.0f);
  EXPECT_GT(sg_grad, 0.0f);
}

TEST(FusionModel, CoherentTrainableIncludesHeads) {
  Rng rng(9);
  auto cnn = make_cnn(rng);
  auto sg = make_sg(rng);
  FusionModel coherent(deterministic_fusion(FusionKind::Coherent), cnn, sg, rng);
  FusionModel mid(deterministic_fusion(FusionKind::Mid), make_cnn(rng), make_sg(rng), rng);
  EXPECT_GT(coherent.trainable_parameters().size(), mid.trainable_parameters().size());
}

TEST(FusionModel, ModelSpecificLayersWidenInput) {
  Rng rng(10);
  FusionConfig with = deterministic_fusion(FusionKind::Mid);
  with.model_specific_layers = true;
  FusionConfig without = deterministic_fusion(FusionKind::Mid);
  FusionModel m1(with, make_cnn(rng), make_sg(rng), rng);
  FusionModel m2(without, make_cnn(rng), make_sg(rng), rng);
  EXPECT_GT(m1.trainable_parameters().size(), m2.trainable_parameters().size());
}

TEST(FusionModel, GradCheckFusionLayers) {
  Rng rng(11);
  auto cnn = make_cnn(rng);
  auto sg = make_sg(rng);
  FusionModel fusion(deterministic_fusion(FusionKind::Coherent), cnn, sg, rng);
  Rng srng(12);
  data::Sample s = make_sample(srng);
  fusion.zero_grad();
  fusion.forward_train(s);
  fusion.backward(1.0f);

  const float eps = 2e-2f;
  int checked = 0;
  for (nn::Parameter* p : fusion.trainable_parameters()) {
    if (checked >= 20) break;  // spot-check across the stack
    const int64_t i = p->value.numel() / 3;
    const float orig = p->value[i];
    p->value[i] = orig + eps;
    const float lp = fusion.forward_train(s);
    p->value[i] = orig - eps;
    const float lm = fusion.forward_train(s);
    p->value[i] = orig;
    const float numeric = (lp - lm) / (2 * eps);
    const float analytic = p->grad[i];
    const float scale = std::max({1.0f, std::abs(numeric), std::abs(analytic)});
    EXPECT_NEAR(analytic / scale, numeric / scale, 5e-2f) << p->name;
    ++checked;
  }
}

// Parameter gradients of one training step on `train`, with `eval` scored
// in eval mode between forward_train and backward (nothing when empty).
std::vector<float> step_gradients(Regressor& model, const data::Sample& train,
                                  const std::vector<const data::Sample*>& eval) {
  model.set_training(true);
  model.zero_grad();
  model.forward_train(train);
  if (!eval.empty()) {
    model.set_training(false);
    model.predict_batch(eval);
    model.set_training(true);
  }
  model.backward(1.0f);
  std::vector<float> g;
  for (nn::Parameter* p : model.trainable_parameters())
    g.insert(g.end(), p->grad.data(), p->grad.data() + p->numel());
  return g;
}

TEST(EvalBetweenTrainingSteps, GradientsBitwiseEqualWithoutTheEval) {
  Rng srng(61);
  std::vector<data::Sample> samples;
  for (int i = 0; i < 5; ++i) samples.push_back(make_sample(srng));
  const std::vector<const data::Sample*> one = {&samples[1]};
  const std::vector<const data::Sample*> four = {&samples[1], &samples[2], &samples[3],
                                                 &samples[4]};
  // Dropout on everywhere: its masks are training caches too.
  Cnn3dConfig cnn_cfg;
  cnn_cfg.grid_dim = 8;
  cnn_cfg.conv_filters1 = 4;
  cnn_cfg.conv_filters2 = 8;
  cnn_cfg.dense_nodes = 16;
  const auto fusion = [&](FusionKind kind, bool model_specific) {
    Rng rng(62);
    FusionConfig cfg;
    cfg.kind = kind;
    cfg.fusion_nodes = 8;
    cfg.model_specific_layers = model_specific;
    auto c = std::make_shared<Cnn3d>(cnn_cfg, rng);
    return std::unique_ptr<Regressor>(std::make_unique<FusionModel>(cfg, c, make_sg(rng), rng));
  };
  using Factory = std::function<std::unique_ptr<Regressor>()>;
  const std::pair<std::string, Factory> models[] = {
      {"cnn3d", [&] {
         Rng rng(62);
         return std::unique_ptr<Regressor>(std::make_unique<Cnn3d>(cnn_cfg, rng));
       }},
      {"sgcnn", [] {
         Rng rng(62);
         SgcnnConfig cfg;
         cfg.covalent_gather_width = 8;
         cfg.noncovalent_gather_width = 12;
         cfg.covalent_k = 2;
         cfg.noncovalent_k = 2;
         return std::unique_ptr<Regressor>(std::make_unique<Sgcnn>(cfg, rng));
       }},
      {"coherent", [&] { return fusion(FusionKind::Coherent, false); }},
      {"mid_model_specific", [&] { return fusion(FusionKind::Mid, true); }},
  };
  for (const auto& [name, make] : models) {
    const std::vector<float> want = step_gradients(*make(), samples[0], {});
    for (const auto* eval : {&one, &four}) {
      const std::string what = name + " with " + std::to_string(eval->size()) + " eval pose(s)";
      std::vector<float> got;
      EXPECT_NO_THROW(got = step_gradients(*make(), samples[0], *eval)) << what;
      EXPECT_TRUE(got.size() == want.size() &&
                  std::memcmp(got.data(), want.data(), want.size() * sizeof(float)) == 0)
          << what;
    }
  }
}

TEST(FusionModel, NamesMatchPaper) {
  EXPECT_STREQ(fusion_name(FusionKind::Late), "Late Fusion");
  EXPECT_STREQ(fusion_name(FusionKind::Mid), "Mid-level Fusion");
  EXPECT_STREQ(fusion_name(FusionKind::Coherent), "Coherent Fusion");
}

}  // namespace
}  // namespace df::models
