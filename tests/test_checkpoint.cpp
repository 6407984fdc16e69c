#include <gtest/gtest.h>

#include <filesystem>
#include <functional>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "data/target.h"
#include "io/model_artifact.h"
#include "models/checkpoint.h"
#include "models/fusion.h"
#include "models/trainer.h"

namespace df::models {
namespace {

using core::Rng;

std::string tmp(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

SgcnnConfig tiny_sg() {
  SgcnnConfig cfg;
  cfg.covalent_gather_width = 8;
  cfg.noncovalent_gather_width = 12;
  cfg.covalent_k = 2;
  cfg.noncovalent_k = 2;
  return cfg;
}

data::Sample sample(Rng& rng) {
  chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  std::vector<chem::Atom> pocket = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, rng);
  data::Sample s;
  chem::VoxelConfig vc;
  vc.grid_dim = 8;
  s.voxel = chem::Voxelizer(vc).voxelize(lig, pocket, {});
  s.graph = chem::GraphFeaturizer().featurize(lig, pocket);
  return s;
}

TEST(Checkpoint, RoundTripRestoresPredictions) {
  Rng rng(1);
  Sgcnn a(tiny_sg(), rng);
  Rng rng2(99);  // different weights
  Sgcnn b(tiny_sg(), rng2);
  Rng srng(2);
  const data::Sample s = sample(srng);
  ASSERT_NE(a.predict(s), b.predict(s));

  const std::string path = tmp("df_ckpt_rt.h5lt");
  save_checkpoint(a, path);
  load_checkpoint(b, path);
  EXPECT_FLOAT_EQ(a.predict(s), b.predict(s));
  std::filesystem::remove(path);
}

TEST(Checkpoint, StructureMismatchRejected) {
  Rng rng(3);
  Sgcnn a(tiny_sg(), rng);
  SgcnnConfig other = tiny_sg();
  other.noncovalent_gather_width = 24;  // different widths
  Sgcnn b(other, rng);
  const std::string path = tmp("df_ckpt_mismatch.h5lt");
  save_checkpoint(a, path);
  EXPECT_THROW(load_checkpoint(b, path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, FusionModelRoundTrip) {
  Rng rng(4);
  Cnn3dConfig cc;
  cc.grid_dim = 8;
  cc.conv_filters1 = 4;
  cc.conv_filters2 = 8;
  cc.dense_nodes = 16;
  cc.dropout1 = cc.dropout2 = 0.0f;
  FusionConfig fc;
  fc.kind = FusionKind::Coherent;
  fc.fusion_nodes = 8;
  fc.dropout1 = fc.dropout2 = fc.dropout3 = 0.0f;
  FusionModel a(fc, std::make_shared<Cnn3d>(cc, rng), std::make_shared<Sgcnn>(tiny_sg(), rng),
                rng);
  Rng rng2(77);
  FusionModel b(fc, std::make_shared<Cnn3d>(cc, rng2), std::make_shared<Sgcnn>(tiny_sg(), rng2),
                rng2);
  Rng srng(5);
  const data::Sample s = sample(srng);
  const std::string path = tmp("df_ckpt_fusion.h5lt");
  save_checkpoint(a, path);
  load_checkpoint(b, path);
  EXPECT_FLOAT_EQ(a.predict(s), b.predict(s));
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileThrows) {
  Rng rng(6);
  Sgcnn a(tiny_sg(), rng);
  EXPECT_THROW(load_checkpoint(a, "/nonexistent/ckpt.h5lt"), std::runtime_error);
}

TEST(Checkpoint, CopyParametersAgreesWithCheckpoint) {
  // copy_parameters and save/load are two routes to the same state.
  Rng rng(7);
  Sgcnn a(tiny_sg(), rng);
  Rng rng2(55);
  Sgcnn b(tiny_sg(), rng2), c(tiny_sg(), rng2);
  copy_parameters(b, a);
  const std::string path = tmp("df_ckpt_agree.h5lt");
  save_checkpoint(a, path);
  load_checkpoint(c, path);
  Rng srng(8);
  const data::Sample s = sample(srng);
  EXPECT_FLOAT_EQ(b.predict(s), c.predict(s));
  std::filesystem::remove(path);
}

// Copy checkpoint `src` to `dst` through ArtifactWriter (so the copy is
// CRC-valid), with section `edited` replaced by what `edit` writes; writing
// nothing drops it.
void rewrite_checkpoint(
    const std::string& src, const std::string& dst, const std::string& edited,
    const std::function<void(const io::ArtifactReader&, io::ArtifactWriter&)>& edit) {
  auto r = io::ArtifactReader::open(src);
  io::ArtifactWriter w;
  for (const auto& [name, sec] : r->sections()) {
    if (name == edited) {
      edit(*r, w);
    } else if (sec.dtype == 0) {
      w.add_floats(name, sec.dims, r->floats(name));
    } else {
      w.add_ints(name, sec.dims, r->ints(name));  // the container's only other dtype
    }
  }
  w.save(dst);
}

TEST(Checkpoint, BatchNormStatisticsTravelWithCheckpointsAndCopies) {
  // Training forwards move BatchNorm's running statistics, which the eval
  // forward reads but the optimizer does not train. A checkpoint and a
  // copy_parameters clone carry them, so both predict bitwise like the
  // trained model; a BatchNorm checkpoint without them is damage.
  Cnn3dConfig cc;
  cc.grid_dim = 8;
  cc.conv_filters1 = 4;
  cc.conv_filters2 = 8;
  cc.dense_nodes = 16;
  cc.batch_norm = true;
  Rng rng(11);
  Cnn3d trained(cc, rng);
  Rng srng(12);
  for (int i = 0; i < 5; ++i) {
    trained.forward_train(sample(srng));
    trained.backward(0.1f);
  }
  const data::Sample s = sample(srng);
  const float want = trained.predict(s);

  const std::string path = tmp("df_ckpt_bn.dfca");
  const std::string bad = tmp("df_ckpt_bn_bad.dfca");
  save_checkpoint(trained, path);
  Rng rng2(13);  // different weights
  Cnn3d restored(cc, rng2), clone(cc, rng2);
  load_checkpoint(restored, path);
  EXPECT_EQ(restored.predict(s), want);
  copy_parameters(clone, trained);
  EXPECT_EQ(clone.predict(s), want);

  // A weight or train checkpoint without a statistic is refused, and the
  // refusal leaves the model as it was: neither its weights nor its
  // statistics are half-overwritten.
  const std::string train_path = tmp("df_ckpt_bn_train.ckpt");
  auto opt = nn::make_optimizer(nn::OptimizerKind::kAdam, trained.trainable_parameters(), 1e-3f);
  TrainProgress progress;
  progress.train_mse = {1.0f};
  progress.val_mse = {1.5f};
  save_train_checkpoint(trained, *opt, progress, train_path);
  Rng rng3(14);
  Cnn3d other(cc, rng3);
  auto other_opt =
      nn::make_optimizer(nn::OptimizerKind::kAdam, other.trainable_parameters(), 1e-3f);
  const float before = other.predict(s);
  for (const char* stat : {"s0", "s3"}) {
    for (const bool train : {false, true}) {
      rewrite_checkpoint(train ? train_path : path, bad, stat, [](const auto&, auto&) {});
      try {
        if (train) {
          load_train_checkpoint(other, *other_opt, bad);
        } else {
          load_checkpoint(other, bad);
        }
        ADD_FAILURE() << (train ? "train " : "") << "checkpoint without " << stat
                      << " not rejected";
      } catch (const io::H5LiteError& e) {
        EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Format) << stat;
      }
      EXPECT_EQ(other.predict(s), before) << (train ? "train " : "") << stat;
    }
  }

  // A model without BatchNorm writes no statistics section.
  cc.batch_norm = false;
  Cnn3d plain(cc, rng);
  save_checkpoint(plain, bad);
  EXPECT_FALSE(io::ArtifactReader::open(bad)->has("s0"));
  for (const std::string& p : {path, train_path, bad}) std::filesystem::remove(p);
}

TEST(Checkpoint, MalformedSectionsAreTypedFormatErrors) {
  // A CRC-valid file whose sections are mistyped, short, missing or of the
  // wrong rank is damage: io::H5LiteError Format, never a
  // std::bad_variant_access or std::out_of_range from the parse.
  Rng rng(10);
  Sgcnn model(tiny_sg(), rng);
  auto opt = nn::make_optimizer(nn::OptimizerKind::kAdam, model.trainable_parameters(), 1e-3f);
  TrainProgress progress;
  progress.train_mse = {1.0f, 0.5f};
  progress.val_mse = {1.5f, 0.75f};
  const std::string good = tmp("df_ckpt_malformed_src.ckpt");
  const std::string bad = tmp("df_ckpt_malformed.ckpt");
  save_train_checkpoint(model, *opt, progress, good);

  const auto expect_format = [&](const char* what, bool train) {
    try {
      if (train) {
        load_train_checkpoint(model, *opt, bad);
      } else {
        load_checkpoint(model, bad);
      }
      ADD_FAILURE() << what << " not rejected";
    } catch (const io::H5LiteError& e) {
      EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Format) << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << what << " raised an untyped error: " << e.what();
    }
  };

  // The unedited copy loads: the rewrite itself is faithful.
  rewrite_checkpoint(good, bad, "", [](const auto&, auto&) {});
  EXPECT_NO_THROW(load_train_checkpoint(model, *opt, bad));
  EXPECT_NO_THROW(load_checkpoint(model, bad));

  rewrite_checkpoint(good, bad, "meta", [](const auto&, auto& w) {
    const float count = 1.0f;
    w.add_floats("meta", {1}, &count);
  });
  expect_format("meta stored as float", false);
  rewrite_checkpoint(good, bad, "meta", [](const auto&, auto& w) {
    w.add_ints("meta", {0}, nullptr);
  });
  expect_format("empty meta", false);
  rewrite_checkpoint(good, bad, "train/geom", [](const auto& r, auto& w) {
    w.add_ints("train/geom", {2}, r.ints("train/geom"));
  });
  expect_format("2-element train/geom", true);
  rewrite_checkpoint(good, bad, "train/cursor", [](const auto&, auto&) {});
  expect_format("missing train/cursor", true);
  rewrite_checkpoint(good, bad, "train/stats", [](const auto& r, auto& w) {
    w.add_floats("train/stats", {4}, r.floats("train/stats"));
  });
  expect_format("rank-1 train/stats", true);
  rewrite_checkpoint(good, bad, "train/stats", [](const auto& r, auto& w) {
    w.add_floats("train/stats", {2, 2, 1}, r.floats("train/stats"));
  });
  expect_format("rank-3 train/stats", true);

  std::filesystem::remove(good);
  std::filesystem::remove(bad);
}

}  // namespace
}  // namespace df::models
