// Ahead-of-time model compiler pins:
//   * BatchNorm folding matches the unfused eval stack within fp tolerance,
//     and compilation of a BN-free model is bitwise exact,
//   * the compiled-artifact container round-trips golden sections, rejects
//     version mismatches and CRC corruption with typed errors and no
//     partial load, load_compiled rejects a family, parameter count or
//     parameter shape that does not fit the model and a workspace budget
//     that is negative or too large to allocate, and add_compiled refuses
//     each of those, and a stale compiled schema, at registration,
//   * for all four model families, a RegressorScorer replica restored from
//     a compiled artifact scores bitwise identically to an h5-checkpoint-
//     loaded replica, with zero tensor heap allocations and zero arena
//     growth from its very first batch (pre-reserved workspace budgets),
//     and replicas own their weights once restored.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "chem/conformer.h"
#include "chem/voxelizer.h"
#include "compile/model_compiler.h"
#include "core/rng.h"
#include "core/tensor.h"
#include "data/dataset.h"
#include "data/target.h"
#include "io/model_artifact.h"
#include "models/checkpoint.h"
#include "models/cnn3d.h"
#include "models/fusion.h"
#include "models/sgcnn.h"
#include "serve/registry.h"
#include "serve/scorer.h"

namespace df {
namespace {

using core::Rng;
using core::Tensor;

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- fixtures (mirror tests/test_scoring_service.cpp) --------------------

chem::VoxelConfig tiny_voxel() {
  chem::VoxelConfig cfg;
  cfg.grid_dim = 8;
  return cfg;
}

models::Cnn3dConfig tiny_cnn_cfg() {
  models::Cnn3dConfig cfg;
  cfg.grid_dim = 8;
  cfg.conv_filters1 = 4;
  cfg.conv_filters2 = 8;
  cfg.dense_nodes = 16;
  return cfg;
}

models::SgcnnConfig tiny_sg_cfg() {
  models::SgcnnConfig cfg;
  cfg.covalent_k = 2;
  cfg.noncovalent_k = 2;
  cfg.covalent_gather_width = 8;
  cfg.noncovalent_gather_width = 16;
  return cfg;
}

std::vector<serve::PoseInput> make_poses(int n, const std::vector<chem::Atom>* pocket, Rng& rng) {
  std::vector<serve::PoseInput> poses;
  for (int i = 0; i < n; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    serve::PoseInput p;
    p.ligand = std::move(lig);
    p.pocket = pocket;
    poses.push_back(std::move(p));
  }
  return poses;
}

std::vector<std::pair<std::string, models::RegressorFactory>> family_factories() {
  return {
      {"cnn3d",
       [] {
         Rng rng(41);
         return std::make_unique<models::Cnn3d>(tiny_cnn_cfg(), rng);
       }},
      {"sgcnn",
       [] {
         Rng rng(42);
         return std::make_unique<models::Sgcnn>(tiny_sg_cfg(), rng);
       }},
      {"fusion",
       [] {
         Rng rng(43);
         auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(), rng);
         auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), rng);
         models::FusionConfig fcfg;
         fcfg.kind = models::FusionKind::Mid;
         fcfg.model_specific_layers = true;
         fcfg.fusion_nodes = 12;
         return std::make_unique<models::FusionModel>(fcfg, cnn, sg, rng);
       }},
      {"late_fusion",
       [] {
         Rng rng(44);
         auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(), rng);
         auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), rng);
         return std::make_unique<models::LateFusion>(std::move(cnn), std::move(sg));
       }},
  };
}

// ---- BatchNorm folding ---------------------------------------------------

data::Sample voxel_sample(const models::Cnn3dConfig& cfg, Rng& rng, float label) {
  data::Sample s;
  s.voxel = Tensor::randn({1, cfg.in_channels, cfg.grid_dim, cfg.grid_dim, cfg.grid_dim}, rng);
  s.label = label;
  return s;
}

TEST(ModelCompiler, FoldedBatchNormMatchesUnfusedEvalWithinTolerance) {
  models::Cnn3dConfig cfg = tiny_cnn_cfg();
  cfg.batch_norm = true;

  // Two bit-identical models: same init seed, same training history (a few
  // training forwards move the BN running stats off their init values).
  auto build = [&cfg] {
    Rng rng(51);
    auto m = std::make_unique<models::Cnn3d>(cfg, rng);
    Rng data_rng(52);
    for (int i = 0; i < 5; ++i) {
      data::Sample s = voxel_sample(cfg, data_rng, 5.0f);
      m->forward_train(s);
      m->backward(0.1f);
    }
    m->set_training(false);
    return m;
  };
  auto reference = build();
  auto compiled = build();
  const compile::CompileReport rep = compile::compile_model(*compiled);
  EXPECT_EQ(rep.folded_batch_norms, 2);  // one BN3d per conv stage
  EXPECT_GT(rep.stripped_dropouts, 0);

  Rng eval_rng(53);
  for (int i = 0; i < 4; ++i) {
    data::Sample s = voxel_sample(cfg, eval_rng, 0.0f);
    const float want = reference->predict(s);
    const float got = compiled->predict(s);
    // Folding reassociates one multiply per weight; the documented bound.
    EXPECT_NEAR(got, want, 1e-4f) << "sample " << i;
  }
}

TEST(ModelCompiler, CompilingBatchNormFreeModelIsBitwiseExact) {
  for (auto& [name, factory] : family_factories()) {
    auto reference = factory();
    auto compiled = factory();
    reference->set_training(false);
    compile::compile_model(*compiled);

    Rng rng(61);
    const models::Cnn3dConfig cfg = tiny_cnn_cfg();
    if (name == "cnn3d") {
      for (int i = 0; i < 3; ++i) {
        data::Sample s = voxel_sample(cfg, rng, 0.0f);
        EXPECT_EQ(compiled->predict(s), reference->predict(s)) << name << " sample " << i;
      }
    }
    // The full four-family bitwise pin (real featurization, batched scorer
    // path) lives in CompiledArtifact.AllFamiliesScoreBitwiseEqualToH5Path.
  }
}

// ---- artifact container --------------------------------------------------

TEST(CompiledArtifact, GoldenRoundTrip) {
  const std::string path = tmp_path("df_artifact_golden.dfca");
  const std::vector<float> f = {1.5f, -2.25f, 0.0f, 3.75f, 42.0f, -0.5f};
  const std::vector<int64_t> i64 = {7, -9, 1};

  io::ArtifactWriter w;
  w.add_floats("weights/w0", {2, 3}, f.data());
  w.add_ints("meta/dims", {3}, i64.data());
  w.add_scalar("meta/version_tag", 12345);
  w.save(path);

  auto r = io::ArtifactReader::open(path);
  ASSERT_TRUE(r->has("weights/w0"));
  ASSERT_TRUE(r->has("meta/dims"));
  EXPECT_FALSE(r->has("missing"));
  EXPECT_EQ(r->scalar("meta/version_tag"), 12345);

  const io::ArtifactSection& ws = r->section("weights/w0");
  EXPECT_EQ(ws.dims, (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(ws.byte_offset % 64, 0u);  // mmap-alignment contract
  EXPECT_EQ(std::memcmp(r->floats("weights/w0"), f.data(), f.size() * sizeof(float)), 0);
  const io::ArtifactSection& is = r->section("meta/dims");
  EXPECT_EQ(is.byte_offset % 64, 0u);
  EXPECT_EQ(std::memcmp(r->ints("meta/dims"), i64.data(), i64.size() * sizeof(int64_t)), 0);

  // Typed dtype mismatches.
  EXPECT_THROW(r->ints("weights/w0"), io::H5LiteError);
  EXPECT_THROW(r->floats("meta/dims"), io::H5LiteError);
  EXPECT_THROW(r->section("missing"), io::H5LiteError);
  std::filesystem::remove(path);
}

TEST(CompiledArtifact, EmptySectionsRoundTrip) {
  // Every dtype must take a zero-element section with a null source (a null
  // memcpy source is UB even for zero bytes) and read it back empty.
  const std::string path = tmp_path("df_artifact_empty.dfca");
  const float one = 1.0f;
  io::ArtifactWriter w;
  w.add_floats("f", {0}, nullptr);
  w.add_ints("i", {0}, nullptr);
  w.add_floats("after", {1}, &one);
  w.save(path);

  auto r = io::ArtifactReader::open(path);
  for (const char* name : {"f", "i"}) {
    ASSERT_TRUE(r->has(name)) << name;
    EXPECT_EQ(r->section(name).numel(), 0) << name;
    EXPECT_EQ(r->section(name).byte_len, 0u) << name;
  }
  EXPECT_EQ(r->floats("after")[0], 1.0f);
  std::filesystem::remove(path);
}

void corrupt_byte(const std::string& path, int64_t offset, char xor_mask) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  if (offset < 0) {
    f.seekg(0, std::ios::end);
    offset = static_cast<int64_t>(f.tellg()) + offset;
  }
  f.seekg(offset);
  char c;
  f.read(&c, 1);
  c = static_cast<char>(c ^ xor_mask);
  f.seekp(offset);
  f.write(&c, 1);
}

TEST(CompiledArtifact, VersionMismatchAndCorruptionRejectedTyped) {
  const std::string path = tmp_path("df_artifact_damage.dfca");
  const std::vector<float> f = {1.0f, 2.0f, 3.0f, 4.0f};
  {
    io::ArtifactWriter w;
    w.add_floats("w", {4}, f.data());
    w.save(path);
  }

  // Future format version (offset 4 = version u32): Format, with a
  // recompile hint — never a partial read. The CRC covers only the payload,
  // so this exercises the version gate, not the checksum.
  corrupt_byte(path, 4, 0x40);
  try {
    io::ArtifactReader::open(path);
    FAIL() << "version mismatch not rejected";
  } catch (const io::H5LiteError& e) {
    EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Format);
    EXPECT_NE(std::string(e.what()).find("recompile"), std::string::npos);
  }
  corrupt_byte(path, 4, 0x40);  // restore

  // Payload bit flip: Crc.
  corrupt_byte(path, -8, 0x01);  // inside the final blob, before the CRC tail
  try {
    io::ArtifactReader::open(path);
    FAIL() << "CRC corruption not rejected";
  } catch (const io::H5LiteError& e) {
    EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Crc);
  }
  corrupt_byte(path, -8, 0x01);  // restore
  EXPECT_NO_THROW(io::ArtifactReader::open(path));

  // Truncation: Truncated.
  {
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full - 6);
    try {
      io::ArtifactReader::open(path);
      FAIL() << "truncation not rejected";
    } catch (const io::H5LiteError& e) {
      EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Truncated);
    }
  }
  // Bad magic: Format.
  corrupt_byte(path, 0, 0x7f);
  try {
    io::ArtifactReader::open(path);
    FAIL() << "bad magic not rejected";
  } catch (const io::H5LiteError& e) {
    EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Format);
  }
  std::filesystem::remove(path);
}

TEST(CompiledArtifact, PreviousArtifactVersionRejectedWholeFile) {
  const std::string path = tmp_path("df_artifact_prev_version.dfca");
  const std::vector<float> f = {1.0f, 2.0f};
  {
    io::ArtifactWriter w;
    w.add_floats("w", {2}, f.data());
    w.save(path);
  }

  // Patch the version field (offset 4, u32 LE) from the current version to
  // the previous one. The reader must reject that file whole (Format, with
  // the recompile hint) rather than hand out the sections it could still
  // interpret: compiled artifacts are caches, and the recovery path is
  // recompile, never migration.
  ASSERT_GE(io::kArtifactVersion, 2u);
  corrupt_byte(path, 4,
               static_cast<char>(io::kArtifactVersion ^ (io::kArtifactVersion - 1)));
  try {
    io::ArtifactReader::open(path);
    FAIL() << "previous artifact version not rejected";
  } catch (const io::H5LiteError& e) {
    EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Format);
    EXPECT_NE(std::string(e.what()).find("recompile"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(CompiledArtifact, DamagedArtifactNeverPartiallyLoadsAModel) {
  const std::string path = tmp_path("df_artifact_partial.dfca");
  auto model = family_factories()[0].second();  // cnn3d
  compile::save_compiled(*model, path);
  EXPECT_NO_THROW(compile::load_compiled(path));

  corrupt_byte(path, -100, 0x10);
  EXPECT_THROW(compile::load_compiled(path), io::H5LiteError);
  std::filesystem::remove(path);
}

// Copy artifact `src` to `dst` through ArtifactWriter (so the copy is
// CRC-valid), letting `edit` write or drop a section in place of the copy:
// it returns true when it took the section over.
void rewrite_artifact(
    const std::string& src, const std::string& dst,
    const std::function<bool(const std::string&, const io::ArtifactReader&, io::ArtifactWriter&)>&
        edit) {
  auto r = io::ArtifactReader::open(src);
  io::ArtifactWriter w;
  for (const auto& [name, sec] : r->sections()) {
    if (edit(name, *r, w)) continue;
    if (sec.dtype == 0) {
      w.add_floats(name, sec.dims, r->floats(name));
    } else {
      w.add_ints(name, sec.dims, r->ints(name));  // the container's only other dtype
    }
  }
  w.save(dst);
}

TEST(CompiledArtifact, SectionsThatDoNotFitTheModelRejectedTyped) {
  const std::string good = tmp_path("df_artifact_good.dfca");
  const std::string bad = tmp_path("df_artifact_bad.dfca");
  auto model = family_factories()[0].second();  // cnn3d
  compile::save_compiled(*model, good);
  const auto expect_format = [](const std::string& what, const std::function<void()>& load) {
    try {
      load();
      ADD_FAILURE() << what << " not rejected";
    } catch (const io::H5LiteError& e) {
      EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Format) << what;
    }
  };
  // Each misfit fails the load and already the registration, which leaves
  // no entry behind.
  const auto expect_load_format = [&](const std::string& what) {
    expect_format(what, [&] { compile::load_compiled(bad); });
    serve::ModelRegistry reg;
    expect_format("registering " + what,
                  [&] { serve::add_compiled(reg, "m", bad, tiny_voxel()); });
    EXPECT_FALSE(reg.contains("m")) << what;
  };
  // Copy `good` to `bad` with `section` replaced by what `write` adds.
  const auto replace = [&](const std::string& section,
                           const std::function<void(const io::ArtifactReader&,
                                                    io::ArtifactWriter&)>& write) {
    rewrite_artifact(good, bad,
                     [&](const std::string& name, const io::ArtifactReader& r,
                         io::ArtifactWriter& w) {
                       if (name != section) return false;
                       write(r, w);
                       return true;
                     });
  };
  const auto replace_scalar = [&](const std::string& section, int64_t v) {
    replace(section, [&](const auto&, io::ArtifactWriter& w) { w.add_scalar(section, v); });
  };

  // The unedited copy loads: the rewrite itself is faithful.
  rewrite_artifact(good, bad, [](const auto&, const auto&, auto&) { return false; });
  EXPECT_NO_THROW(compile::load_compiled(bad));

  replace("param/0", [](const io::ArtifactReader& r, io::ArtifactWriter& w) {
    w.add_floats("param/0", {r.section("param/0").numel() - 1}, r.floats("param/0"));
  });
  expect_load_format("param/0 one float short");
  replace("param/0", [](const io::ArtifactReader& r, io::ArtifactWriter& w) {
    ASSERT_GT(r.section("param/0").dims.size(), 1u);
    w.add_floats("param/0", {r.section("param/0").numel()}, r.floats("param/0"));
  });
  expect_load_format("param/0 with its element count but other dims");
  const int64_t param_count = io::ArtifactReader::open(good)->scalar("param_count");
  for (const int64_t off : {-1, 1}) {
    replace_scalar("param_count", param_count + off);
    expect_load_format("param_count off by " + std::to_string(off));
  }
  replace_scalar("family", 4);
  expect_load_format("family 4");

  // A negative workspace budget fails too, and so does one too large to
  // allocate (2^62 + 16 floats: its byte count wraps 64 bits to 64), and
  // save_compiled refuses to write either.
  const int64_t huge = (int64_t{1} << 62) + 16;
  for (const char* budget : {"ws/forward", "ws/feat"}) {
    replace_scalar(budget, -(int64_t{1} << 40));
    expect_load_format(std::string("negative ") + budget);
    replace_scalar(budget, huge);
    expect_load_format(std::string("2^62 + 16 floats of ") + budget);
  }
  EXPECT_THROW(compile::save_compiled(*model, bad, {-1, 0}), std::invalid_argument);
  EXPECT_THROW(compile::save_compiled(*model, bad, {0, -1}), std::invalid_argument);
  EXPECT_THROW(compile::save_compiled(*model, bad, {huge, 0}), std::invalid_argument);
  EXPECT_THROW(compile::save_compiled(*model, bad, {0, huge}), std::invalid_argument);

  for (const std::string& p : {good, bad}) std::filesystem::remove(p);
}

TEST(CompiledArtifact, CompiledSchemaIsVersionedApartFromTheContainer) {
  // The container version covers only the byte layout; the compiled
  // sections carry their own schema. A different or missing schema is
  // rejected whole (Format, with the recompile hint), by load_compiled and
  // already by add_compiled at registration, while a weight checkpoint in
  // the same container, which has no compiled schema, loads.
  const std::string art = tmp_path("df_artifact_schema.dfca");
  const std::string bad = tmp_path("df_artifact_schema_bad.dfca");
  const std::string ckpt = tmp_path("df_artifact_schema_weights.dfca");
  auto model = family_factories()[0].second();  // cnn3d
  models::save_checkpoint(*model, ckpt);
  compile::save_compiled(*model, art);
  ASSERT_EQ(io::ArtifactReader::open(art)->scalar("compile/schema"), compile::kCompiledSchema);

  const auto expect_format = [&](const std::string& what, bool recompile_hint) {
    const auto check = [&](const std::string& who, const std::function<void()>& open) {
      try {
        open();
        ADD_FAILURE() << what << " not rejected by " << who;
      } catch (const io::H5LiteError& e) {
        EXPECT_EQ(e.kind(), io::H5LiteError::Kind::Format) << what << " via " << who;
        if (recompile_hint) {
          EXPECT_NE(std::string(e.what()).find("recompile"), std::string::npos)
              << what << " via " << who;
        }
      }
    };
    check("load_compiled", [&] { compile::load_compiled(bad); });
    check("add_compiled", [&] {
      serve::ModelRegistry reg;
      serve::add_compiled(reg, "m", bad, tiny_voxel());
    });
  };
  const auto expect_recompile = [&](const char* what) { expect_format(what, true); };
  {
    serve::ModelRegistry reg;
    EXPECT_NO_THROW(serve::add_compiled(reg, "m", art, tiny_voxel()));
  }
  rewrite_artifact(art, bad, [](const std::string& name, const auto&, io::ArtifactWriter& w) {
    if (name != "compile/schema") return false;
    w.add_scalar(name, compile::kCompiledSchema + 1);
    return true;
  });
  expect_recompile("next compiled schema");
  // Schema 4 int8 groups carried a calibrated activation step.
  rewrite_artifact(art, bad, [](const std::string& name, const auto&, io::ArtifactWriter& w) {
    if (name != "compile/schema") return false;
    w.add_scalar(name, 4);
    return true;
  });
  expect_recompile("schema 4");
  // Schema 3 stored Conv3d's fp32 handle as BLIS A panels, not Wᵀ.
  rewrite_artifact(art, bad, [](const std::string& name, const auto&, io::ArtifactWriter& w) {
    if (name != "compile/schema") return false;
    w.add_scalar(name, 3);
    return true;
  });
  expect_recompile("schema 3");
  rewrite_artifact(art, bad, [](const std::string& name, const auto&, auto&) {
    return name == "compile/schema";  // dropped
  });
  expect_recompile("missing compiled schema");
  rewrite_artifact(art, bad, [](const std::string& name, const auto&, auto&) {
    return name == "meta/feature_set_version";  // dropped
  });
  expect_format("missing feature_set_version", /*recompile_hint=*/false);

  auto restored = family_factories()[0].second();
  EXPECT_FALSE(io::ArtifactReader::open(ckpt)->has("compile/schema"));
  EXPECT_NO_THROW(models::load_checkpoint(*restored, ckpt));
  for (const std::string& p : {art, bad, ckpt}) std::filesystem::remove(p);
}

// ---- end-to-end: artifact replicas vs h5-checkpoint replicas -------------

TEST(CompiledArtifact, AllFamiliesScoreBitwiseEqualToH5PathWithZeroColdStartAllocs) {
  Rng rng(71);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto poses = make_poses(5, &pocket, rng);
  std::vector<const serve::PoseInput*> ptrs;
  for (const auto& p : poses) ptrs.push_back(&p);

  for (auto& [name, factory] : family_factories()) {
    SCOPED_TRACE(name);
    const std::string h5 = tmp_path("df_ckpt_" + name + ".h5");
    const std::string artifact = tmp_path("df_model_" + name + ".dfca");

    // Reference path: weights through the h5 checkpoint, uncompiled model.
    {
      auto donor = factory();
      models::save_checkpoint(*donor, h5);
    }
    auto h5_model = factory();
    models::load_checkpoint(*h5_model, h5);
    serve::RegressorScorer h5_scorer(name, std::move(h5_model), tiny_voxel(), {});
    std::vector<float> want;
    for (int i = 0; i < 3; ++i) want = h5_scorer.score(ptrs);  // warm the arenas
    const compile::WorkspaceBudget budget = h5_scorer.workspace_capacities();
    EXPECT_GT(budget.forward_floats, 0);

    // Compiled path: fold/strip, serialize with the measured workspace
    // budgets, restore through the registry factory.
    {
      auto donor = factory();
      compile::save_compiled(*donor, artifact, budget);
    }
    serve::ModelRegistry reg;
    serve::add_compiled(reg, name, artifact, tiny_voxel());
    std::unique_ptr<serve::Scorer> replica = reg.make(name);

    // Cold start is allocation-free: the artifact carried the high-water
    // budgets, so the very FIRST batch neither grows an arena nor touches
    // the heap for tensor data.
    const uint64_t before = core::alloc_count();
    const std::vector<float> got_first = replica->score(ptrs);
    EXPECT_EQ(core::alloc_count(), before)
        << "first batch on an artifact-restored replica touched the heap";

    ASSERT_EQ(got_first.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got_first[i], want[i]) << "pose " << i;  // bitwise
    }
    // Steady state stays pinned too.
    for (int rep = 0; rep < 3; ++rep) {
      const std::vector<float> again = replica->score(ptrs);
      for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(again[i], want[i]);
    }
    EXPECT_EQ(core::alloc_count(), before);

    std::filesystem::remove(h5);
    std::filesystem::remove(artifact);
  }
}

TEST(CompiledArtifact, CompiledReplicaRefusesTraining) {
  const std::string artifact = tmp_path("df_model_evalonly.dfca");
  {
    auto donor = family_factories()[0].second();
    compile::save_compiled(*donor, artifact);
  }
  compile::CompiledModel cm = compile::load_compiled(artifact);
  EXPECT_EQ(cm.family, compile::ModelFamily::kCnn3d);
  data::Sample s;
  const models::Cnn3dConfig cfg = tiny_cnn_cfg();
  Rng rng(81);
  s.voxel = Tensor::randn({1, cfg.in_channels, cfg.grid_dim, cfg.grid_dim, cfg.grid_dim}, rng);
  EXPECT_THROW(cm.model->forward_train(s), std::logic_error);
  EXPECT_THROW(cm.model->backward(1.0f), std::logic_error);
  EXPECT_THROW(cm.model->set_training(true), std::logic_error);
  EXPECT_NO_THROW(cm.model->set_training(false));
  EXPECT_NO_THROW(cm.model->predict(s));
  std::filesystem::remove(artifact);
}

TEST(CompiledArtifact, SharedMappingServesManyReplicasIdentically) {
  Rng rng(91);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto poses = make_poses(3, &pocket, rng);
  std::vector<const serve::PoseInput*> ptrs;
  for (const auto& p : poses) ptrs.push_back(&p);

  const std::string artifact = tmp_path("df_model_shared.dfca");
  {
    auto donor = family_factories()[2].second();  // fusion
    compile::save_compiled(*donor, artifact);
  }
  std::shared_ptr<io::ArtifactReader> image = io::ArtifactReader::open(artifact);
  // The artifact file can disappear once mapped.
  std::filesystem::remove(artifact);

  compile::CompiledModel a = compile::load_compiled(image);
  compile::CompiledModel b = compile::load_compiled(image);
  // Replicas own their weights: nothing they hold keeps the mapping alive.
  const std::weak_ptr<io::ArtifactReader> mapping = image;
  image.reset();
  EXPECT_TRUE(mapping.expired());
  serve::RegressorScorer sa("fusion", std::move(a.model), tiny_voxel(), {});
  serve::RegressorScorer sb("fusion", std::move(b.model), tiny_voxel(), {});
  const std::vector<float> ra = sa.score(ptrs);
  const std::vector<float> rb = sb.score(ptrs);
  ASSERT_EQ(ra.size(), rb.size());
  for (size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
}

}  // namespace
}  // namespace df
