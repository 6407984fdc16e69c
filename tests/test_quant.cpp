// Post-training int8 quantization pins:
//   * the blocked u8xs8 GEMM is bitwise identical to its unblocked
//     reference over the same packed operands — every shape class (micro-
//     tile interior, panel edges, k-group tails), every epilogue variant,
//     and every compute-pool width,
//   * dequantized int8 results track the fp32 product within the analytic
//     quantization-error bound (semantics, not just both-paths-same-bug),
//   * quantize_model makes every non-head Dense int8 and leaves every
//     Conv3d and regression head fp32,
//   * quantized models stay within the accuracy budget vs their fp32
//     siblings: score RMSE drift <= 0.05 pK, Pearson >= 0.99, and >= 95%
//     top-100 ranking overlap on a 120-pose eval set,
//   * a quantized model round-trips through the compiled artifact with
//     bitwise-identical scores, and registry *_int8 replicas are
//     bitwise-identical to each other.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "chem/conformer.h"
#include "chem/voxelizer.h"
#include "compile/model_compiler.h"
#include "core/gemm_s8.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "core/threadpool.h"
#include "data/dataset.h"
#include "data/pdbbind.h"
#include "data/target.h"
#include "io/model_artifact.h"
#include "models/cnn3d.h"
#include "models/fusion.h"
#include "models/sgcnn.h"
#include "nn/conv3d.h"
#include "nn/dense.h"
#include "quant/quantize.h"
#include "serve/registry.h"
#include "serve/scorer.h"
#include "stats/metrics.h"

namespace df {
namespace {

using core::Rng;

std::string tmp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---- fixtures (mirror tests/test_compile.cpp) ----------------------------

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
  };
}

/// Featurized synthetic complexes (voxel grid 8 + graphs), deterministic
/// per seed.
std::vector<data::Sample> make_samples(int n, uint64_t seed) {
  data::PdbbindConfig cfg;
  cfg.num_complexes = n;
  cfg.core_size = std::min(n, 4);
  cfg.settle_runs = 1;
  cfg.settle_steps = 6;
  Rng rng(seed);
  const std::vector<data::ComplexRecord> recs = data::SyntheticPdbbind(cfg).generate(rng);
  data::DatasetConfig dc;
  dc.voxel = tiny_voxel();
  std::vector<int> idx(recs.size());
  std::iota(idx.begin(), idx.end(), 0);
  data::ComplexDataset ds(&recs, std::move(idx), dc);
  std::vector<data::Sample> out;
  out.reserve(ds.size());
  Rng srng(1);  // unused: eval datasets never augment
  for (size_t i = 0; i < ds.size(); ++i) out.push_back(ds.get(i, srng));
  return out;
}

std::vector<const data::Sample*> ptrs_of(const std::vector<data::Sample>& samples) {
  std::vector<const data::Sample*> out;
  out.reserve(samples.size());
  for (const data::Sample& s : samples) out.push_back(&s);
  return out;
}

std::vector<float> random_buf(int64_t n, Rng& rng, float lo = -1.0f, float hi = 1.0f) {
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = rng.uniform(lo, hi);
  return v;
}

/// Every quantization parameter of a model, flattened in canonical walk
/// order; -1 sentinels keep fp32 layers distinguishable.
/// Bitwise vector equality == identical quantized execution state.
std::vector<float> quant_signature(models::Regressor& model) {
  compile::StructureWalk w = compile::walk_structure(model);
  std::vector<float> sig;
  for (nn::Dense* d : w.dense) {
    const nn::EvalWeights& q = d->eval_weights();
    if (q.kind != nn::EvalWeights::Kind::kInt8) {
      sig.push_back(-1.0f);
      continue;
    }
    sig.insert(sig.end(), q.scales, q.scales + d->out_features());
  }
  for (nn::Conv3d* c : w.conv) {
    const nn::EvalWeights& q = c->eval_weights();
    if (q.kind != nn::EvalWeights::Kind::kInt8) {
      sig.push_back(-1.0f);
      continue;
    }
    sig.insert(sig.end(), q.scales, q.scales + c->out_channels());
  }
  return sig;
}

// ---- int8 GEMM: blocked kernel vs unblocked reference, bitwise -----------

struct S8Case {
  int64_t m, n, k;
};

struct S8EpilogueSpec {
  core::EpilogueAct act = core::EpilogueAct::kNone;
  float leaky_slope = 0.01f;
  bool scale_col = false;
  bool scale_row = false;
  bool bias_col = false;
};

/// Quantize random fp32 operands into the packed images once, then compare
/// gemm_u8s8f32 against gemm_u8s8f32_naive bitwise under the epilogue
/// described by `spec`.
void check_s8_case(int64_t m, int64_t n, int64_t k, const S8EpilogueSpec& spec, Rng& rng,
                   bool per_col_b_scales) {
  const std::vector<float> A = random_buf(m * k, rng, -2.0f, 2.0f);
  const std::vector<float> B = random_buf(k * n, rng);
  const float act_scale = 2.0f / 127.0f;

  std::vector<float> b_inv(static_cast<size_t>(n));
  std::vector<float> dequant(static_cast<size_t>(n));
  for (int64_t j = 0; j < n; ++j) {
    float wmax = 0.0f;
    for (int64_t p = 0; p < k; ++p) wmax = std::max(wmax, std::fabs(B[p * n + j]));
    const float ws = wmax > 0.0f ? wmax / 127.0f : 1.0f;
    b_inv[static_cast<size_t>(j)] = 1.0f / ws;
    dequant[static_cast<size_t>(j)] = act_scale * ws;
  }

  std::vector<int8_t> panels(static_cast<size_t>(core::packed_b_bytes_s8(k, n)));
  std::vector<int32_t> comp(static_cast<size_t>(n));
  core::pack_quantize_b_s8(k, n, B.data(), n, per_col_b_scales ? b_inv.data() : nullptr,
                           b_inv[0], panels.data(), comp.data());
  std::vector<uint8_t> aq(static_cast<size_t>(core::quantized_a_bytes_s8(m, k)));
  core::quantize_a_u8(m, k, A.data(), k, nullptr, 1.0f / act_scale, aq.data());

  core::QuantEpilogue ep;
  ep.act = spec.act;
  ep.leaky_slope = spec.leaky_slope;
  ep.comp_col = comp.data();
  std::vector<float> bias;
  if (spec.bias_col) {
    bias = random_buf(n, rng);
    ep.bias_col = bias.data();
  }
  std::vector<float> row_scales;
  if (spec.scale_row) {
    row_scales = random_buf(m, rng, 0.001f, 0.01f);
    ep.scale_row = row_scales.data();
  }
  if (spec.scale_col) ep.scale_col = dequant.data();

  const int64_t k4 = (k + 3) & ~int64_t{3};
  std::vector<float> got(static_cast<size_t>(m * n), -7.0f);
  std::vector<float> want(static_cast<size_t>(m * n), 42.0f);
  core::gemm_u8s8f32(m, n, k, aq.data(), k4, panels.data(), got.data(), n, ep);
  core::gemm_u8s8f32_naive(m, n, k, aq.data(), k4, panels.data(), want.data(), n, ep);
  for (int64_t i = 0; i < m * n; ++i) {
    ASSERT_EQ(got[static_cast<size_t>(i)], want[static_cast<size_t>(i)])
        << "m=" << m << " n=" << n << " k=" << k << " elem " << i;
  }
}

TEST(GemmS8, KernelMatchesNaiveAcrossShapesAndEpilogues) {
  // Interior tiles, panel edges (n % 16), micro-tile edges (m % 6), k-group
  // tails (k % 4), and degenerate vectors.
  const std::vector<S8Case> cases = {{1, 1, 1},   {3, 5, 4},    {6, 16, 8},   {7, 17, 13},
                                     {13, 31, 37}, {16, 64, 64}, {33, 70, 100}, {2, 15, 3},
                                     {64, 48, 259}};
  Rng rng(2024);
  for (const S8Case& c : cases) {
    {
      SCOPED_TRACE("no epilogue");  // raw compensated accumulators, scale 1
      check_s8_case(c.m, c.n, c.k, {}, rng, /*per_col_b_scales=*/false);
    }
    {
      SCOPED_TRACE("dense form: scale_col + bias_col + SELU");
      S8EpilogueSpec spec;
      spec.act = core::EpilogueAct::kSELU;
      spec.scale_col = spec.bias_col = true;
      check_s8_case(c.m, c.n, c.k, spec, rng, /*per_col_b_scales=*/true);
    }
    {
      SCOPED_TRACE("row scales: scale_row + ReLU");
      S8EpilogueSpec spec;
      spec.act = core::EpilogueAct::kReLU;
      spec.scale_row = true;
      check_s8_case(c.m, c.n, c.k, spec, rng, /*per_col_b_scales=*/false);
    }
    {
      SCOPED_TRACE("leaky ReLU");
      S8EpilogueSpec spec;
      spec.act = core::EpilogueAct::kLeakyReLU;
      spec.leaky_slope = 0.1f;
      spec.scale_col = true;
      check_s8_case(c.m, c.n, c.k, spec, rng, /*per_col_b_scales=*/true);
    }
  }
}

TEST(GemmS8, BitwiseIdenticalOnEveryPoolSize) {
  // Big enough to cross the kernel's parallel threshold (m*n*k >= 2^22).
  const int64_t m = 64, n = 128, k = 520;
  std::vector<float> serial;
  for (size_t threads : {1u, 3u, 8u}) {
    core::ThreadPool pool(threads);
    core::ComputePoolGuard guard(&pool);
    Rng rng(99);  // same operands every pool width
    const std::vector<float> A = random_buf(m * k, rng, -2.0f, 2.0f);
    const std::vector<float> B = random_buf(k * n, rng);
    std::vector<int8_t> panels(static_cast<size_t>(core::packed_b_bytes_s8(k, n)));
    std::vector<int32_t> comp(static_cast<size_t>(n));
    core::pack_quantize_b_s8(k, n, B.data(), n, nullptr, 127.0f, panels.data(), comp.data());
    std::vector<uint8_t> aq(static_cast<size_t>(core::quantized_a_bytes_s8(m, k)));
    core::quantize_a_u8(m, k, A.data(), k, nullptr, 127.0f / 2.0f, aq.data());
    core::QuantEpilogue ep;
    ep.comp_col = comp.data();
    std::vector<float> C(static_cast<size_t>(m * n));
    core::gemm_u8s8f32(m, n, k, aq.data(), (k + 3) & ~int64_t{3}, panels.data(), C.data(), n,
                       ep);
    if (serial.empty()) {
      serial = C;
    } else {
      for (size_t i = 0; i < C.size(); ++i) ASSERT_EQ(C[i], serial[i]) << "elem " << i;
    }
  }
}

TEST(GemmS8, DequantizedResultTracksFp32Product) {
  const int64_t m = 8, n = 24, k = 40;
  Rng rng(7);
  const std::vector<float> A = random_buf(m * k, rng, -2.0f, 2.0f);
  const std::vector<float> B = random_buf(k * n, rng);
  const float act_scale = 2.0f / 127.0f;

  std::vector<float> b_inv(static_cast<size_t>(n)), dequant(static_cast<size_t>(n));
  float max_ws = 0.0f;
  for (int64_t j = 0; j < n; ++j) {
    float wmax = 0.0f;
    for (int64_t p = 0; p < k; ++p) wmax = std::max(wmax, std::fabs(B[p * n + j]));
    const float ws = wmax > 0.0f ? wmax / 127.0f : 1.0f;
    b_inv[static_cast<size_t>(j)] = 1.0f / ws;
    dequant[static_cast<size_t>(j)] = act_scale * ws;
    max_ws = std::max(max_ws, ws);
  }
  std::vector<int8_t> panels(static_cast<size_t>(core::packed_b_bytes_s8(k, n)));
  std::vector<int32_t> comp(static_cast<size_t>(n));
  core::pack_quantize_b_s8(k, n, B.data(), n, b_inv.data(), 1.0f, panels.data(), comp.data());
  std::vector<uint8_t> aq(static_cast<size_t>(core::quantized_a_bytes_s8(m, k)));
  core::quantize_a_u8(m, k, A.data(), k, nullptr, 1.0f / act_scale, aq.data());

  core::QuantEpilogue ep;
  ep.scale_col = dequant.data();
  ep.comp_col = comp.data();
  std::vector<float> got(static_cast<size_t>(m * n));
  core::gemm_u8s8f32(m, n, k, aq.data(), (k + 3) & ~int64_t{3}, panels.data(), got.data(), n,
                     ep);

  // Worst-case rounding error per element: each of the k products is off by
  // at most |a|*s_b/2 + |b|*s_a/2 + s_a*s_b/4.
  const float bound =
      static_cast<float>(k) *
      (2.0f * max_ws / 2.0f + 1.0f * act_scale / 2.0f + act_scale * max_ws / 4.0f);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float ref = 0.0f;
      for (int64_t p = 0; p < k; ++p) ref += A[i * k + p] * B[p * n + j];
      ASSERT_LT(std::fabs(got[static_cast<size_t>(i * n + j)] - ref), bound)
          << "(" << i << "," << j << ")";
    }
  }
}

TEST(GemmS8, RejectsOversizedK) {
  core::QuantEpilogue ep;
  EXPECT_THROW(core::gemm_u8s8f32(1, 1, core::kGemmS8MaxK + 1, nullptr,
                                  core::kGemmS8MaxK + 4, nullptr, nullptr, 1, ep),
               std::invalid_argument);
}

TEST(Quantize, HeadsStayFp32) {
  for (auto& [name, factory] : family_factories()) {
    SCOPED_TRACE(name);
    auto model = factory();
    compile::compile_model(*model);
    quant::quantize_model(*model);
    compile::StructureWalk w = compile::walk_structure(*model);
    for (nn::Dense* d : w.dense) {
      if (d->out_features() == 1) {
        EXPECT_NE(d->eval_weights().kind, nn::EvalWeights::Kind::kInt8)
            << "a regression head was quantized";
      }
    }
  }
}

// ---- accuracy drift budget (fp32 sibling vs int8) ------------------------

int topk_overlap(const std::vector<float>& a, const std::vector<float>& b, int k) {
  const auto top = [&](const std::vector<float>& v) {
    std::vector<int> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](int x, int y) { return v[static_cast<size_t>(x)] > v[static_cast<size_t>(y)]; });
    return std::set<int>(idx.begin(), idx.begin() + k);
  };
  const std::set<int> sa = top(a), sb = top(b);
  int overlap = 0;
  for (int i : sa) overlap += static_cast<int>(sb.count(i));
  return overlap;
}

TEST(Quantize, AccuracyDriftWithinBudget) {
  const std::vector<data::Sample> eval = make_samples(120, 5150);
  const std::vector<const data::Sample*> eptrs = ptrs_of(eval);
  for (auto& [name, factory] : family_factories()) {
    SCOPED_TRACE(name);
    auto fp32 = factory();
    compile::compile_model(*fp32);
    const std::vector<float> want = fp32->predict_batch(eptrs);

    auto int8 = factory();
    compile::compile_model(*int8);
    quant::quantize_model(*int8);
    const std::vector<float> got = int8->predict_batch(eptrs);

    ASSERT_EQ(got.size(), want.size());
    EXPECT_LE(stats::rmse(got, want), 0.05f) << "score RMSE drift over budget";

    // Correlation and ranking overlap only measure anything when the fp32
    // scores are actually spread out. The untrained tiny cnn3d collapses
    // to a ~1e-3 pK spread — down there Pearson compares rounding noise
    // with rounding noise — so sub-resolvable families pin a tight
    // absolute drift bound instead.
    const float mean = std::accumulate(want.begin(), want.end(), 0.0f) /
                       static_cast<float>(want.size());
    float var = 0.0f;
    for (float v : want) var += (v - mean) * (v - mean);
    const float stddev = std::sqrt(var / static_cast<float>(want.size()));
    if (stddev >= 0.05f) {
      EXPECT_GE(stats::pearson(got, want), 0.99f) << "score correlation drift over budget";
      EXPECT_GE(topk_overlap(got, want, 100), 95) << "top-100 ranking overlap under 95%";
    } else {
      float max_abs = 0.0f;
      for (size_t i = 0; i < want.size(); ++i) {
        max_abs = std::max(max_abs, std::fabs(got[i] - want[i]));
      }
      EXPECT_LE(max_abs, 0.01f) << "absolute drift over budget (degenerate fp32 spread "
                                << stddev << ")";
    }
  }
}

// ---- artifact round-trip: bitwise ----------------------------------------

TEST(Quantize, ArtifactRoundTripReproducesScoresBitwise) {
  const std::vector<data::Sample> eval = make_samples(8, 5151);
  const std::vector<const data::Sample*> eptrs = ptrs_of(eval);
  for (auto& [name, factory] : family_factories()) {
    SCOPED_TRACE(name);
    const std::string artifact = tmp_path("dfq_" + name + ".dfca");
    auto model = factory();
    compile::compile_model(*model);
    quant::quantize_model(*model);
    const std::vector<float> want = model->predict_batch(eptrs);
    const std::vector<float> sig = quant_signature(*model);
    compile::save_compiled(*model, artifact);

    // The artifact carries the int8 handles verbatim (version 3 layout).
    {
      std::shared_ptr<io::ArtifactReader> r = io::ArtifactReader::open(artifact);
      EXPECT_EQ(r->scalar("dense/0/kind"), static_cast<int64_t>(nn::EvalWeights::Kind::kInt8));
      EXPECT_TRUE(r->has("dense/0/comp"));
    }

    compile::CompiledModel cm = compile::load_compiled(artifact);
    EXPECT_EQ(quant_signature(*cm.model), sig) << "restored quant state differs";
    const std::vector<float> got = cm.model->predict_batch(eptrs);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "sample " << i;  // bitwise
    }
    std::filesystem::remove(artifact);
  }
}

// ---- policy: convs stay fp32 -----------------------------------------------

TEST(Quantize, ConvsStayFp32) {
  // Table-3 filter widths (32/64), where the conv forward is widest.
  models::Cnn3dConfig cfg = tiny_cnn_cfg();
  cfg.conv_filters1 = 32;
  cfg.conv_filters2 = 64;
  Rng rng(41);
  models::Cnn3d model(cfg, rng);
  compile::compile_model(model);
  const quant::QuantizeReport rep = quant::quantize_model(model);
  const compile::StructureWalk w = compile::walk_structure(model);
  ASSERT_FALSE(w.conv.empty());
  for (size_t i = 0; i < w.conv.size(); ++i) {
    EXPECT_EQ(w.conv[i]->eval_weights().kind, nn::EvalWeights::Kind::kF32) << "conv " << i;
  }
  int heads = 0;
  for (size_t i = 0; i < w.dense.size(); ++i) {
    const bool head = w.dense[i]->out_features() == 1;
    heads += head ? 1 : 0;
    EXPECT_EQ(w.dense[i]->eval_weights().kind,
              head ? nn::EvalWeights::Kind::kF32 : nn::EvalWeights::Kind::kInt8)
        << "dense " << i;
  }
  EXPECT_EQ(rep.quantized_dense, static_cast<int>(w.dense.size()) - heads);
  EXPECT_EQ(rep.kept_fp32, heads);
  EXPECT_GT(rep.quantized_dense, 0);
}

// ---- registry backends ---------------------------------------------------

TEST(Quantize, RegistryInt8ReplicasAreBitwiseIdentical) {
  serve::ModelRegistry reg = serve::default_registry(tiny_voxel());
  for (const char* name : {"cnn3d_int8", "sgcnn_int8", "fusion_int8"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }

  const std::vector<data::Sample> eval = make_samples(6, 5152);
  const std::vector<const data::Sample*> eptrs = ptrs_of(eval);
  // Replica identity via the model path (the scorer wraps the same model):
  // two independently minted replicas must score bitwise identically.
  std::unique_ptr<serve::Scorer> r1 = reg.make("fusion_int8");
  std::unique_ptr<serve::Scorer> r2 = reg.make("fusion_int8");
  Rng rng(17);
  std::vector<serve::PoseInput> poses;
  const std::vector<chem::Atom> pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  for (int i = 0; i < 4; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    serve::PoseInput p;
    p.ligand = std::move(lig);
    p.pocket = &pocket;
    poses.push_back(std::move(p));
  }
  std::vector<const serve::PoseInput*> pptrs;
  for (const serve::PoseInput& p : poses) pptrs.push_back(&p);
  const std::vector<float> s1 = r1->score(pptrs);
  const std::vector<float> s2 = r2->score(pptrs);
  ASSERT_EQ(s1.size(), s2.size());
  for (size_t i = 0; i < s1.size(); ++i) EXPECT_EQ(s1[i], s2[i]) << "pose " << i;
}

}  // namespace
}  // namespace df
