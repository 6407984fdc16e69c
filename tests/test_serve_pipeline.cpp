// Pipelined scoring hot path + cross-request pocket cache pins (ISSUE 10):
//   * the pocket-aware voxel graft (voxelize_ligand_onto) is bitwise
//     identical to joint voxelization at feature-set v1 and v2,
//   * GraphFeaturizer::featurize against a pre-built crop CellList equals
//     the self-built path bitwise,
//   * PocketCache: verified hits return the same entry, LRU eviction and
//     config-change invalidation are observable in stats, held entries
//     survive eviction,
//   * RegressorScorer's stage pipeline is bitwise identical to sequential
//     score() at every depth — also at the screening benchmark's model
//     widths at every batch size from 1 to 33, where the worker and the
//     stage worker split each forward into claimed pose sub-batches — and
//     through an ordered-stream ScoringService at every (workers, depth,
//     cache) combination,
//   * cache hit == cache miss bitwise at feature-set v1 AND v2, and
//     score() — cached or not, over mixed pockets and centers — equals
//     model predictions on the joint Voxelizer::voxelize featurization,
//   * featurize-stage errors surface at collect() as typed exceptions and
//     leave the pipeline usable,
//   * a warmed pipeline at depth 2 scores with zero tensor heap
//     allocations while stages overlap,
//   * an ordered-stream service keeps the same books at depth 0 and 2.
#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "chem/cell_list.h"
#include "chem/conformer.h"
#include "chem/graph_featurizer.h"
#include "chem/voxelizer.h"
#include "core/rng.h"
#include "core/workspace.h"
#include "data/target.h"
#include "models/cnn3d.h"
#include "models/fusion.h"
#include "models/sgcnn.h"
#include "serve/pocket_cache.h"
#include "serve/registry.h"
#include "serve/scorer.h"
#include "serve/service.h"

namespace df {
namespace {

using core::Rng;
using core::Tensor;

// ---- fixtures -----------------------------------------------------------

chem::VoxelConfig tiny_voxel(int fsv = 1) {
  chem::VoxelConfig cfg;
  cfg.grid_dim = 8;
  cfg.feature_set_version = fsv;
  return cfg;
}

chem::GraphFeaturizerConfig tiny_graph(int fsv = 1) {
  chem::GraphFeaturizerConfig cfg;
  cfg.feature_set_version = fsv;
  return cfg;
}

models::Cnn3dConfig tiny_cnn_cfg(int in_channels) {
  models::Cnn3dConfig cfg;
  cfg.grid_dim = 8;
  cfg.in_channels = in_channels;
  cfg.conv_filters1 = 4;
  cfg.conv_filters2 = 8;
  cfg.dense_nodes = 16;
  return cfg;
}

models::SgcnnConfig tiny_sg_cfg() {
  models::SgcnnConfig cfg;
  cfg.covalent_k = 2;
  cfg.noncovalent_k = 2;
  cfg.covalent_gather_width = 12;
  cfg.noncovalent_gather_width = 16;
  return cfg;
}

std::unique_ptr<models::FusionModel> make_fusion(int voxel_channels, uint64_t seed = 43) {
  Rng rng(seed);
  auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(voxel_channels), rng);
  auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), rng);
  models::FusionConfig fcfg;
  fcfg.kind = models::FusionKind::Mid;
  fcfg.model_specific_layers = true;
  fcfg.fusion_nodes = 12;
  return std::make_unique<models::FusionModel>(fcfg, cnn, sg, rng);
}

std::vector<serve::PoseInput> make_poses(int n, const std::vector<chem::Atom>* pocket, Rng& rng) {
  std::vector<serve::PoseInput> poses;
  poses.reserve(static_cast<size_t>(n));
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

std::vector<const serve::PoseInput*> ptrs_of(const std::vector<serve::PoseInput>& poses) {
  std::vector<const serve::PoseInput*> out;
  out.reserve(poses.size());
  for (const auto& p : poses) out.push_back(&p);
  return out;
}

void expect_bitwise(const std::vector<float>& got, const std::vector<float>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    // EXPECT_EQ on floats is exact — bitwise for finite values.
    EXPECT_EQ(got[i], want[i]) << what << " pose " << i;
  }
}

// ---- v2 pocket-aware voxel graft ----------------------------------------

TEST(PocketGraft, V2GraftBitwiseEqualsJointVoxelization) {
  Rng rng(71);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const chem::Voxelizer vox(tiny_voxel(2));
  const Tensor pocket_grid = vox.voxelize_pocket(pocket, {});
  for (int i = 0; i < 4; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    const Tensor joint = vox.voxelize(lig, pocket, {});
    const Tensor grafted = vox.voxelize_ligand_onto(lig, pocket, pocket_grid, {});
    ASSERT_EQ(joint.shape(), grafted.shape());
    EXPECT_EQ(std::memcmp(joint.data(), grafted.data(),
                          static_cast<size_t>(joint.numel()) * sizeof(float)),
              0)
        << "v2 graft diverged from joint voxelization, ligand " << i;
  }

  // At v1 the graft must reproduce the historical joint voxelization.
  const chem::Voxelizer vox1(tiny_voxel(1));
  const Tensor grid1 = vox1.voxelize_pocket(pocket, {});
  chem::Molecule lig = chem::generate_molecule({}, rng);
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  const Tensor a = vox1.voxelize(lig, pocket, {});
  const Tensor b = vox1.voxelize_ligand_onto(lig, pocket, grid1, {});
  EXPECT_EQ(std::memcmp(a.data(), b.data(), static_cast<size_t>(a.numel()) * sizeof(float)), 0);
}

TEST(PocketGraft, PrebuiltCropCellsBitwiseEqualsSelfBuilt) {
  Rng rng(72);
  const auto pocket = data::make_pocket({4.5f, 80, 0.6f, 0.5f, 0.1f}, rng);
  std::vector<core::Vec3> pos;
  pos.reserve(pocket.size());
  for (const chem::Atom& a : pocket) pos.push_back(a.pos);

  for (int fsv : {1, 2}) {
    const chem::GraphFeaturizer feat(tiny_graph(fsv));
    chem::CellList cells;
    cells.build(pos.data(), static_cast<int32_t>(pos.size()),
                feat.config().noncovalent_threshold);
    for (int i = 0; i < 3; ++i) {
      chem::Molecule lig = chem::generate_molecule({}, rng);
      chem::embed_conformer(lig, rng);
      lig.translate(core::Vec3{} - lig.centroid());
      const graph::SpatialGraph self = feat.featurize(lig, pocket);
      const graph::SpatialGraph pre = feat.featurize(lig, pocket, &cells);
      ASSERT_EQ(self.num_nodes(), pre.num_nodes()) << "fsv " << fsv;
      ASSERT_EQ(self.node_features.shape(), pre.node_features.shape());
      EXPECT_EQ(std::memcmp(self.node_features.data(), pre.node_features.data(),
                            static_cast<size_t>(self.node_features.numel()) * sizeof(float)),
                0)
          << "fsv " << fsv << " ligand " << i;
      EXPECT_EQ(self.covalent.src, pre.covalent.src);
      EXPECT_EQ(self.covalent.dst, pre.covalent.dst);
      EXPECT_EQ(self.noncovalent.src, pre.noncovalent.src);
      EXPECT_EQ(self.noncovalent.dst, pre.noncovalent.dst);
    }
  }
}

// ---- pocket cache -------------------------------------------------------

TEST(PocketCacheTest, VerifiedHitsReturnTheSameEntry) {
  Rng rng(73);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const chem::Voxelizer vox(tiny_voxel());
  const chem::GraphFeaturizer feat(tiny_graph());

  serve::PocketCache cache(4);
  EXPECT_EQ(cache.capacity(), 4u);
  const auto e1 = cache.lookup(pocket, {}, vox, feat);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.size(), 1u);

  const auto e2 = cache.lookup(pocket, {}, vox, feat);
  EXPECT_EQ(e1.get(), e2.get()) << "hit minted a new entry";
  EXPECT_EQ(cache.stats().hits, 1u);

  // The cached grid is the protein-only voxelization, bitwise, and owns
  // its storage on the heap (it must survive arena rewinds).
  const Tensor want = vox.voxelize_pocket(pocket, {});
  ASSERT_EQ(e1->grid.shape(), want.shape());
  EXPECT_EQ(std::memcmp(e1->grid.data(), want.data(),
                        static_cast<size_t>(want.numel()) * sizeof(float)),
            0);
  EXPECT_FALSE(e1->grid.borrowed());
  EXPECT_TRUE(e1->crop_cells.built());

  // A different site center is a different entry.
  const auto e3 = cache.lookup(pocket, {1.0f, 0.0f, 0.0f}, vox, feat);
  EXPECT_NE(e1.get(), e3.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.size(), 2u);

  // The graph config is not in the key: featurizers whose thresholds (and
  // so crop cell sizes) differ share one entry, and each crops on it
  // exactly as on a list it binned itself, since knearest is exact at any
  // cell size. A wide shell and a 16-atom crop make the list span cells.
  const auto shell = data::make_pocket({12.0f, 160, 0.75f, 0.5f, 0.1f}, rng);
  chem::GraphFeaturizerConfig narrow_cfg = tiny_graph();
  narrow_cfg.covalent_threshold = 1.8f;
  narrow_cfg.noncovalent_threshold = 4.0f;
  narrow_cfg.max_pocket_atoms = 16;
  chem::GraphFeaturizerConfig serving_cfg = tiny_graph();
  serving_cfg.max_pocket_atoms = 16;
  const chem::GraphFeaturizer narrow(narrow_cfg), serving(serving_cfg);
  const auto shared = cache.lookup(shell, {}, vox, serving);
  EXPECT_EQ(cache.lookup(shell, {}, vox, narrow).get(), shared.get());
  EXPECT_EQ(shared->crop_cells.cell_size(), serving_cfg.noncovalent_threshold);
  for (const chem::GraphFeaturizer* f : {&narrow, &serving}) {
    chem::CellList own;
    f->build_crop_cells(shell, own);
    for (int i = 0; i < 4; ++i) {
      chem::Molecule lig = chem::generate_molecule({}, rng);
      chem::embed_conformer(lig, rng);
      lig.translate(core::Vec3{rng.normal(0.0f, 3.0f), rng.normal(0.0f, 3.0f),
                               rng.normal(0.0f, 3.0f)} - lig.centroid());
      const graph::SpatialGraph want = f->featurize(lig, shell, &own);
      const graph::SpatialGraph got = f->featurize(lig, shell, &shared->crop_cells);
      ASSERT_EQ(got.node_features.shape(), want.node_features.shape());
      EXPECT_EQ(std::memcmp(got.node_features.data(), want.node_features.data(),
                            static_cast<size_t>(want.node_features.numel()) * sizeof(float)),
                0)
          << "threshold " << f->config().noncovalent_threshold << " ligand " << i;
      EXPECT_EQ(got.covalent.src, want.covalent.src);
      EXPECT_EQ(got.covalent.dst, want.covalent.dst);
      EXPECT_EQ(got.noncovalent.src, want.noncovalent.src);
      EXPECT_EQ(got.noncovalent.dst, want.noncovalent.dst);
    }
  }
}

TEST(PocketCacheTest, LruEvictionAndConfigInvalidation) {
  Rng ra(74), rb(75), rc(76);
  const auto pa = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, ra);
  const auto pb = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, rb);
  const auto pc = data::make_pocket({4.5f, 20, 0.6f, 0.5f, 0.1f}, rc);
  const chem::Voxelizer vox(tiny_voxel());
  const chem::GraphFeaturizer feat(tiny_graph());

  serve::PocketCache cache(2);
  cache.lookup(pa, {}, vox, feat);
  const auto held_b = cache.lookup(pb, {}, vox, feat);
  EXPECT_EQ(cache.size(), 2u);

  // Touch A so B is the LRU victim, then insert C.
  cache.lookup(pa, {}, vox, feat);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.lookup(pc, {}, vox, feat);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The evicted receptor misses (rebuild), the survivors hit.
  const uint64_t misses_before = cache.stats().misses;
  cache.lookup(pb, {}, vox, feat);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);

  // A held shared_ptr outlives its entry's eviction.
  ASSERT_NE(held_b, nullptr);
  EXPECT_GT(held_b->grid.numel(), 0);
  EXPECT_EQ(held_b->atoms.size(), pb.size());

  // Any voxelization-config change is a different key — that IS the
  // invalidation semantics: feature-set version...
  serve::PocketCache fresh(4);
  fresh.lookup(pa, {}, vox, feat);
  const chem::Voxelizer vox_v2(tiny_voxel(2));
  const chem::GraphFeaturizer feat_v2(tiny_graph(2));
  fresh.lookup(pa, {}, vox_v2, feat_v2);
  EXPECT_EQ(fresh.stats().misses, 2u);
  EXPECT_EQ(fresh.stats().hits, 0u);
  // ... and any grid knob.
  chem::VoxelConfig wide = tiny_voxel();
  wide.grid_dim = 12;
  fresh.lookup(pa, {}, chem::Voxelizer(wide), feat);
  EXPECT_EQ(fresh.stats().misses, 3u);
  EXPECT_EQ(fresh.stats().hits, 0u);
}

TEST(PocketCacheTest, ConcurrentLookupsBuildOnceAndAgree) {
  Rng rng(77);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const chem::Voxelizer vox(tiny_voxel());
  const chem::GraphFeaturizer feat(tiny_graph());

  serve::PocketCache cache(4);
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<const serve::PocketCache::Entry>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[static_cast<size_t>(t)] = cache.lookup(pocket, {}, vox, feat); });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[0].get(), got[static_cast<size_t>(t)].get()) << "thread " << t;
  }
  EXPECT_EQ(cache.stats().misses, 1u) << "the build ran more than once";
}

// ---- pipelined scorer ≡ sequential, bitwise -----------------------------

TEST(PipelinedScorer, BitwiseEqualsSequentialAcrossDepthsAndLanes) {
  Rng rng(81);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  constexpr int kBatches = 6;
  std::vector<std::vector<serve::PoseInput>> batches;
  for (int b = 0; b < kBatches; ++b) batches.push_back(make_poses(5, &pocket, rng));

  // Baseline: plain sequential score() on a fresh replica.
  std::vector<std::vector<float>> want;
  {
    serve::RegressorScorer scorer("fusion", make_fusion(tiny_voxel().channels()), tiny_voxel(),
                                  tiny_graph());
    for (const auto& b : batches) want.push_back(scorer.score(ptrs_of(b)));
  }

  for (int depth : {1, 2, 4}) {
    serve::RegressorScorer scorer("fusion", make_fusion(tiny_voxel().channels()), tiny_voxel(),
                                  tiny_graph());
    scorer.set_pipeline_depth(depth);
    serve::ScorerPipeline* pipe = scorer.pipeline();
    ASSERT_NE(pipe, nullptr);
    EXPECT_EQ(pipe->depth(), depth);

    const std::string tag = "depth=" + std::to_string(depth);
    std::vector<std::vector<float>> got;
    for (const auto& b : batches) {
      if (pipe->in_flight() == static_cast<size_t>(depth)) got.push_back(pipe->collect());
      pipe->submit(ptrs_of(b));
    }
    while (pipe->in_flight() > 0) got.push_back(pipe->collect());
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (int b = 0; b < kBatches; ++b) {
      expect_bitwise(got[static_cast<size_t>(b)], want[static_cast<size_t>(b)],
                     tag + " batch " + std::to_string(b));
    }

    // The drained replica's sequential path is untouched by pipelining.
    expect_bitwise(scorer.score(ptrs_of(batches[0])), want[0], tag + " post-drain score()");
    // Stats account every batch exactly once, at collect time.
    EXPECT_EQ(scorer.phase_stats().batches, static_cast<uint64_t>(kBatches + 1)) << tag;

    // Depth 0 tears the pipeline down.
    scorer.set_pipeline_depth(0);
    EXPECT_EQ(scorer.pipeline(), nullptr) << tag;
  }
}

TEST(PipelinedScorer, CacheHitBitwiseEqualsMissAtBothFeatureSetVersions) {
  Rng rng(82);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  for (int fsv : {1, 2}) {
    const chem::VoxelConfig voxel = tiny_voxel(fsv);
    std::vector<std::vector<serve::PoseInput>> batches;
    for (int b = 0; b < 3; ++b) batches.push_back(make_poses(5, &pocket, rng));

    serve::RegressorScorer plain("fusion", make_fusion(voxel.channels()), voxel, tiny_graph(fsv));
    serve::RegressorScorer cached("fusion", make_fusion(voxel.channels()), voxel, tiny_graph(fsv));
    auto cache = std::make_shared<serve::PocketCache>(4);
    cached.set_pocket_cache(cache);

    for (int b = 0; b < 3; ++b) {
      const auto want = plain.score(ptrs_of(batches[static_cast<size_t>(b)]));
      const auto got = cached.score(ptrs_of(batches[static_cast<size_t>(b)]));
      expect_bitwise(got, want, "fsv=" + std::to_string(fsv) + " batch " + std::to_string(b));
    }
    // One build, then every batch reuses it: one lookup per batch.
    EXPECT_EQ(cache->stats().misses, 1u) << "fsv " << fsv;
    EXPECT_EQ(cache->stats().hits, 2u) << "fsv " << fsv;
  }
}

TEST(PipelinedScorer, ScoreBitwiseEqualsJointFeaturizationReference) {
  // The scorer only ever grafts ligands onto pocket grids; pin it against
  // the joint featurization it replaces: per pose Voxelizer::voxelize +
  // GraphFeaturizer::featurize, then one predict_batch. The batch mixes two
  // pockets and two centers (four sites, interleaved), so the per-batch
  // (pocket, center) dedup and the cache keys are both exercised.
  Rng rng(87);
  const auto pocket_a = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto pocket_b = data::make_pocket({4.5f, 30, 0.6f, 0.5f, 0.1f}, rng);
  const core::Vec3 centers[2] = {{0.0f, 0.0f, 0.0f}, {0.75f, -0.5f, 0.25f}};
  auto poses = make_poses(8, &pocket_a, rng);
  for (size_t i = 0; i < poses.size(); ++i) {
    poses[i].pocket = i % 2 == 0 ? &pocket_a : &pocket_b;
    poses[i].site_center = centers[(i / 2) % 2];
  }

  for (int fsv : {1, 2}) {
    const chem::VoxelConfig voxel = tiny_voxel(fsv);
    const chem::Voxelizer vox(voxel);
    const chem::GraphFeaturizer feat(tiny_graph(fsv));
    std::vector<data::Sample> samples(poses.size());
    std::vector<const data::Sample*> sample_ptrs;
    for (size_t i = 0; i < poses.size(); ++i) {
      const serve::PoseInput& p = poses[i];
      samples[i].voxel = vox.voxelize(p.ligand, *p.pocket, p.site_center);
      samples[i].graph = feat.featurize(p.ligand, *p.pocket);
      sample_ptrs.push_back(&samples[i]);
    }
    auto model = make_fusion(voxel.channels());
    model->set_training(false);
    const std::vector<float> want = model->predict_batch(sample_ptrs);
    ASSERT_EQ(want.size(), poses.size());

    for (bool cached : {false, true}) {
      const std::string tag = "fsv=" + std::to_string(fsv) + (cached ? " cached" : " uncached");
      serve::RegressorScorer scorer("fusion", make_fusion(voxel.channels()), voxel,
                                    tiny_graph(fsv));
      auto cache = std::make_shared<serve::PocketCache>(8);
      if (cached) scorer.set_pocket_cache(cache);
      for (int rep = 0; rep < 2; ++rep) {
        const std::vector<float> got = scorer.score(ptrs_of(poses));
        ASSERT_EQ(got.size(), want.size()) << tag;
        EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)), 0)
            << tag << " rep " << rep;
      }
      // One lookup per site per batch: four builds, then four hits.
      EXPECT_EQ(cache->stats().misses, cached ? 4u : 0u) << tag;
      EXPECT_EQ(cache->stats().hits, cached ? 4u : 0u) << tag;
    }
  }
}

TEST(PipelinedScorer, ErrorsSurfaceAtCollectAndThePipelineSurvives) {
  Rng rng(83);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto good = make_poses(4, &pocket, rng);
  auto bad = make_poses(2, &pocket, rng);
  bad[1].pocket = nullptr;  // the classic client bug

  serve::RegressorScorer scorer("fusion", make_fusion(tiny_voxel().channels()), tiny_voxel(),
                                tiny_graph());
  const auto want = scorer.score(ptrs_of(good));

  scorer.set_pipeline_depth(2);
  serve::ScorerPipeline* pipe = scorer.pipeline();
  ASSERT_NE(pipe, nullptr);
  EXPECT_THROW(pipe->collect(), std::logic_error);  // nothing in flight

  pipe->submit(ptrs_of(bad));
  pipe->submit(ptrs_of(good));
  // score() must refuse to race in-flight pipelined batches.
  EXPECT_THROW(scorer.score(ptrs_of(good)), std::logic_error);
  EXPECT_THROW(pipe->collect(), std::invalid_argument);  // the null pocket, rethrown
  // The failed slot is released; the next batch is unaffected.
  expect_bitwise(pipe->collect(), want, "batch after a failed one");
  EXPECT_EQ(pipe->in_flight(), 0u);
}

TEST(PipelinedScorer, SteadyStateZeroTensorHeapAllocationsAtDepth2) {
  Rng rng(84);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto poses = make_poses(8, &pocket, rng);
  const auto ptrs = ptrs_of(poses);

  serve::RegressorScorer scorer("fusion", make_fusion(tiny_voxel().channels()), tiny_voxel(),
                                tiny_graph());
  auto cache = std::make_shared<serve::PocketCache>(4);
  scorer.set_pocket_cache(cache);
  scorer.set_pipeline_depth(2);
  serve::ScorerPipeline* pipe = scorer.pipeline();
  ASSERT_NE(pipe, nullptr);

  // Warm every ring slot (and the cache entry) so all arenas are sized.
  for (int round = 0; round < 4; ++round) {
    pipe->submit(ptrs);
    pipe->submit(ptrs);
    pipe->collect();
    pipe->collect();
  }

  // Steady state with stages genuinely overlapping: keep the ring full so
  // the stage thread featurizes batch N+1 while collect() forwards N.
  const uint64_t before = core::alloc_count();
  std::vector<float> out;
  pipe->submit(ptrs);
  pipe->submit(ptrs);
  for (int round = 0; round < 6; ++round) {
    out = pipe->collect();
    pipe->submit(ptrs);
  }
  out = pipe->collect();
  out = pipe->collect();
  EXPECT_EQ(core::alloc_count(), before)
      << "steady-state pipelined scoring touched the heap for tensor data";
  ASSERT_EQ(out.size(), ptrs.size());
}

TEST(PipelinedScorer, BitwiseEqualsScoreAtScreeningModelWidths) {
  // The screening benchmark's model widths at every batch size from 1 to
  // 33: a depth-2 pipeline splits each forward into pose sub-batches that
  // the worker and the stage worker claim, so this pins every claim split,
  // batches below two minimum claims included, against score()'s one
  // whole-batch claim.
  models::Cnn3dConfig cc;
  cc.in_channels = tiny_voxel().channels();
  cc.grid_dim = tiny_voxel().grid_dim;
  cc.conv_filters1 = 32;
  cc.conv_filters2 = 64;
  cc.dense_nodes = 128;
  cc.residual1 = false;
  cc.residual2 = true;
  models::SgcnnConfig sc;
  sc.covalent_k = 6;
  sc.noncovalent_k = 3;
  sc.covalent_gather_width = 24;
  sc.noncovalent_gather_width = 128;
  models::FusionConfig fc;
  fc.kind = models::FusionKind::Coherent;
  fc.num_fusion_layers = 4;
  fc.fusion_nodes = 64;
  fc.activation = nn::Activation::kSELU;
  const auto make_model = [&] {
    Rng mrng(0x5c2ee);
    auto cnn = std::make_shared<models::Cnn3d>(cc, mrng);
    auto sg = std::make_shared<models::Sgcnn>(sc, mrng);
    return std::make_unique<models::FusionModel>(fc, cnn, sg, mrng);
  };

  Rng rng(89);
  const auto pocket = data::make_pocket({5.5f, 96, 0.7f, 0.5f, 0.1f}, rng);
  constexpr int kBatches = 33;
  std::vector<std::vector<serve::PoseInput>> batches;
  for (int b = 0; b < kBatches; ++b) batches.push_back(make_poses(b + 1, &pocket, rng));

  serve::RegressorScorer sequential("fusion", make_model(), tiny_voxel(), tiny_graph());
  serve::RegressorScorer pipelined("fusion", make_model(), tiny_voxel(), tiny_graph());
  pipelined.set_pipeline_depth(2);
  serve::ScorerPipeline* pipe = pipelined.pipeline();
  ASSERT_NE(pipe, nullptr);
  std::vector<std::vector<float>> got;
  for (const auto& b : batches) {
    if (pipe->in_flight() == 2) got.push_back(pipe->collect());
    pipe->submit(ptrs_of(b));
  }
  while (pipe->in_flight() > 0) got.push_back(pipe->collect());
  ASSERT_EQ(got.size(), static_cast<size_t>(kBatches));
  for (int b = 0; b < kBatches; ++b) {
    expect_bitwise(got[static_cast<size_t>(b)],
                   sequential.score(ptrs_of(batches[static_cast<size_t>(b)])),
                   std::to_string(b + 1) + "-pose batch");
  }
}

// ---- through the service ------------------------------------------------

TEST(PipelinedService, OrderedStreamBitwiseAcrossDepthWorkersAndCache) {
  Rng rng(85);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  constexpr int kClients = 3;
  std::vector<std::vector<serve::PoseInput>> client_poses;
  for (int c = 0; c < kClients; ++c) client_poses.push_back(make_poses(10, &pocket, rng));

  struct Config {
    int workers;
    int depth;
    size_t cache_targets;
  };
  const auto run_config = [&](const Config& cc) {
    serve::ModelRegistry reg;
    serve::add_regressor(
        reg, "fusion",
        [] {
          Rng mrng(43);
          auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(tiny_voxel().channels()), mrng);
          auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), mrng);
          models::FusionConfig fcfg;
          fcfg.kind = models::FusionKind::Mid;
          fcfg.model_specific_layers = true;
          fcfg.fusion_nodes = 12;
          return std::make_unique<models::FusionModel>(fcfg, cnn, sg, mrng);
        },
        tiny_voxel(), tiny_graph());
    serve::ServiceConfig sc;
    sc.workers = cc.workers;
    sc.poses_per_batch = 4;  // 10-pose requests split 4/4/2
    sc.ordered_stream = true;
    sc.pipeline_depth = cc.depth;
    sc.pocket_cache_targets = cc.cache_targets;
    serve::ScoringService service(reg, sc);
    std::vector<std::vector<float>> scores(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serve::ScoreRequest req;
        req.scorer = "fusion";
        req.poses = client_poses[static_cast<size_t>(c)];
        scores[static_cast<size_t>(c)] = service.score(std::move(req)).scores;
      });
    }
    for (auto& t : clients) t.join();
    return scores;
  };

  const auto baseline = run_config({1, 0, 0});
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(baseline[static_cast<size_t>(c)].size(), 10u);
  }
  const Config configs[] = {
      {1, 2, 4},  // pipelined + cached, single worker
      {4, 2, 4},  // pipelined + cached, parallel workers
      {2, 4, 0},  // deep pipeline, no cache
      {1, 0, 4},  // cache only, sequential
  };
  for (const Config& cc : configs) {
    const auto got = run_config(cc);
    const std::string tag = "workers=" + std::to_string(cc.workers) +
                            " depth=" + std::to_string(cc.depth) +
                            " cache=" + std::to_string(cc.cache_targets);
    for (int c = 0; c < kClients; ++c) {
      expect_bitwise(got[static_cast<size_t>(c)], baseline[static_cast<size_t>(c)],
                     tag + " client " + std::to_string(c));
    }
  }
}

TEST(PipelinedService, OrderedStreamStatsEqualAtDepthZeroAndTwo) {
  // Sequential and pipelined workers complete batches through one path, so
  // the same requests must leave the same books.
  Rng rng(88);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  constexpr int kClients = 3;
  std::vector<std::vector<serve::PoseInput>> client_poses;
  for (int c = 0; c < kClients; ++c) client_poses.push_back(make_poses(10, &pocket, rng));

  const auto run = [&](int depth) {
    serve::ModelRegistry reg;
    serve::add_regressor(
        reg, "fusion", [] { return make_fusion(tiny_voxel().channels()); }, tiny_voxel(),
        tiny_graph());
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.poses_per_batch = 4;  // 10-pose requests split 4/4/2
    sc.ordered_stream = true;
    sc.pipeline_depth = depth;
    serve::ScoringService service(reg, sc);
    std::vector<std::future<serve::ScoreResponse>> futures;
    for (int c = 0; c < kClients; ++c) {
      serve::ScoreRequest req;
      req.scorer = "fusion";
      req.poses = client_poses[static_cast<size_t>(c)];
      futures.push_back(service.submit(std::move(req)));
    }
    for (auto& f : futures) EXPECT_EQ(f.get().error, serve::ScoreError::kNone);
    service.drain();
    return service.stats();
  };

  const serve::ServiceStats seq = run(0);
  const serve::ServiceStats piped = run(2);
  EXPECT_EQ(seq.requests, 3u);
  EXPECT_EQ(seq.poses, 30u);
  EXPECT_EQ(seq.batches, 9u);
  EXPECT_EQ(seq.full_batches, 6u);
  EXPECT_EQ(seq.latency.count(), 3u);
  EXPECT_EQ(piped.requests, seq.requests);
  EXPECT_EQ(piped.poses, seq.poses);
  EXPECT_EQ(piped.batches, seq.batches);
  EXPECT_EQ(piped.full_batches, seq.full_batches);
  EXPECT_EQ(piped.latency.count(), seq.latency.count());
}

TEST(PipelinedService, TypedErrorsAndDrainWithBatchesInFlight) {
  Rng rng(86);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ModelRegistry reg;
  serve::add_regressor(
      reg, "fusion",
      [] {
        Rng mrng(43);
        auto cnn = std::make_shared<models::Cnn3d>(tiny_cnn_cfg(tiny_voxel().channels()), mrng);
        auto sg = std::make_shared<models::Sgcnn>(tiny_sg_cfg(), mrng);
        models::FusionConfig fcfg;
        fcfg.kind = models::FusionKind::Mid;
        return std::make_unique<models::FusionModel>(fcfg, cnn, sg, mrng);
      },
      tiny_voxel(), tiny_graph());
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 4;
  sc.ordered_stream = true;
  sc.pipeline_depth = 2;
  sc.pocket_cache_targets = 2;
  serve::ScoringService service(reg, sc);

  // A featurize-stage failure maps to the same typed error as sequential.
  {
    serve::ScoreRequest req;
    req.scorer = "fusion";
    req.poses = make_poses(6, &pocket, rng);
    req.poses[5].pocket = nullptr;
    const serve::ScoreResponse resp = service.score(std::move(req));
    EXPECT_EQ(resp.error, serve::ScoreError::kScorerFailure);
    EXPECT_TRUE(resp.scores.empty());
  }
  // And a good request right after scores normally (the worker's pipeline
  // survived the failed batch).
  {
    serve::ScoreRequest req;
    req.scorer = "fusion";
    req.poses = make_poses(6, &pocket, rng);
    const serve::ScoreResponse resp = service.score(std::move(req));
    EXPECT_EQ(resp.error, serve::ScoreError::kNone);
    EXPECT_EQ(resp.scores.size(), 6u);
  }
  // drain() must wait out in-flight pipelined batches too.
  service.drain();
  service.shutdown();
}

}  // namespace
}  // namespace df
