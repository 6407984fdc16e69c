#include <gtest/gtest.h>

#include <filesystem>

#include "chem/conformer.h"
#include "chem/smiles.h"
#include "data/target.h"
#include "models/sgcnn.h"
#include "screen/job.h"
#include "screen/scale_model.h"
#include "screen/writer.h"
#include "serve/service.h"

namespace df::screen {
namespace {

using core::Rng;

models::SgcnnConfig tiny_sg() {
  models::SgcnnConfig cfg;
  cfg.covalent_gather_width = 8;
  cfg.noncovalent_gather_width = 12;
  cfg.covalent_k = 2;
  cfg.noncovalent_k = 2;
  return cfg;
}

ModelFactory sg_factory() {
  return [] {
    Rng rng(77);  // same seed -> identical weights on every replica
    return std::make_unique<models::Sgcnn>(tiny_sg(), rng);
  };
}

/// Ordered-stream service with the tiny SG-CNN registered as "sg" — the
/// shared scoring backend every job test runs through.
serve::ScoringService make_sg_service(int workers = 4) {
  serve::ModelRegistry reg;
  chem::VoxelConfig voxel;
  voxel.grid_dim = 8;
  serve::add_regressor(reg, "sg", sg_factory(), voxel);
  serve::ServiceConfig sc;
  sc.workers = workers;
  sc.ordered_stream = true;
  return serve::ScoringService(reg, sc);
}

std::vector<PoseWorkItem> make_items(int n, const std::vector<chem::Atom>* pocket, Rng& rng) {
  std::vector<PoseWorkItem> items;
  for (int i = 0; i < n; ++i) {
    chem::Molecule lig = chem::parse_smiles("CC(N)CC(=O)O");
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    PoseWorkItem item;
    item.compound_id = i / 2;
    item.target_id = 0;
    item.pose_id = i % 2;
    item.ligand = std::move(lig);
    item.pocket = pocket;
    items.push_back(std::move(item));
  }
  return items;
}

TEST(Cluster, FailureRatesMatchPaper) {
  EXPECT_DOUBLE_EQ(job_failure_probability(1), 0.02);
  EXPECT_DOUBLE_EQ(job_failure_probability(2), 0.02);
  EXPECT_DOUBLE_EQ(job_failure_probability(4), 0.03);
  EXPECT_DOUBLE_EQ(job_failure_probability(8), 0.20);
}

TEST(Cluster, GpuMemoryModel) {
  NodeSpec node;  // 16 GB V100
  // Paper: 1.5 GB model + 56-pose batches fit.
  EXPECT_TRUE(batch_fits_gpu(1.5, 0.25, 56, node));
  EXPECT_FALSE(batch_fits_gpu(1.5, 0.25, 100, node));
}

TEST(Job, ScoresAllPosesAcrossRanks) {
  Rng rng(1);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto items = make_items(23, &pocket, rng);  // deliberately not divisible
  serve::ScoringService service = make_sg_service();
  JobConfig jc;
  jc.nodes = 2;
  jc.gpus_per_node = 2;
  FusionScoringJob job(jc);
  const JobReport r = job.run(items, service, "sg");
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.poses_scored, 23);
  EXPECT_EQ(r.predictions.size(), 23u);
  for (float p : r.predictions) EXPECT_TRUE(std::isfinite(p));
  EXPECT_GT(r.poses_per_second, 0.0);
}

TEST(Job, ResultsPreserveChunkOrder) {
  Rng rng(2);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto items = make_items(12, &pocket, rng);
  serve::ScoringService service = make_sg_service();
  JobConfig jc;
  jc.nodes = 1;
  jc.gpus_per_node = 3;
  const JobReport r = FusionScoringJob(jc).run(items, service, "sg");
  ASSERT_EQ(r.compound_ids.size(), 12u);
  for (size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(r.compound_ids[i], items[i].compound_id);
    EXPECT_EQ(r.pose_ids[i], items[i].pose_id);
  }
}

TEST(Job, IdenticalReplicasGiveConsistentScores) {
  // Same item placed at the start and end of the list lands on different
  // ranks (and so in different service requests, possibly scored by
  // different replicas); both must produce the same prediction.
  Rng rng(3);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  auto items = make_items(10, &pocket, rng);
  items.back() = items.front();
  items.back().pose_id = 9;
  serve::ScoringService service = make_sg_service();
  JobConfig jc;
  jc.nodes = 2;
  jc.gpus_per_node = 1;
  const JobReport r = FusionScoringJob(jc).run(items, service, "sg");
  EXPECT_NEAR(r.predictions.front(), r.predictions.back(), 1e-5f);
}

TEST(Job, FailureProducesNoOutput) {
  Rng rng(4);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto items = make_items(16, &pocket, rng);
  serve::ScoringService service = make_sg_service();
  JobConfig jc;
  jc.nodes = 8;  // 20% failure rate
  jc.gpus_per_node = 1;
  jc.inject_failures = true;
  // Scan seeds until one fails (p=0.2 -> should happen fast).
  bool saw_failure = false;
  for (uint64_t seed = 0; seed < 40 && !saw_failure; ++seed) {
    jc.seed = seed;
    const JobReport r = FusionScoringJob(jc).run(items, service, "sg");
    if (r.failed) {
      saw_failure = true;
      EXPECT_TRUE(r.predictions.empty());  // nothing written on failure
      EXPECT_GE(r.failed_rank, 0);
    }
  }
  EXPECT_TRUE(saw_failure);
}

TEST(Job, UnknownScorerThrowsAtStartup) {
  Rng rng(5);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto items = make_items(4, &pocket, rng);
  serve::ScoringService service = make_sg_service(1);
  JobConfig jc;
  jc.nodes = 1;
  jc.gpus_per_node = 1;
  EXPECT_THROW(FusionScoringJob(jc).run(items, service, "no_such_model"), std::out_of_range);
}

TEST(Job, ShapeNarrowerThanOneRankThrows) {
  Rng rng(6);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto items = make_items(4, &pocket, rng);
  serve::ScoringService service = make_sg_service(1);
  for (const auto& [nodes, gpus] : {std::pair{0, 4}, std::pair{2, 0}, std::pair{-1, 4}}) {
    JobConfig jc;
    jc.nodes = nodes;
    jc.gpus_per_node = gpus;
    EXPECT_THROW(FusionScoringJob(jc).run(items, service, "sg"), std::invalid_argument)
        << nodes << " x " << gpus;
  }
  EXPECT_EQ(service.stats().requests, 0u);
}

TEST(Writer, ShardedRoundTrip) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "df_shard_test").string();
  std::vector<int64_t> c{1, 2, 3, 4, 5}, t{0, 0, 1, 1, 2}, p{0, 1, 0, 1, 0};
  std::vector<float> y{1.1f, 2.2f, 3.3f, 4.4f, 5.5f};
  const auto files = write_sharded_results(prefix, 3, c, t, p, y);
  EXPECT_EQ(files.size(), 3u);
  const GatheredResults g = read_sharded_results(files);
  EXPECT_EQ(g.predictions.size(), 5u);
  // Round-robin sharding permutes rows; compare as multisets keyed by id.
  float sum = 0;
  for (float v : g.predictions) sum += v;
  EXPECT_NEAR(sum, 16.5f, 1e-4f);
  for (const auto& f : files) std::filesystem::remove(f);
}

TEST(ScaleModel, PaperDefaultsReproduceTable7SingleJob) {
  ThroughputModel model;  // paper-calibrated defaults
  const JobTimeBreakdown t = model.job_time(2'000'000, 4, 56);
  // Table 7: 20 min startup / 280 min eval / 6.5 min output, 108 poses/s.
  EXPECT_NEAR(t.startup_minutes, 20.0, 2.5);
  EXPECT_NEAR(t.eval_minutes, 280.0, 40.0);
  EXPECT_NEAR(t.output_minutes, 6.5, 0.1);
  EXPECT_NEAR(t.poses_per_second, 108.0, 15.0);
}

TEST(ScaleModel, PeakThroughputNear125JobScale) {
  ThroughputModel model;
  const PeakThroughput peak = model.peak(125, 2'000'000, 4, 56, 10.0);
  // Table 7 peak: 13,594 poses/s, 48.6M poses/h, 4.86M compounds/h.
  EXPECT_NEAR(peak.poses_per_second, 13594.0, 2000.0);
  EXPECT_NEAR(peak.compounds_per_hour, 4.86e6, 8e5);
}

TEST(ScaleModel, BatchSizeEffectIsSmallButReal) {
  // Fig 4: batch 56 saves ~10 minutes over batch 12 on a 2M-pose job.
  ThroughputModel model;
  const double t12 = model.job_time(2'000'000, 4, 12).total_minutes();
  const double t56 = model.job_time(2'000'000, 4, 56).total_minutes();
  EXPECT_GT(t12, t56);
  EXPECT_NEAR(t12 - t56, 10.0, 6.0);
}

TEST(ScaleModel, StrongScalingIsSubLinear) {
  // Fig 4: doubling nodes less than halves total time (startup + output
  // don't scale).
  ThroughputModel model;
  const double t1 = model.job_time(2'000'000, 1, 56).total_minutes();
  const double t2 = model.job_time(2'000'000, 2, 56).total_minutes();
  const double t8 = model.job_time(2'000'000, 8, 56).total_minutes();
  EXPECT_GT(t2, t1 / 2.0);
  EXPECT_GT(t8, t1 / 8.0);
  EXPECT_LT(t8, t2);
}

TEST(ScaleModel, FailureOverheadGrowsWithNodes) {
  ThroughputModel model;
  const double e4 = model.expected_minutes_with_failures(2'000'000, 4, 56) /
                    model.job_time(2'000'000, 4, 56).total_minutes();
  const double e8 = model.expected_minutes_with_failures(2'000'000, 8, 56) /
                    model.job_time(2'000'000, 8, 56).total_minutes();
  EXPECT_GT(e8, e4);  // 20% failure rate at 8 nodes bites harder
}

TEST(ScaleModel, CalibrationOverridesDefaults) {
  ThroughputModel model;
  model.calibrate(100.0);
  EXPECT_DOUBLE_EQ(model.config().per_rank_poses_per_second, 100.0);
}

}  // namespace
}  // namespace df::screen
