#include <gtest/gtest.h>

#include <filesystem>

#include "models/sgcnn.h"
#include "screen/campaign.h"
#include "serve/registry.h"
#include "serve/service.h"

namespace df::screen {
namespace {

using core::Rng;

CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.job.nodes = 1;
  cfg.job.gpus_per_node = 2;
  cfg.job.voxel.grid_dim = 8;
  cfg.poses_per_job = 40;
  cfg.pipeline.docking.num_runs = 3;
  cfg.pipeline.docking.steps_per_run = 25;
  cfg.pipeline.docking.max_poses = 3;
  cfg.pipeline.rescore_top_n = 1;
  return cfg;
}

ModelFactory sg_factory() {
  return [] {
    Rng rng(31);
    models::SgcnnConfig cfg;
    cfg.covalent_gather_width = 8;
    cfg.noncovalent_gather_width = 12;
    cfg.covalent_k = 2;
    cfg.noncovalent_k = 2;
    return std::make_unique<models::Sgcnn>(cfg, rng);
  };
}

TEST(Campaign, EndToEndProducesPerTargetResults) {
  Rng rng(1);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease1, rng),
                                       data::make_target(data::TargetKind::Spike1, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 6), rng);
  ScreeningCampaign campaign(small_campaign(), targets);
  const CampaignReport report = campaign.run(compounds, sg_factory());

  EXPECT_GT(report.poses_generated, 0);
  EXPECT_GT(report.jobs_run, 0);
  EXPECT_FALSE(report.results.empty());
  // Each surviving compound appears once per target.
  const int expected = (6 - report.compounds_rejected) * 2;
  EXPECT_EQ(static_cast<int>(report.results.size()), expected);

  for (const auto& r : report.results) {
    EXPECT_GE(r.poses, 1);
    EXPECT_TRUE(std::isfinite(r.fusion_pk));
    EXPECT_TRUE(std::isfinite(r.vina_score));
    EXPECT_GE(r.true_pk, 2.0f);
    EXPECT_LE(r.true_pk, 11.5f);
    EXPECT_GE(r.percent_inhibition, 0.0f);
    EXPECT_LE(r.percent_inhibition, 100.0f);
    EXPECT_TRUE(r.target_index == 0 || r.target_index == 1);
  }
}

TEST(Campaign, FaultToleranceRetriesFailedJobs) {
  Rng rng(2);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Spike2, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 5), rng);
  CampaignConfig cfg = small_campaign();
  cfg.job.nodes = 8;  // 20% failure probability
  cfg.job.gpus_per_node = 1;
  cfg.job.inject_failures = true;
  cfg.poses_per_job = 3;  // many jobs -> failures near-certain
  // Failure injection is deterministic per seed; scan a few campaign seeds
  // until one exhibits a failure (p(no failure) per campaign is small).
  CampaignReport report;
  bool saw_failure = false;
  for (uint64_t seed = 0; seed < 8 && !saw_failure; ++seed) {
    cfg.seed = seed;
    ScreeningCampaign campaign(cfg, targets);
    report = campaign.run(compounds, sg_factory());
    saw_failure = report.jobs_failed > 0;
  }
  // Retries keep total coverage complete despite failures.
  EXPECT_TRUE(saw_failure);
  EXPECT_GT(report.jobs_run, report.jobs_failed);
  EXPECT_FALSE(report.results.empty());
  for (const auto& r : report.results) EXPECT_TRUE(std::isfinite(r.fusion_pk));
}

TEST(Campaign, RejectedCompoundsTracked) {
  Rng rng(3);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease2, rng)};
  // ZINC profile has metal contaminants that ligand prep rejects.
  auto lib_cfg = data::default_library(data::LibrarySource::ZINC, 30);
  lib_cfg.gen.metal_probability = 0.5f;
  const auto compounds = data::generate_library(lib_cfg, rng);
  ScreeningCampaign campaign(small_campaign(), targets);
  const CampaignReport report = campaign.run(compounds, sg_factory());
  EXPECT_GT(report.compounds_rejected, 0);
  EXPECT_EQ(report.results.size(),
            static_cast<size_t>(30 - report.compounds_rejected));
}

TEST(Campaign, AggregationUsesStrongestPose) {
  Rng rng(4);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease1, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 4), rng);
  ScreeningCampaign campaign(small_campaign(), targets);
  const CampaignReport report = campaign.run(compounds, sg_factory());
  for (const auto& r : report.results) {
    // vina_score is a minimum over poses: must be <= 0 in contact or at
    // least finite; fusion_pk is a max: must be >= any plausible floor.
    EXPECT_LT(r.vina_score, 1e29f);
    EXPECT_GT(r.fusion_pk, -1e29f);
  }
}

TEST(Campaign, JobShapeNarrowerThanOneRankThrows) {
  Rng rng(5);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease1, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 3), rng);
  serve::ModelRegistry reg;
  serve::add_regressor(reg, "sg", sg_factory(), small_campaign().job.voxel);
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.ordered_stream = true;
  serve::ScoringService service(reg, sc);
  for (const auto& [nodes, gpus] : {std::pair{0, 2}, std::pair{1, 0}, std::pair{-1, 2}}) {
    CampaignConfig cfg = small_campaign();
    cfg.job.nodes = nodes;
    cfg.job.gpus_per_node = gpus;
    EXPECT_THROW(ScreeningCampaign(cfg, targets).run(compounds, sg_factory()),
                 std::invalid_argument)
        << nodes << " x " << gpus;
    EXPECT_THROW(ScreeningCampaign(cfg, targets).run(compounds, service, "sg"),
                 std::invalid_argument)
        << nodes << " x " << gpus;
  }
  EXPECT_EQ(service.stats().requests, 0u);
}

// A job-level output prefix would make every unit's FusionScoringJob write
// <prefix>.rank<N>.dfca over the previous unit's shards; both overloads
// reject it before docking, so nothing is scored and no file is written.
TEST(Campaign, JobOutputPrefixRejectedBeforeDocking) {
  Rng rng(6);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease1, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 3), rng);
  serve::ModelRegistry reg;
  serve::add_regressor(reg, "sg", sg_factory(), small_campaign().job.voxel);
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.ordered_stream = true;
  serve::ScoringService service(reg, sc);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "df_campaign_job_prefix";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CampaignConfig cfg = small_campaign();
  cfg.job.output_prefix = (dir / "job").string();
  EXPECT_THROW(ScreeningCampaign(cfg, targets).run(compounds, service, "sg"),
               std::invalid_argument);
  EXPECT_THROW(ScreeningCampaign(cfg, targets).run(compounds, sg_factory()),
               std::invalid_argument);
  EXPECT_EQ(service.stats().requests, 0u);
  EXPECT_TRUE(std::filesystem::is_empty(dir));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace df::screen
