// Determinism pins for the campaign driver: every stochastic stream is
// keyed on (campaign seed, stable work-unit / compound id), never on
// pool-arrival order — so the CampaignReport is bitwise identical across
// worker-pool sizes and across repeated runs, with fault injection on.
#include <gtest/gtest.h>

#include "campaign_test_utils.h"
#include "screen/plan.h"

namespace df::screen {
namespace {

using core::Rng;

TEST(CampaignDeterminism, ReportIndependentOfThreadCount) {
  Rng rng(11);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease1, rng),
                                       data::make_target(data::TargetKind::Spike1, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, 5), rng);

  CampaignConfig cfg = testutil::tiny_campaign();
  cfg.job.inject_failures = true;  // fault path must be deterministic too
  cfg.job.nodes = 8;               // 20% per-attempt failure rate
  cfg.job.gpus_per_node = 1;

  cfg.threads = 1;
  const CampaignReport serial = ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());
  cfg.threads = 8;
  const CampaignReport wide = ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());

  EXPECT_FALSE(serial.results.empty());
  testutil::expect_reports_bitwise_equal(serial, wide);
}

TEST(CampaignDeterminism, RepeatedRunsIdentical) {
  Rng rng(12);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Spike2, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::ZINC, 4), rng);
  const CampaignConfig cfg = testutil::tiny_campaign();
  const CampaignReport a = ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());
  const CampaignReport b = ScreeningCampaign(cfg, targets).run(compounds, testutil::tiny_sg_factory());
  testutil::expect_reports_bitwise_equal(a, b);
}

TEST(CampaignDeterminism, RankPlanPartitionIsExact) {
  JobConfig job;
  job.nodes = 2;
  job.gpus_per_node = 4;
  const RankPlan plan = RankPlan::build(103, 10, job);
  EXPECT_EQ(plan.ranks_per_job, 8);
  ASSERT_EQ(plan.units.size(), 11u);
  size_t covered = 0;
  for (const WorkUnit& u : plan.units) {
    EXPECT_EQ(u.pose_begin, covered);
    EXPECT_GT(u.pose_end, u.pose_begin);
    covered = u.pose_end;
  }
  EXPECT_EQ(covered, 103u);
  EXPECT_EQ(plan.units.back().poses(), 3u);
}

}  // namespace
}  // namespace df::screen
