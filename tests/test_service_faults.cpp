// Fault-injection pins for the external-ScoringService campaign path (S4):
// the §4.3 fault machinery (ScriptedFaultInjector, StochasticFaultInjector,
// retry chains, exhaustion, kill/resume) must compose with `run(compounds,
// service, scorer)` exactly as it does with the in-process factory path —
// same attempt bookkeeping, same bits, because failure sampling is a pure
// function of (seed, unit, attempt) and never of where scoring happens.
#include <gtest/gtest.h>

#include <filesystem>

#include "campaign_test_utils.h"
#include "serve/registry.h"
#include "serve/service.h"

namespace df::screen {
namespace {

namespace fs = std::filesystem;
using core::Rng;

class ServiceFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(23);
    targets_ = {data::make_target(data::TargetKind::Protease2, rng)};
    compounds_ =
        data::generate_library(data::default_library(data::LibrarySource::Enamine, 5), rng);
  }

  /// Ordered-stream service wrapping the deterministic test factory, shaped
  /// to `cfg` exactly like the compat path builds its private one.
  std::unique_ptr<serve::ScoringService> make_service(const CampaignConfig& cfg,
                                                      int workers = 3) {
    serve::ModelRegistry reg;
    serve::add_regressor(reg, "sg", testutil::tiny_sg_factory(), cfg.job.voxel, cfg.job.graph);
    serve::ServiceConfig sc;
    sc.workers = workers;
    sc.poses_per_batch = cfg.job.poses_per_batch;
    sc.ordered_stream = true;
    return std::make_unique<serve::ScoringService>(std::move(reg), sc);
  }

  CampaignReport run_via_service(const CampaignConfig& cfg, int workers = 3) {
    auto service = make_service(cfg, workers);
    return ScreeningCampaign(cfg, targets_).run(compounds_, *service, "sg");
  }

  std::vector<data::Target> targets_;
  std::vector<data::LibraryCompound> compounds_;
};

TEST_F(ServiceFaultsTest, ScriptedFaultsMatchFactoryPathBitwise) {
  ScriptedFaultInjector injector;
  injector.doom(0, 0, 0);
  injector.doom(2, 0, 1);
  injector.doom(2, 1, 0);

  CampaignConfig cfg = testutil::tiny_campaign();
  cfg.fault_injector = &injector;
  const CampaignReport via_factory =
      ScreeningCampaign(cfg, targets_).run(compounds_, testutil::tiny_sg_factory());
  const auto service = make_service(cfg);
  const CampaignReport via_service =
      ScreeningCampaign(cfg, targets_).run(compounds_, *service, "sg");

  EXPECT_EQ(via_factory.jobs_failed, 3);
  testutil::expect_reports_bitwise_equal(via_factory, via_service);
  EXPECT_EQ(via_service.jobs_failed, via_factory.jobs_failed);
  EXPECT_EQ(via_service.units_exhausted, 0);
  // Doomed attempts resolve without scoring: every pose reaches the
  // service exactly once, on its unit's clean attempt.
  EXPECT_EQ(service->stats().poses, static_cast<uint64_t>(via_service.poses_generated));
}

TEST_F(ServiceFaultsTest, RetriedUnitsScoreIdenticallyToCleanRun) {
  // Failure sampling must never leak into predictions: a unit that needed
  // three attempts carries the same score bits as one that ran clean.
  CampaignConfig clean = testutil::tiny_campaign();
  const CampaignReport baseline = run_via_service(clean);

  ScriptedFaultInjector injector;
  injector.doom(0, 0, 0);
  injector.doom(0, 1, 1);
  CampaignConfig faulty = clean;
  faulty.fault_injector = &injector;
  const CampaignReport retried = run_via_service(faulty);

  EXPECT_EQ(retried.jobs_failed, 2);
  ASSERT_EQ(retried.results.size(), baseline.results.size());
  for (size_t i = 0; i < baseline.results.size(); ++i) {
    EXPECT_EQ(retried.results[i].fusion_pk, baseline.results[i].fusion_pk)
        << "retries changed score bits for compound " << baseline.results[i].compound_id;
  }
}

TEST_F(ServiceFaultsTest, ExhaustedUnitSurfacesWithoutPoisoningTheRest) {
  CampaignConfig cfg = testutil::tiny_campaign();
  ScriptedFaultInjector injector;
  // Doom every attempt unit 1 gets (initial + max_job_retries).
  for (int attempt = 0; attempt <= cfg.max_job_retries; ++attempt) {
    injector.doom(1, attempt, 0);
  }
  cfg.fault_injector = &injector;

  const CampaignReport report = run_via_service(cfg);
  EXPECT_EQ(report.units_exhausted, 1);
  EXPECT_EQ(report.jobs_failed, cfg.max_job_retries + 1);
  EXPECT_FALSE(report.results.empty());
  // Exhaustion is itself deterministic: a second run reproduces the report.
  testutil::expect_reports_bitwise_equal(report, run_via_service(cfg));
}

TEST_F(ServiceFaultsTest, StochasticInjectorDeterministicThroughService) {
  CampaignConfig cfg = testutil::tiny_campaign();
  cfg.job.inject_failures = true;  // default §4.3 stochastic injector
  cfg.job.nodes = 8;               // 20% per-attempt failure rate
  cfg.job.gpus_per_node = 1;

  const CampaignReport first = run_via_service(cfg, /*workers=*/1);
  const CampaignReport again = run_via_service(cfg, /*workers=*/4);
  EXPECT_FALSE(first.results.empty());
  testutil::expect_reports_bitwise_equal(first, again);
  EXPECT_EQ(first.jobs_failed, again.jobs_failed);

  // And the schedule matches the factory path: same seed, same failures,
  // same bits, regardless of the scoring transport.
  const CampaignReport via_factory =
      ScreeningCampaign(cfg, targets_).run(compounds_, testutil::tiny_sg_factory());
  testutil::expect_reports_bitwise_equal(via_factory, first);
  EXPECT_EQ(via_factory.jobs_failed, first.jobs_failed);
}

TEST_F(ServiceFaultsTest, KillAndResumeComposesWithInjectorThroughService) {
  const fs::path root =
      fs::temp_directory_path() / "df_service_faults_resume";
  fs::remove_all(root);
  fs::create_directories(root / "ref");
  fs::create_directories(root / "killed");

  ScriptedFaultInjector injector;
  injector.doom(0, 0, 0);
  injector.doom(2, 0, 1);

  CampaignConfig cfg = testutil::tiny_campaign();
  cfg.fault_injector = &injector;
  cfg.checkpoint_every_jobs = 2;

  cfg.output_prefix = (root / "ref" / "out").string();
  cfg.checkpoint_path = (root / "ref" / "campaign.ckpt").string();
  const CampaignReport reference = run_via_service(cfg);

  cfg.output_prefix = (root / "killed" / "out").string();
  cfg.checkpoint_path = (root / "killed" / "campaign.ckpt").string();
  cfg.kill_after_attempts = 3;
  EXPECT_THROW(run_via_service(cfg), CampaignKilled);
  cfg.kill_after_attempts = -1;
  const CampaignReport resumed = run_via_service(cfg);

  testutil::expect_reports_bitwise_equal(reference, resumed);
  EXPECT_GT(resumed.units_resumed, 0);
  fs::remove_all(root);
}

}  // namespace
}  // namespace df::screen
