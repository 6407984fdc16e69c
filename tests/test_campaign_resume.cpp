// Checkpoint/resume property tests: a campaign killed after ANY number of
// job attempts — including with a torn shard block on disk — and then
// resumed must produce a CampaignReport bit-identical to the uninterrupted
// run, with fault injection enabled throughout (§4.3: jobs die, "another
// job takes its place"; here the whole driver dies too).
#include <gtest/gtest.h>

#include <filesystem>

#include "campaign_test_utils.h"
#include "screen/checkpoint.h"
#include "screen/writer.h"

namespace df::screen {
namespace {

namespace fs = std::filesystem;
using core::Rng;

class CampaignResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("df_resume_" +
             std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(root_);
    fs::create_directories(root_);

    Rng rng(21);
    targets_ = {data::make_target(data::TargetKind::Protease1, rng)};
    compounds_ = data::generate_library(data::default_library(data::LibrarySource::Enamine, 5), rng);

    // Deterministic fault script: first unit dies once, third unit dies
    // twice — exercising retry chains on both sides of checkpoints.
    injector_.doom(0, 0, 0);
    injector_.doom(2, 0, 1);
    injector_.doom(2, 1, 0);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Campaign config writing into `name/` under the test root.
  CampaignConfig durable_cfg(const std::string& name) {
    fs::create_directories(root_ / name);
    CampaignConfig cfg = testutil::tiny_campaign();
    cfg.fault_injector = &injector_;
    cfg.checkpoint_every_jobs = 2;
    cfg.output_prefix = (root_ / name / "out").string();
    cfg.checkpoint_path = (root_ / name / "campaign.ckpt").string();
    return cfg;
  }

  CampaignReport run(const CampaignConfig& cfg) {
    return ScreeningCampaign(cfg, targets_).run(compounds_, testutil::tiny_sg_factory());
  }

  fs::path root_;
  std::vector<data::Target> targets_;
  std::vector<data::LibraryCompound> compounds_;
  ScriptedFaultInjector injector_;
};

TEST_F(CampaignResumeTest, KilledAtEveryAttemptBoundaryResumesExactly) {
  const CampaignReport reference = run(durable_cfg("ref"));
  ASSERT_GT(reference.jobs_run, 3);      // the fault script fired
  ASSERT_GT(reference.jobs_failed, 0);
  ASSERT_FALSE(reference.results.empty());

  for (int64_t kill_at = 1; kill_at <= reference.jobs_run; ++kill_at) {
    const std::string name = "kill" + std::to_string(kill_at);
    CampaignConfig cfg = durable_cfg(name);
    cfg.kill_after_attempts = kill_at;
    EXPECT_THROW(run(cfg), CampaignKilled) << "kill_at=" << kill_at;

    cfg.kill_after_attempts = -1;  // new process: resume from disk
    const CampaignReport resumed = run(cfg);
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at) +
                 " resumed_units=" + std::to_string(resumed.units_resumed));
    testutil::expect_reports_bitwise_equal(reference, resumed);
    // Output survives end-to-end: the manifest vouches for every shard.
    EXPECT_TRUE(verify_shard_manifest(cfg.output_prefix).empty());
  }
}

TEST_F(CampaignResumeTest, KilledMidShardWriteResumesExactly) {
  const CampaignReport reference = run(durable_cfg("ref"));
  for (int64_t kill_at = 1; kill_at <= reference.jobs_run; ++kill_at) {
    const std::string name = "torn" + std::to_string(kill_at);
    CampaignConfig cfg = durable_cfg(name);
    cfg.kill_after_attempts = kill_at;
    cfg.kill_mid_write = true;  // die with a half-appended block on disk
    EXPECT_THROW(run(cfg), CampaignKilled);

    cfg.kill_after_attempts = -1;
    cfg.kill_mid_write = false;
    const CampaignReport resumed = run(cfg);
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    testutil::expect_reports_bitwise_equal(reference, resumed);
    EXPECT_TRUE(verify_shard_manifest(cfg.output_prefix).empty());
  }
}

TEST_F(CampaignResumeTest, DoubleKillThenResumeStillExact) {
  const CampaignReport reference = run(durable_cfg("ref"));
  ASSERT_GT(reference.jobs_run, 2);
  // Die twice at different points before finally finishing.
  CampaignConfig cfg = durable_cfg("twice");
  cfg.kill_after_attempts = 1;
  EXPECT_THROW(run(cfg), CampaignKilled);
  cfg.kill_after_attempts = 2;  // counts attempts in THIS process
  EXPECT_THROW(run(cfg), CampaignKilled);
  cfg.kill_after_attempts = -1;
  testutil::expect_reports_bitwise_equal(reference, run(cfg));
}

TEST_F(CampaignResumeTest, ResumeAfterCompletionRunsNoJobs) {
  CampaignConfig cfg = durable_cfg("done");
  const CampaignReport first = run(cfg);
  const CampaignReport again = run(cfg);
  testutil::expect_reports_bitwise_equal(first, again);
  EXPECT_EQ(again.units_resumed, again.units_total);  // nothing re-ran
}

TEST_F(CampaignResumeTest, ShardsStreamDuringTheRun) {
  // A killed campaign leaves the completed units' rows on disk — that is
  // the whole point of streaming output vs the old end-of-run dump.
  const CampaignReport reference = run(durable_cfg("ref"));
  CampaignConfig cfg = durable_cfg("stream");
  cfg.kill_after_attempts = reference.jobs_run - 1;
  EXPECT_THROW(run(cfg), CampaignKilled);
  int64_t rows = 0;
  for (int s = 0; s < 2; ++s) {  // tiny_campaign: 1 node x 2 gpus = 2 shards
    const ShardScan scan = scan_shard_stream(shard_stream_path(cfg.output_prefix, s));
    if (scan.damage.empty() || scan.damage[0].kind == ShardDamageKind::TruncatedBlock) {
      rows += scan.rows();
    }
  }
  EXPECT_GT(rows, 0);
}

TEST_F(CampaignResumeTest, MismatchedCheckpointRejected) {
  CampaignConfig cfg = durable_cfg("guard");
  cfg.kill_after_attempts = 5;  // past the first checkpoint (K=2 completions)
  EXPECT_THROW(run(cfg), CampaignKilled);
  ASSERT_TRUE(fs::exists(cfg.checkpoint_path));
  cfg.kill_after_attempts = -1;

  CampaignConfig wrong_seed = cfg;
  wrong_seed.seed = cfg.seed + 1;
  EXPECT_THROW(ScreeningCampaign(wrong_seed, targets_).run(compounds_, testutil::tiny_sg_factory()),
               std::runtime_error);

  Rng rng(99);
  const auto other_library =
      data::generate_library(data::default_library(data::LibrarySource::ZINC, 5), rng);
  EXPECT_THROW(ScreeningCampaign(cfg, targets_).run(other_library, testutil::tiny_sg_factory()),
               std::runtime_error);

  // Same plan size but different job width: fault draws would change, so
  // the checkpoint's geometry record must reject the resume.
  CampaignConfig wrong_geom = cfg;
  wrong_geom.job.nodes = 8;
  wrong_geom.job.gpus_per_node = 1;
  EXPECT_THROW(run(wrong_geom), std::runtime_error);
}

TEST_F(CampaignResumeTest, CheckpointingRequiresStreamingOutput) {
  CampaignConfig cfg = durable_cfg("bad");
  cfg.output_prefix.clear();
  EXPECT_THROW(run(cfg), std::invalid_argument);
}

TEST_F(CampaignResumeTest, LostShardBlockIsReRunNotLost) {
  // Delete a completed unit's shard after a kill: resume must notice the
  // checkpoint vouches for data that is gone, re-run it, and still match.
  const CampaignReport reference = run(durable_cfg("ref"));
  CampaignConfig cfg = durable_cfg("lost");
  cfg.kill_after_attempts = reference.jobs_run - 1;
  EXPECT_THROW(run(cfg), CampaignKilled);
  for (int s = 0; s < 2; ++s) {
    fs::remove(shard_stream_path(cfg.output_prefix, s));
  }
  cfg.kill_after_attempts = -1;
  testutil::expect_reports_bitwise_equal(reference, run(cfg));
}

TEST_F(CampaignResumeTest, OutOfRangeUnitRecordRejectedOnResume) {
  // A unit status outside UnitStatus would count as resumed, yet lose its
  // shard block at compaction (only Done units keep theirs) and never be
  // scored; a negative attempt count is no cursor either. Both are
  // rejected before anything resumes.
  CampaignConfig cfg = durable_cfg("bad_unit");
  run(cfg);
  const CampaignCheckpoint finished = load_campaign_checkpoint(cfg.checkpoint_path);
  ASSERT_GT(finished.units(), 0);

  CampaignCheckpoint bad_status = finished;
  bad_status.unit_status[0] = 7;
  save_campaign_checkpoint(bad_status, cfg.checkpoint_path);
  EXPECT_THROW(run(cfg), std::runtime_error);

  CampaignCheckpoint bad_attempts = finished;
  bad_attempts.unit_attempts[0] = -1;
  save_campaign_checkpoint(bad_attempts, cfg.checkpoint_path);
  EXPECT_THROW(run(cfg), std::runtime_error);

  // The untouched record still resumes.
  save_campaign_checkpoint(finished, cfg.checkpoint_path);
  EXPECT_NO_THROW(run(cfg));
}

}  // namespace
}  // namespace df::screen
