// Fault-injection pins for the external-ScoringService campaign path (S4):
// the §4.3 fault machinery (ScriptedFaultInjector, StochasticFaultInjector,
// retry chains, exhaustion, kill/resume) must compose with `run(compounds,
// service, scorer)` exactly as it does with the in-process factory path —
// same attempt bookkeeping, same bits, because failure sampling is a pure
// function of (seed, unit, attempt) and never of where scoring happens.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>

#include "campaign_test_utils.h"
#include "screen/writer.h"
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

bool same_topology(const chem::Molecule& a, const chem::Molecule& b) {
  if (a.num_atoms() != b.num_atoms() || a.bonds().size() != b.bonds().size()) return false;
  for (size_t i = 0; i < a.num_atoms(); ++i) {
    if (a.atoms()[i].element != b.atoms()[i].element) return false;
  }
  for (size_t i = 0; i < a.bonds().size(); ++i) {
    if (a.bonds()[i].a != b.bonds()[i].a || a.bonds()[i].b != b.bonds()[i].b) return false;
  }
  return true;
}

/// A real replica that throws on every batch holding a pose of `poison`'s
/// ligand (matched by element sequence and bond list): one compound whose
/// poses the backend cannot score.
class PoisonedScorer : public serve::Scorer {
 public:
  PoisonedScorer(std::unique_ptr<serve::Scorer> inner, chem::Molecule poison)
      : inner_(std::move(inner)), poison_(std::move(poison)) {}
  std::string name() const override { return inner_->name(); }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& poses) override {
    for (const serve::PoseInput* p : poses) {
      if (same_topology(p->ligand, poison_)) throw std::runtime_error("poisoned pose");
    }
    return inner_->score(poses);
  }

 private:
  std::unique_ptr<serve::Scorer> inner_;
  chem::Molecule poison_;
};

/// Every unit's shard block of a streamed campaign, by unit id.
std::map<uint64_t, ShardBlock> unit_blocks(const std::string& prefix, int shards) {
  std::map<uint64_t, ShardBlock> out;
  for (int s = 0; s < shards; ++s) {
    for (ShardBlock& b : scan_shard_stream(shard_stream_path(prefix, s)).blocks) {
      out[b.unit_id] = std::move(b);
    }
  }
  return out;
}

TEST_F(ServiceFaultsTest, ScorerFailureExhaustsItsUnitsAndTheRestScoreAsClean) {
  // A scorer that throws is a failed job on the in-process path exactly as
  // a failed verdict is on the cluster path: the campaign retries the unit
  // and exhausts it, instead of ending run() and failing every resume.
  const fs::path root = fs::temp_directory_path() / "df_service_faults_poison";
  fs::remove_all(root);
  CampaignConfig cfg = testutil::tiny_campaign();
  cfg.checkpoint_every_jobs = 2;
  const auto durable = [&](const std::string& name) {
    fs::create_directories(root / name);
    CampaignConfig c = cfg;
    c.output_prefix = (root / name / "out").string();
    c.checkpoint_path = (root / name / "campaign.ckpt").string();
    return c;
  };
  const CampaignConfig clean_cfg = durable("clean");
  const CampaignReport clean = run_via_service(clean_cfg);

  // Ligand prep keeps a one-fragment molecule's atoms and bonds, so its
  // poses carry this topology, and no other compound's do.
  const size_t poisoned = 3;
  const chem::Molecule poison = data::materialize(compounds_[poisoned]);
  ASSERT_EQ(poison.connected_components().size(), 1u);
  for (size_t c = 0; c < compounds_.size(); ++c) {
    if (c == poisoned) continue;
    ASSERT_FALSE(same_topology(data::materialize(compounds_[c]), poison)) << "compound " << c;
  }
  const auto poisoned_service = [&] {
    serve::ModelRegistry reg;
    reg.add("sg", [&cfg, poison] {
      return std::make_unique<PoisonedScorer>(
          std::make_unique<serve::RegressorScorer>("sg", testutil::tiny_sg_factory()(),
                                                   cfg.job.voxel, cfg.job.graph),
          poison);
    });
    serve::ServiceConfig sc;
    sc.workers = 3;
    sc.poses_per_batch = cfg.job.poses_per_batch;
    sc.ordered_stream = true;
    return std::make_unique<serve::ScoringService>(std::move(reg), sc);
  };
  const auto run_poisoned = [&](const CampaignConfig& c) {
    const auto service = poisoned_service();
    return ScreeningCampaign(c, targets_).run(compounds_, *service, "sg");
  };

  const CampaignConfig poisoned_cfg = durable("poisoned");
  const CampaignReport report = run_poisoned(poisoned_cfg);

  // The units holding the compound's poses are exhausted after every
  // attempt failed; every other unit streams the clean run's bits.
  const int shards = cfg.job.nodes * cfg.job.gpus_per_node;
  const auto clean_units = unit_blocks(clean_cfg.output_prefix, shards);
  const auto got_units = unit_blocks(poisoned_cfg.output_prefix, shards);
  ASSERT_EQ(clean_units.size(), static_cast<size_t>(clean.units_total));
  std::set<uint64_t> hit;
  for (const auto& [unit, block] : clean_units) {
    for (int64_t c : block.compound_ids) {
      if (c == static_cast<int64_t>(poisoned)) hit.insert(unit);
    }
  }
  ASSERT_FALSE(hit.empty());
  ASSERT_LT(hit.size(), clean_units.size());
  const int n_hit = static_cast<int>(hit.size());
  EXPECT_EQ(report.units_exhausted, n_hit);
  EXPECT_EQ(report.jobs_failed, n_hit * (cfg.max_job_retries + 1));
  EXPECT_EQ(report.jobs_run, clean.jobs_run + n_hit * cfg.max_job_retries);
  for (const auto& [unit, block] : clean_units) {
    const auto it = got_units.find(unit);
    if (hit.count(unit) != 0) {
      EXPECT_EQ(it, got_units.end()) << "exhausted unit " << unit << " streamed a block";
      continue;
    }
    ASSERT_NE(it, got_units.end()) << "unit " << unit;
    EXPECT_EQ(it->second.compound_ids, block.compound_ids);
    ASSERT_EQ(it->second.predictions.size(), block.predictions.size());
    EXPECT_EQ(std::memcmp(it->second.predictions.data(), block.predictions.data(),
                          block.predictions.size() * sizeof(float)),
              0)
        << "unit " << unit;
  }

  // Killed before the first poisoned unit, and again inside its retry
  // chain, a resumed campaign reports what the uninterrupted one did.
  const int64_t first_hit = static_cast<int64_t>(*hit.begin());
  ASSERT_GT(first_hit, 0);  // one clean attempt per unit before it
  for (int64_t kill_at : {first_hit, first_hit + 2}) {
    CampaignConfig killed = durable("killed" + std::to_string(kill_at));
    killed.kill_after_attempts = kill_at;
    EXPECT_THROW(run_poisoned(killed), CampaignKilled) << "kill_at=" << kill_at;
    killed.kill_after_attempts = -1;
    SCOPED_TRACE("kill_at=" + std::to_string(kill_at));
    testutil::expect_reports_bitwise_equal(report, run_poisoned(killed));
  }
  fs::remove_all(root);
}

}  // namespace
}  // namespace df::screen
