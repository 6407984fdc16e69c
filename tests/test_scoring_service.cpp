// ScoringService / ModelRegistry pins: batch scoring must equal per-pose
// scoring for every model family, ordered-stream mode must be bitwise
// deterministic at any worker count with any number of concurrent clients,
// the bounded queue must apply backpressure (or fail fast, typed), and the
// campaign must produce identical reports whether it builds its own service
// (ModelFactory compatibility path) or runs as a client of an external one.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "campaign_test_utils.h"
#include "chem/conformer.h"
#include "data/target.h"
#include "models/cnn3d.h"
#include "models/fusion.h"
#include "models/sgcnn.h"
#include "serve/service.h"

namespace df {
namespace {

using core::Rng;

constexpr float kTol = 1e-4f;

// ---- fixtures -----------------------------------------------------------

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

std::vector<serve::PoseInput> make_poses(int n, const std::vector<chem::Atom>* pocket,
                                         Rng& rng) {
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

/// The four model families of the paper, as tiny deterministic factories.
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

serve::ModelRegistry family_registry() {
  serve::ModelRegistry reg;
  for (auto& [name, factory] : family_factories()) {
    serve::add_regressor(reg, name, factory, tiny_voxel());
  }
  return reg;
}

// Test doubles: a scorer that blocks on an external gate (queue-shape
// control) and one that always throws (typed-error path).
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

class GatedScorer : public serve::Scorer {
 public:
  explicit GatedScorer(std::shared_ptr<Gate> gate) : gate_(std::move(gate)) {}
  std::string name() const override { return "gated"; }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& poses) override {
    gate_->wait();
    return std::vector<float>(poses.size(), 1.0f);
  }

 private:
  std::shared_ptr<Gate> gate_;
};

class ThrowingScorer : public serve::Scorer {
 public:
  std::string name() const override { return "throwing"; }
  std::vector<float> score(const std::vector<const serve::PoseInput*>&) override {
    throw std::runtime_error("boom: model exploded");
  }
};

// A scorer that breaks the one-score-per-pose contract.
class ShortScorer : public serve::Scorer {
 public:
  std::string name() const override { return "short"; }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& poses) override {
    return std::vector<float>(poses.size() - 1, 1.0f);
  }
};

// ---- registry -----------------------------------------------------------

TEST(Registry, RegisterMakeContainsNames) {
  serve::ModelRegistry reg = family_registry();
  EXPECT_EQ(reg.size(), 4u);
  EXPECT_TRUE(reg.contains("cnn3d"));
  EXPECT_FALSE(reg.contains("vina_pk"));
  const auto names = reg.names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "cnn3d");  // sorted
  auto scorer = reg.make("sgcnn");
  ASSERT_NE(scorer, nullptr);
  EXPECT_EQ(scorer->name(), "sgcnn");
}

TEST(Registry, DuplicateRegistrationThrows) {
  serve::ModelRegistry reg;
  reg.add("x", [] { return std::make_unique<serve::VinaPkScorer>(); });
  EXPECT_THROW(reg.add("x", [] { return std::make_unique<serve::VinaPkScorer>(); }),
               std::invalid_argument);
}

TEST(Registry, UnknownMakeThrows) {
  serve::ModelRegistry reg;
  EXPECT_THROW(reg.make("nope"), std::out_of_range);
}

TEST(Registry, DefaultRegistryServesEveryBackendFamily) {
  Rng rng(9);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ModelRegistry reg = serve::default_registry(tiny_voxel());
  serve::ServiceConfig sc;
  sc.workers = 2;
  serve::ScoringService service(reg, sc);
  for (const std::string& name : reg.names()) {
    serve::ScoreRequest req;
    req.scorer = name;
    req.poses = make_poses(2, &pocket, rng);
    const serve::ScoreResponse resp = service.score(std::move(req));
    ASSERT_EQ(resp.error, serve::ScoreError::kNone) << name << ": " << resp.message;
    ASSERT_EQ(resp.scores.size(), 2u) << name;
    for (float s : resp.scores) EXPECT_TRUE(std::isfinite(s)) << name;
  }
}

// ---- batch ≡ per-pose ---------------------------------------------------

TEST(BatchEquivalence, RandomizedBatchesMatchPerPoseForAllFamilies) {
  Rng rng(31);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const auto poses = make_poses(11, &pocket, rng);

  const chem::Voxelizer voxelizer(tiny_voxel());
  const chem::GraphFeaturizer featurizer{chem::GraphFeaturizerConfig{}};
  std::vector<data::Sample> samples;
  for (const auto& p : poses) {
    data::Sample s;
    s.voxel = voxelizer.voxelize(p.ligand, *p.pocket, p.site_center);
    s.graph = featurizer.featurize(p.ligand, *p.pocket);
    samples.push_back(std::move(s));
  }

  for (auto& [name, factory] : family_factories()) {
    auto model = factory();
    model->set_training(false);
    std::vector<float> single;
    for (const auto& s : samples) single.push_back(model->predict(s));
    // Random partitions of the pose set, several rounds: every batch shape
    // must reproduce the per-pose predictions.
    for (int round = 0; round < 3; ++round) {
      size_t i = 0;
      while (i < samples.size()) {
        const size_t width = 1 + rng.randint(0, 4);
        const size_t end = std::min(samples.size(), i + width);
        std::vector<const data::Sample*> batch;
        for (size_t j = i; j < end; ++j) batch.push_back(&samples[j]);
        const std::vector<float> preds = model->predict_batch(batch);
        ASSERT_EQ(preds.size(), end - i);
        for (size_t j = i; j < end; ++j) {
          EXPECT_NEAR(preds[j - i], single[j], kTol)
              << name << " pose " << j << " batch width " << (end - i);
        }
        i = end;
      }
    }
  }
}

TEST(BatchEquivalence, ServiceMatchesDirectScorer) {
  Rng rng(32);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 3;
  sc.poses_per_batch = 4;  // force multi-batch requests
  serve::ScoringService service(reg, sc);
  for (const std::string& name : {std::string("cnn3d"), std::string("fusion")}) {
    auto reference = reg.make(name);
    serve::ScoreRequest req;
    req.scorer = name;
    req.poses = make_poses(9, &pocket, rng);
    std::vector<float> expected;
    for (const auto& p : req.poses) {
      const serve::PoseInput* ptr = &p;
      expected.push_back(reference->score({ptr})[0]);
    }
    const serve::ScoreResponse resp = service.score(std::move(req));
    ASSERT_EQ(resp.error, serve::ScoreError::kNone) << resp.message;
    ASSERT_EQ(resp.scores.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_NEAR(resp.scores[i], expected[i], kTol) << name << " pose " << i;
    }
  }
}

// ---- determinism --------------------------------------------------------

TEST(OrderedStream, BitIdenticalAcrossWorkerCountsAndConcurrentClients) {
  Rng rng(33);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  constexpr int kClients = 3;
  std::vector<std::vector<serve::PoseInput>> client_poses;
  for (int c = 0; c < kClients; ++c) client_poses.push_back(make_poses(10, &pocket, rng));

  // cnn3d runs one batched trunk per micro-batch, so chunk boundaries feed
  // the floating-point path — exactly what ordered-stream mode pins down.
  const auto run_config = [&](int workers) {
    serve::ModelRegistry reg = family_registry();
    serve::ServiceConfig sc;
    sc.workers = workers;
    sc.poses_per_batch = 4;  // 10-pose requests split 4/4/2
    sc.ordered_stream = true;
    serve::ScoringService service(reg, sc);
    std::vector<std::vector<float>> scores(kClients);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        serve::ScoreRequest req;
        req.scorer = "cnn3d";
        req.poses = client_poses[static_cast<size_t>(c)];
        scores[static_cast<size_t>(c)] = service.score(std::move(req)).scores;
      });
    }
    for (auto& t : clients) t.join();
    return scores;
  };

  const auto narrow = run_config(1);
  const auto wide = run_config(4);
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(narrow[static_cast<size_t>(c)].size(), 10u);
    for (size_t i = 0; i < 10; ++i) {
      // EXPECT_EQ on floats is exact — bitwise for finite values.
      EXPECT_EQ(narrow[static_cast<size_t>(c)][i], wide[static_cast<size_t>(c)][i])
          << "client " << c << " pose " << i;
    }
  }
}

// ---- batching / queue behavior ------------------------------------------

TEST(Service, CoalescesSmallRequestsAcrossClients) {
  Rng rng(34);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 8;
  sc.flush_deadline_ms = 200.0;  // generous window: the 4 submits land inside it
  serve::ScoringService service(reg, sc);

  std::vector<std::future<serve::ScoreResponse>> futures;
  for (int c = 0; c < 4; ++c) {
    serve::ScoreRequest req;
    req.scorer = "sgcnn";
    req.poses = make_poses(2, &pocket, rng);
    futures.push_back(service.submit(std::move(req)));
  }
  bool any_coalesced = false;
  for (auto& f : futures) {
    const serve::ScoreResponse resp = f.get();
    ASSERT_EQ(resp.error, serve::ScoreError::kNone) << resp.message;
    EXPECT_EQ(resp.scores.size(), 2u);
    any_coalesced = any_coalesced || resp.coalesced;
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_TRUE(any_coalesced);
  EXPECT_GE(stats.coalesced_batches, 1u);
  EXPECT_LT(stats.batches, 4u);  // strictly fewer batches than requests
}

TEST(Service, BackpressureBlocksSubmitUntilSpace) {
  auto gate = std::make_shared<Gate>();
  serve::ModelRegistry reg;
  reg.add("gated", [gate] { return std::make_unique<GatedScorer>(gate); });
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 4;
  sc.queue_capacity = 4;
  sc.block_when_full = true;
  serve::ScoringService service(reg, sc);

  const auto request = [&](int n) {
    serve::ScoreRequest req;
    req.scorer = "gated";
    req.poses.resize(static_cast<size_t>(n));  // GatedScorer ignores content
    return req;
  };
  auto fa = service.submit(request(4));  // dispatches, blocks in the gate
  auto fb = service.submit(request(4));  // fills the queue
  std::atomic<bool> c_accepted{false};
  std::future<serve::ScoreResponse> fc;
  std::thread blocked([&] {
    fc = service.submit(request(3));  // must block: 4 queued + 3 > capacity
    c_accepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(c_accepted.load());  // backpressure held the submitter

  gate->release();
  blocked.join();
  EXPECT_TRUE(c_accepted.load());
  for (auto* f : {&fa, &fb, &fc}) {
    const serve::ScoreResponse resp = f->get();
    ASSERT_EQ(resp.error, serve::ScoreError::kNone) << resp.message;
    for (float s : resp.scores) EXPECT_EQ(s, 1.0f);
  }
}

TEST(Service, FailFastReturnsTypedQueueFull) {
  auto gate = std::make_shared<Gate>();
  serve::ModelRegistry reg;
  reg.add("gated", [gate] { return std::make_unique<GatedScorer>(gate); });
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 4;
  sc.queue_capacity = 4;
  sc.block_when_full = false;
  serve::ScoringService service(reg, sc);

  const auto request = [&](int n) {
    serve::ScoreRequest req;
    req.scorer = "gated";
    req.poses.resize(static_cast<size_t>(n));
    return req;
  };
  auto fa = service.submit(request(4));
  // Wait until the worker holds batch A in flight, so B definitely queues.
  while (service.stats().batches < 1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  auto fb = service.submit(request(4));
  const serve::ScoreResponse rejected = service.score(request(1));
  EXPECT_EQ(rejected.error, serve::ScoreError::kQueueFull);
  EXPECT_TRUE(rejected.scores.empty());

  gate->release();
  EXPECT_EQ(fa.get().error, serve::ScoreError::kNone);
  EXPECT_EQ(fb.get().error, serve::ScoreError::kNone);
  EXPECT_GE(service.stats().rejected, 1u);
}

// ---- typed errors -------------------------------------------------------

TEST(Service, UnknownScorerIsTypedNotThrown) {
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 1;
  serve::ScoringService service(reg, sc);
  serve::ScoreRequest req;
  req.scorer = "not_registered";
  req.poses.resize(1);
  const serve::ScoreResponse resp = service.score(std::move(req));
  EXPECT_EQ(resp.error, serve::ScoreError::kUnknownScorer);
  EXPECT_NE(resp.message.find("not_registered"), std::string::npos);
  EXPECT_STREQ(serve::score_error_name(resp.error), "unknown_scorer");
}

TEST(Service, ScorerExceptionBecomesTypedFailureAndServiceSurvives) {
  Rng rng(35);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ModelRegistry reg;
  reg.add("throwing", [] { return std::make_unique<ThrowingScorer>(); });
  serve::add_regressor(reg, "sgcnn", family_factories()[1].second, tiny_voxel());
  serve::ServiceConfig sc;
  sc.workers = 2;
  serve::ScoringService service(reg, sc);

  serve::ScoreRequest bad;
  bad.scorer = "throwing";
  bad.poses.resize(3);
  const serve::ScoreResponse failed = service.score(std::move(bad));
  EXPECT_EQ(failed.error, serve::ScoreError::kScorerFailure);
  EXPECT_NE(failed.message.find("boom"), std::string::npos);

  serve::ScoreRequest good;
  good.scorer = "sgcnn";
  good.poses = make_poses(2, &pocket, rng);
  const serve::ScoreResponse ok = service.score(std::move(good));
  EXPECT_EQ(ok.error, serve::ScoreError::kNone) << ok.message;
  EXPECT_EQ(ok.scores.size(), 2u);
}

TEST(Service, WrongScoreCountIsTypedFailureAtEveryDepth) {
  // A backend without a pipeline completes through the same path at any
  // service depth; a short answer fails the request instead of leaving
  // scores unset.
  for (int depth : {0, 2}) {
    serve::ModelRegistry reg;
    reg.add("short", [] { return std::make_unique<ShortScorer>(); });
    serve::ServiceConfig sc;
    sc.workers = 1;
    sc.pipeline_depth = depth;
    serve::ScoringService service(reg, sc);

    serve::ScoreRequest req;
    req.scorer = "short";
    req.poses.resize(3);
    const serve::ScoreResponse resp = service.score(std::move(req));
    EXPECT_EQ(resp.error, serve::ScoreError::kScorerFailure) << "depth " << depth;
    EXPECT_TRUE(resp.scores.empty()) << "depth " << depth;
    EXPECT_NE(resp.message.find("scorer 'short' returned 2 scores for 3 poses"),
              std::string::npos)
        << "depth " << depth << ": " << resp.message;
    service.drain();
    EXPECT_EQ(service.stats().latency.count(), 1u) << "depth " << depth;
  }
}

TEST(Service, ShutdownRejectsNewWorkTyped) {
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 1;
  serve::ScoringService service(reg, sc);
  service.shutdown();
  serve::ScoreRequest req;
  req.scorer = "cnn3d";
  req.poses.resize(1);
  const serve::ScoreResponse resp = service.score(std::move(req));
  EXPECT_EQ(resp.error, serve::ScoreError::kShutdown);
}

TEST(Service, EmptyRequestResolvesImmediately) {
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 1;
  serve::ScoringService service(reg, sc);
  serve::ScoreRequest req;
  req.scorer = "cnn3d";
  const serve::ScoreResponse resp = service.score(std::move(req));
  EXPECT_EQ(resp.error, serve::ScoreError::kNone);
  EXPECT_TRUE(resp.scores.empty());
}

TEST(Service, NullPocketIsTypedFailureNotACrash) {
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 1;
  serve::ScoringService service(reg, sc);
  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses.resize(2);  // pocket pointers left null
  const serve::ScoreResponse resp = service.score(std::move(req));
  EXPECT_EQ(resp.error, serve::ScoreError::kScorerFailure);
  EXPECT_NE(resp.message.find("null pocket"), std::string::npos);
}

TEST(Service, ThrowingFactoryFailsWarmupCleanly) {
  serve::ModelRegistry reg = family_registry();
  reg.add("bad_factory", []() -> std::unique_ptr<serve::Scorer> {
    throw std::runtime_error("factory kaboom");
  });
  serve::ServiceConfig sc;
  sc.workers = 2;
  serve::ScoringService service(reg, sc);
  EXPECT_THROW(service.warmup("bad_factory"), std::runtime_error);
  // The workers survive a throwing factory; real scorers still serve.
  service.warmup("sgcnn");
  serve::ScoreRequest req;
  req.scorer = "bad_factory";
  req.poses.resize(1);
  EXPECT_EQ(service.score(std::move(req)).error, serve::ScoreError::kScorerFailure);
}

TEST(ServiceJob, ScorerFailureThrowsAfterEveryRequestResolved) {
  // A rank whose request resolves with a typed service error fails the job
  // with an exception, but only once every rank's request has resolved:
  // the requests borrow the caller's pockets until then.
  Rng rng(36);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ModelRegistry reg;
  reg.add("throwing", [] { return std::make_unique<ThrowingScorer>(); });
  serve::ServiceConfig sc;
  sc.workers = 1;
  serve::ScoringService service(reg, sc);
  std::vector<screen::PoseWorkItem> items;
  for (const auto& pose : make_poses(4, &pocket, rng)) {
    screen::PoseWorkItem item;
    item.ligand = pose.ligand;
    item.pocket = pose.pocket;
    items.push_back(std::move(item));
  }
  screen::JobConfig jc;
  jc.nodes = 1;
  jc.gpus_per_node = 2;
  EXPECT_THROW(screen::FusionScoringJob(jc).run(items, service, "throwing"),
               std::runtime_error);
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.latency.count(), stats.requests);
}

// ---- warmup / replicas --------------------------------------------------

TEST(Service, WarmupBuildsOneReplicaPerWorker) {
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 3;
  serve::ScoringService service(reg, sc);
  service.warmup("sgcnn");
  EXPECT_EQ(service.stats().replicas_built, 3u);
  service.warmup("sgcnn");  // replicas are cached, not rebuilt
  EXPECT_EQ(service.stats().replicas_built, 3u);
  EXPECT_THROW(service.warmup("nope"), std::out_of_range);
}

// ---- campaign as a service client ---------------------------------------

TEST(ServiceCampaign, ExplicitServiceMatchesFactoryPathBitwise) {
  Rng rng(21);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Protease1, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::ZINC, 4), rng);
  screen::CampaignConfig cfg = screen::testutil::tiny_campaign();

  const screen::CampaignReport via_factory =
      screen::ScreeningCampaign(cfg, targets).run(compounds, screen::testutil::tiny_sg_factory());

  serve::ModelRegistry reg;
  serve::add_regressor(reg, "sg", screen::testutil::tiny_sg_factory(), cfg.job.voxel,
                       cfg.job.graph);
  serve::ServiceConfig sc;
  sc.workers = 3;  // any worker count: ordered-stream mode pins the bits
  sc.poses_per_batch = cfg.job.poses_per_batch;
  sc.ordered_stream = true;
  serve::ScoringService service(reg, sc);
  const screen::CampaignReport via_service =
      screen::ScreeningCampaign(cfg, targets).run(compounds, service, "sg");

  screen::testutil::expect_reports_bitwise_equal(via_factory, via_service);
}

TEST(ServiceCampaign, ResumeRejectsChangedScoringBatchSize) {
  // Micro-batch boundaries feed floating-point summation order, so a
  // checkpoint written under one poses_per_batch must refuse to resume
  // under another — mixing recovered and re-scored bits would silently
  // break the bit-identical guarantee.
  Rng rng(22);
  std::vector<data::Target> targets = {data::make_target(data::TargetKind::Spike1, rng)};
  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::ZINC, 3), rng);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "df_service_batch_guard").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  screen::CampaignConfig cfg = screen::testutil::tiny_campaign();
  cfg.output_prefix = dir + "/screen";
  cfg.checkpoint_path = dir + "/campaign.ckpt";

  serve::ModelRegistry reg;
  serve::add_regressor(reg, "sg", screen::testutil::tiny_sg_factory(), cfg.job.voxel,
                       cfg.job.graph);
  serve::ServiceConfig sc;
  sc.workers = 2;
  sc.poses_per_batch = cfg.job.poses_per_batch;
  sc.ordered_stream = true;
  {
    serve::ScoringService service(reg, sc);
    screen::ScreeningCampaign(cfg, targets).run(compounds, service, "sg");
  }
  sc.poses_per_batch = cfg.job.poses_per_batch / 2;  // changed boundaries
  serve::ScoringService mismatched(reg, sc);
  EXPECT_THROW(screen::ScreeningCampaign(cfg, targets).run(compounds, mismatched, "sg"),
               std::runtime_error);
  std::filesystem::remove_all(dir);
}

// ---- deadlines (S1) -----------------------------------------------------

TEST(ServiceDeadline, BoundsBackpressureBlock) {
  auto gate = std::make_shared<Gate>();
  serve::ModelRegistry reg;
  reg.add("gated", [gate] { return std::make_unique<GatedScorer>(gate); });
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 4;
  sc.queue_capacity = 4;
  sc.block_when_full = true;
  serve::ScoringService service(reg, sc);

  const auto request = [&](int n, double deadline_ms) {
    serve::ScoreRequest req;
    req.scorer = "gated";
    req.poses.resize(static_cast<size_t>(n));
    req.deadline_ms = deadline_ms;
    return req;
  };
  auto fa = service.submit(request(4, 0));  // dispatches, blocks in the gate
  auto fb = service.submit(request(4, 0));  // fills the queue
  // Queue full, worker wedged: without a deadline this submit would block
  // until the gate opens. With one, it must come back kTimeout on its own.
  const auto t0 = std::chrono::steady_clock::now();
  auto fc = service.submit(request(3, 50));
  const serve::ScoreResponse timed_out = fc.get();
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(timed_out.error, serve::ScoreError::kTimeout) << timed_out.message;
  EXPECT_TRUE(timed_out.scores.empty());
  EXPECT_LT(waited_ms, 5000.0) << "deadline did not bound the backpressure block";

  gate->release();
  EXPECT_EQ(fa.get().error, serve::ScoreError::kNone);
  EXPECT_EQ(fb.get().error, serve::ScoreError::kNone);
  EXPECT_GE(service.stats().timeouts, 1u);
}

TEST(ServiceDeadline, QueuedRequestPastDeadlineResolvesTimeout) {
  auto gate = std::make_shared<Gate>();
  serve::ModelRegistry reg;
  reg.add("gated", [gate] { return std::make_unique<GatedScorer>(gate); });
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 4;
  sc.ordered_stream = true;  // never coalesce the blocker with the late request
  serve::ScoringService service(reg, sc);

  serve::ScoreRequest blocker;
  blocker.scorer = "gated";
  blocker.poses.resize(2);
  auto fa = service.submit(std::move(blocker));  // wedges the single worker
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // let it dispatch

  serve::ScoreRequest late;
  late.scorer = "gated";
  late.poses.resize(2);
  late.deadline_ms = 30;
  auto fb = service.submit(std::move(late));  // queues behind it

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate->release();  // worker sweeps expired requests before dispatching more
  EXPECT_EQ(fa.get().error, serve::ScoreError::kNone);
  const serve::ScoreResponse resp = fb.get();
  EXPECT_EQ(resp.error, serve::ScoreError::kTimeout) << resp.message;
  EXPECT_GE(service.stats().timeouts, 1u);
}

TEST(ServiceDeadline, GenerousDeadlineDoesNotFireOnHealthyPath) {
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 2;
  sc.poses_per_batch = 4;
  serve::ScoringService service(reg, sc);

  Rng rng(71);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  serve::ScoreRequest req;
  req.scorer = "sgcnn";
  req.poses = make_poses(3, &pocket, rng);
  req.deadline_ms = 60'000;
  const serve::ScoreResponse resp = service.score(std::move(req));
  EXPECT_EQ(resp.error, serve::ScoreError::kNone) << resp.message;
  EXPECT_EQ(resp.scores.size(), 3u);
  EXPECT_EQ(service.stats().timeouts, 0u);
}

TEST(ServiceDeadline, InfiniteOrHugeDeadlineScoresNormally) {
  // A deadline that is not a finite positive number means none; a finite
  // one clamps to the wire's u32 millisecond range before any conversion,
  // so these score instead of overflowing into an instant kTimeout. The
  // flush window follows the same range rule (NaN = dispatch at once).
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(serve::effective_deadline_ms(inf), 0.0);
  EXPECT_EQ(serve::effective_deadline_ms(nan), 0.0);
  EXPECT_EQ(serve::effective_deadline_ms(-1.0), 0.0);
  EXPECT_EQ(serve::effective_deadline_ms(1e300), serve::kMaxDeadlineMs);
  EXPECT_EQ(serve::effective_deadline_ms(12.5), 12.5);

  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 1;
  sc.poses_per_batch = 4;
  sc.flush_deadline_ms = nan;
  serve::ScoringService service(reg, sc);

  Rng rng(73);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  const std::vector<serve::PoseInput> poses = make_poses(2, &pocket, rng);
  for (const double deadline_ms : {inf, 1e300, 1e13}) {
    serve::ScoreRequest req;
    req.scorer = "sgcnn";
    req.poses = poses;
    req.deadline_ms = deadline_ms;
    const serve::ScoreResponse resp = service.score(std::move(req));
    EXPECT_EQ(resp.error, serve::ScoreError::kNone) << "deadline_ms " << deadline_ms << ": "
                                                     << resp.message;
    EXPECT_EQ(resp.scores.size(), 2u);
  }
  EXPECT_EQ(service.stats().timeouts, 0u);
}

// ---- latency surface (S2) -----------------------------------------------

TEST(ServiceStatsPins, LatencyHistogramCountsEveryResolvedRequest) {
  serve::ModelRegistry reg = family_registry();
  serve::ServiceConfig sc;
  sc.workers = 2;
  sc.poses_per_batch = 4;
  serve::ScoringService service(reg, sc);

  Rng rng(72);
  const auto pocket = data::make_pocket({4.5f, 24, 0.6f, 0.5f, 0.1f}, rng);
  for (int i = 0; i < 4; ++i) {
    serve::ScoreRequest req;
    req.scorer = "sgcnn";
    req.poses = make_poses(2, &pocket, rng);
    ASSERT_EQ(service.score(std::move(req)).error, serve::ScoreError::kNone);
  }
  const serve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.latency.count(), 4u);
  EXPECT_GT(stats.latency.p50_ms(), 0.0);
  EXPECT_GE(stats.latency.p99_ms(), stats.latency.p50_ms());
}

TEST(ServiceStatsPins, LatencyHistogramSurvivesPathologicalDurations) {
  // float-to-integer conversion of NaN/inf/past-2^64-µs doubles is UB; a
  // wedged upstream clock can produce all of them. record_seconds must
  // clamp first: non-positives and NaN land in bucket 0, oversized
  // durations saturate into the last bucket, and every sample is counted.
  serve::LatencyHistogram h;
  h.record_seconds(std::numeric_limits<double>::quiet_NaN());
  h.record_seconds(std::numeric_limits<double>::infinity());
  h.record_seconds(-std::numeric_limits<double>::infinity());
  h.record_seconds(std::numeric_limits<double>::max());
  h.record_seconds(1e30);   // * 1e6 overflows uint64_t without the clamp
  h.record_seconds(1e13);   // just at the clamp threshold
  h.record_seconds(-1.0);
  h.record_seconds(0.0);
  h.record_seconds(5e-7);   // sub-microsecond: bucket 0
  EXPECT_EQ(h.count(), 9u);
  // NaN, -inf, -1, 0, 5e-7 → bucket 0; inf, max, 1e30, 1e13 → last bucket.
  EXPECT_EQ(h.bucket_count(0), 5u);
  EXPECT_EQ(h.bucket_count(serve::LatencyHistogram::kBuckets - 1), 4u);
  // Percentiles stay finite and ordered even on this degenerate input.
  EXPECT_GE(h.p99_ms(), h.p50_ms());
  EXPECT_EQ(h.p99_ms(), serve::LatencyHistogram::bucket_upper_ms(
                            serve::LatencyHistogram::kBuckets - 1));

  // Ordinary samples still land where the power-of-two bucketing says:
  // 1 ms = 1000 µs → bit_width 10, upper bound 1.024 ms.
  serve::LatencyHistogram ok;
  ok.record_seconds(1e-3);
  EXPECT_EQ(ok.bucket_count(10), 1u);
  EXPECT_EQ(ok.p50_ms(), serve::LatencyHistogram::bucket_upper_ms(10));
}

// ---- shutdown races (S3: the TSan targets) ------------------------------

// A fast scorer for the race hammers: no gate, no throw, just an answer.
class EchoScorer : public serve::Scorer {
 public:
  std::string name() const override { return "echo"; }
  std::vector<float> score(const std::vector<const serve::PoseInput*>& poses) override {
    return std::vector<float>(poses.size(), 0.5f);
  }
};

TEST(ServiceShutdownRace, ConcurrentSubmittersAllResolveTyped) {
  // Hammer shutdown() against racing submitters: every future must resolve
  // (kNone for accepted work, kShutdown for late arrivals), nothing hangs,
  // nothing crashes. This is the suite the TSan CI job watches.
  for (int round = 0; round < 5; ++round) {
    serve::ModelRegistry reg;
    reg.add("echo", [] { return std::make_unique<EchoScorer>(); });
    serve::ServiceConfig sc;
    sc.workers = 2;
    sc.poses_per_batch = 4;
    serve::ScoringService service(reg, sc);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::future<serve::ScoreResponse>> futures(
        static_cast<size_t>(kThreads * kPerThread));
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      submitters.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          serve::ScoreRequest req;
          req.scorer = "echo";
          req.poses.resize(2);
          futures[static_cast<size_t>(t * kPerThread + i)] = service.submit(std::move(req));
        }
      });
    }
    service.shutdown();  // races the submitters by design
    for (auto& th : submitters) th.join();

    size_t ok = 0, refused = 0;
    for (auto& f : futures) {
      ASSERT_TRUE(f.valid());
      const serve::ScoreResponse resp = f.get();
      if (resp.error == serve::ScoreError::kNone) {
        ASSERT_EQ(resp.scores.size(), 2u);
        ++ok;
      } else {
        ASSERT_EQ(resp.error, serve::ScoreError::kShutdown);
        ++refused;
      }
    }
    EXPECT_EQ(ok + refused, futures.size());
  }
}

TEST(ServiceShutdownRace, DrainRacesSubmittersWithoutLosingWork) {
  serve::ModelRegistry reg;
  reg.add("echo", [] { return std::make_unique<EchoScorer>(); });
  serve::ServiceConfig sc;
  sc.workers = 2;
  sc.poses_per_batch = 4;
  serve::ScoringService service(reg, sc);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> accepted{0};
  std::thread submitter([&] {
    while (!stop.load()) {
      serve::ScoreRequest req;
      req.scorer = "echo";
      req.poses.resize(1);
      auto f = service.submit(std::move(req));
      if (f.get().error == serve::ScoreError::kNone) accepted.fetch_add(1);
    }
  });
  // drain() must tolerate live traffic; keep draining until real requests
  // have demonstrably flowed through the race window (bounded by a clock,
  // not a count — drain() on a briefly-empty service returns in nanoseconds).
  const auto race_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (accepted.load() < 20 && std::chrono::steady_clock::now() < race_deadline) {
    service.drain();
  }
  stop.store(true);
  submitter.join();
  EXPECT_GE(accepted.load(), 20u);
}

}  // namespace
}  // namespace df
