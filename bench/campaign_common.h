// Shared SARS-CoV-2 campaign fixture for the Figure 5 / Figure 6 / Table 8
// benchmarks: trains the Coherent Fusion scorer once on the synthetic
// PDBbind corpus, then screens a compound library against the four paper
// targets through the full ConveyorLC + fault-tolerant-job pipeline.
#pragma once

#include <memory>

#include "bench_common.h"
#include "screen/campaign.h"

namespace df::bench {

struct FusionBundle {
  std::shared_ptr<models::Cnn3d> cnn;
  std::shared_ptr<models::Sgcnn> sg;
  std::shared_ptr<models::FusionModel> fusion;
};

/// Train the scaled Coherent Fusion recipe (Table 2/3/5 shapes).
inline FusionBundle train_coherent_fusion(Corpus& c, core::Rng& rng, bool verbose = false) {
  FusionBundle b;
  b.sg = std::make_shared<models::Sgcnn>(bench_sgcnn_config(), rng);
  models::TrainConfig tc;
  tc.epochs = 10;
  tc.lr = 2.66e-3f;
  tc.batch_size = 16;
  tc.verbose = verbose;
  models::train_model(*b.sg, *c.train, *c.val, tc);
  b.cnn = std::make_shared<models::Cnn3d>(bench_cnn3d_config(), rng);
  tc.epochs = 6;
  tc.lr = 1e-4f;
  tc.batch_size = 12;
  models::train_model(*b.cnn, *c.train, *c.val, tc);
  b.fusion = std::make_shared<models::FusionModel>(
      bench_fusion_config(models::FusionKind::Coherent), b.cnn, b.sg, rng);
  b.fusion->set_kind(models::FusionKind::Mid);  // trunk warm-up, then coherent
  tc.epochs = 3;
  tc.lr = 4e-4f;
  models::train_model(*b.fusion, *c.train, *c.val, tc);
  b.fusion->set_kind(models::FusionKind::Coherent);
  tc.epochs = 3;
  tc.lr = 1.08e-4f;
  models::train_model(*b.fusion, *c.train, *c.val, tc);
  return b;
}

/// Per-rank model factory: rebuild the same architecture and copy the
/// trained weights (ranks run concurrently; models are stateful).
inline screen::ModelFactory fusion_factory(const FusionBundle& master) {
  return [&master]() -> std::unique_ptr<models::Regressor> {
    core::Rng rng(123);
    auto cnn = std::make_shared<models::Cnn3d>(bench_cnn3d_config(), rng);
    auto sg = std::make_shared<models::Sgcnn>(bench_sgcnn_config(), rng);
    auto fusion = std::make_unique<models::FusionModel>(
        bench_fusion_config(models::FusionKind::Coherent), cnn, sg, rng);
    models::copy_parameters(*fusion, *master.fusion);
    return fusion;
  };
}

/// Run the four-target SARS-CoV-2 screen (scaled: paper screened 500M+
/// compounds; we screen `n_compounds` drawn from the Enamine-like profile).
inline screen::CampaignReport run_sarscov2_campaign(const FusionBundle& master, int n_compounds,
                                                    uint64_t seed,
                                                    std::vector<data::Target>* targets_out) {
  core::Rng rng(seed);
  std::vector<data::Target> targets = data::make_sars_cov2_targets(rng);
  if (targets_out) *targets_out = targets;

  screen::CampaignConfig cfg;
  cfg.job.nodes = 1;
  cfg.job.gpus_per_node = 4;
  cfg.job.voxel.grid_dim = kGridDim;
  cfg.poses_per_job = 256;
  cfg.pipeline.docking.num_runs = 4;
  cfg.pipeline.docking.steps_per_run = 50;
  cfg.pipeline.docking.max_poses = 4;
  cfg.pipeline.rescore_top_n = 2;
  cfg.seed = seed;

  const auto compounds =
      data::generate_library(data::default_library(data::LibrarySource::Enamine, n_compounds), rng);
  screen::ScreeningCampaign campaign(cfg, targets);
  return campaign.run(compounds, fusion_factory(master));
}

}  // namespace df::bench
