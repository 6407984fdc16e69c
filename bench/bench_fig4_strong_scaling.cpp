// Regenerates paper Figure 4: strong scaling of one 2M-pose Coherent Fusion
// job across 1/2/4/8 nodes at per-rank batch sizes 12/23/56, plus the §4.3
// failure-rate observations. Uses the calibrated throughput model at paper
// scale and cross-checks the batch/node trends with real mini-jobs run
// through the harness.
#include <cstdio>

#include "bench_common.h"
#include "chem/conformer.h"
#include "io/csv.h"
#include "screen/job.h"
#include "screen/scale_model.h"
#include "serve/service.h"

using namespace df;
using namespace df::bench;

int main() {
  print_header("Figure 4 — strong scaling of a single 2M-pose Fusion job");

  screen::ThroughputModel model;
  const int nodes[] = {1, 2, 4, 8};
  const int batches[] = {12, 23, 56};

  io::CsvWriter csv("fig4_strong_scaling.csv", {"nodes", "batch", "total_minutes",
                                                "expected_minutes_with_failures"});
  std::printf("%-7s", "nodes");
  for (int b : batches) std::printf("  batch=%-4d", b);
  std::printf("  (total minutes, 2M poses)\n");
  print_rule(50);
  for (int n : nodes) {
    std::printf("%-7d", n);
    for (int b : batches) {
      const double t = model.job_time(2'000'000, n, b).total_minutes();
      std::printf("  %9.1f ", t);
      csv.row({std::to_string(n), std::to_string(b), std::to_string(t),
               std::to_string(model.expected_minutes_with_failures(2'000'000, n, b))});
    }
    std::printf("\n");
  }
  print_rule(50);
  std::printf("paper shape: ~2x speedup per node doubling minus fixed startup;\n"
              "batch 56 ~10 min faster than batch 12 at 4 nodes\n\n");

  std::printf("%-7s %18s\n", "nodes", "job failure rate");
  print_rule(28);
  for (int n : nodes) {
    std::printf("%-7d %17.0f%%\n", n, 100.0 * screen::job_failure_probability(n));
  }
  std::printf("(paper §4.3: ~2%% at 1-2 nodes, ~3%% at 4, ~20%% at 8)\n\n");

  // Cross-check with real mini-jobs: run the same pose set at increasing
  // rank counts and decreasing/increasing batch size; eval time must drop
  // with ranks and mildly with batch.
  core::Rng rng(6);
  const auto pocket = data::make_pocket({5.5f, 48, 0.7f, 0.5f, 0.1f}, rng);
  std::vector<screen::PoseWorkItem> items;
  for (int i = 0; i < 240; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    screen::PoseWorkItem item;
    item.compound_id = i;
    item.ligand = std::move(lig);
    item.pocket = &pocket;
    items.push_back(std::move(item));
  }
  serve::ModelRegistry registry;
  chem::VoxelConfig voxel;
  voxel.grid_dim = kGridDim;
  serve::add_regressor(registry, "sgcnn", [] {
    core::Rng mrng(9);
    return std::make_unique<models::Sgcnn>(bench_sgcnn_config(), mrng);
  }, voxel);
  std::printf("measured mini-jobs (240 poses, this machine):\n");
  std::printf("%-8s %-8s %12s %14s\n", "ranks", "batch", "eval (s)", "poses/s");
  print_rule(46);
  for (int ranks : {1, 2, 4}) {
    for (int batch : {12, 56}) {
      // One service per shape: worker count tracks the rank count, so the
      // scaling trend still measures compute, now on the service side.
      serve::ServiceConfig sc;
      sc.workers = ranks;
      sc.poses_per_batch = batch;
      serve::ScoringService service(registry, sc);
      screen::JobConfig jc;
      jc.nodes = 1;
      jc.gpus_per_node = ranks;
      const screen::JobReport r = screen::FusionScoringJob(jc).run(items, service, "sgcnn");
      std::printf("%-8d %-8d %12.2f %14.1f\n", ranks, batch, r.eval_seconds, r.poses_per_second);
    }
  }
  std::printf("\nresults written to fig4_strong_scaling.csv\n");
  return 0;
}
