// Regenerates paper Table 7: throughput of a single Fusion scoring job and
// of the 125-parallel-job peak. Two layers of evidence:
//   1. a REAL mini-job run through the screening harness (measured
//      startup/eval/output phases and per-rank pose rate on this machine),
//      scored through the shared ScoringService;
//   2. the calibrated throughput model at paper scale (2M poses, 4 nodes,
//      batch 56; peak = 125 jobs / 500 nodes), with paper-default phase
//      constants, reproducing Table 7's rows.
//
// Run modes:
//   bench_table7_throughput                — human-readable table
//   bench_table7_throughput --json[=PATH]  — also write the measurements to
//                                            PATH (default
//                                            BENCH_table7_throughput.json)
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench_common.h"
#include "chem/conformer.h"
#include "screen/job.h"
#include "screen/scale_model.h"
#include "serve/service.h"

using namespace df;
using namespace df::bench;

int main(int argc, char** argv) {
  const std::string json_path = json_flag_path(argc, argv, "BENCH_table7_throughput.json");

  print_header("Table 7 — Fusion screening throughput (single job vs peak)");

  // --- measured mini-job ---
  core::Rng rng(5);
  const auto pocket = data::make_pocket({5.5f, 64, 0.7f, 0.5f, 0.1f}, rng);
  std::vector<screen::PoseWorkItem> items;
  const int n_poses = 600;  // paper job: 2,000,000
  for (int i = 0; i < n_poses; ++i) {
    chem::Molecule lig = chem::generate_molecule({}, rng);
    chem::embed_conformer(lig, rng);
    lig.translate(core::Vec3{} - lig.centroid());
    screen::PoseWorkItem item;
    item.compound_id = i / 10;
    item.pose_id = i % 10;
    item.ligand = std::move(lig);
    item.pocket = &pocket;
    items.push_back(std::move(item));
  }

  // The "File output" row times the per-rank shard write Table 7's phase
  // names, into a scratch directory removed afterwards.
  namespace fs = std::filesystem;
  const fs::path out_dir =
      fs::temp_directory_path() / ("df_table7_" + std::to_string(::getpid()));
  fs::create_directories(out_dir);

  screen::JobConfig jc;
  jc.nodes = 1;
  jc.gpus_per_node = 4;  // 4 rank clients = 4 "GPU ranks"
  jc.output_prefix = (out_dir / "table7").string();

  serve::ModelRegistry registry;
  chem::VoxelConfig voxel;
  voxel.grid_dim = kGridDim;
  serve::add_regressor(registry, "sgcnn", [] {
    core::Rng mrng(9);
    return std::make_unique<models::Sgcnn>(bench_sgcnn_config(), mrng);
  }, voxel);
  serve::ServiceConfig sc;
  sc.workers = jc.nodes * jc.gpus_per_node;  // one replica worker per rank
  serve::ScoringService service(registry, sc);

  screen::FusionScoringJob job(jc);
  std::printf("running a real mini-job: %d poses, %d ranks...\n", n_poses,
              jc.nodes * jc.gpus_per_node);
  const screen::JobReport r = job.run(items, service, "sgcnn");
  std::error_code ec;
  fs::remove_all(out_dir, ec);
  const double per_rank = r.poses_per_second / (jc.nodes * jc.gpus_per_node);
  std::printf("\n%-28s %12s\n", "Metric (measured mini-job)", "Value");
  print_rule(44);
  std::printf("%-28s %12.2f s\n", "Startup", r.startup_seconds);
  std::printf("%-28s %12.2f s\n", "Evaluation", r.eval_seconds);
  std::printf("%-28s %12.2f s\n", "File output", r.output_seconds);
  std::printf("%-28s %12.1f\n", "Poses per second", r.poses_per_second);
  std::printf("%-28s %12.2f\n\n", "Poses/s per rank", per_rank);

  // --- paper-scale model (Table 7 proper) ---
  screen::ThroughputModel model;  // paper-calibrated phase constants
  const screen::JobTimeBreakdown single = model.job_time(2'000'000, 4, 56);
  const screen::PeakThroughput peak = model.peak(125, 2'000'000, 4, 56, /*poses per compound*/ 10);

  std::printf("%-28s %14s %14s\n", "Metric", "Single Job", "Peak (125 jobs)");
  print_rule(60);
  std::printf("%-28s %11.0f min %14s\n", "Avg. Startup", single.startup_minutes, "\"");
  std::printf("%-28s %11.0f min %14s\n", "Avg. Evaluation", single.eval_minutes, "\"");
  std::printf("%-28s %11.1f min %14s\n", "Avg. File Output", single.output_minutes, "\"");
  std::printf("%-28s %14.0f %14.0f\n", "Poses per sec.", single.poses_per_second,
              peak.poses_per_second);
  std::printf("%-28s %14.0f %14.0f\n", "Poses per hour", single.poses_per_second * 3600,
              peak.poses_per_hour);
  std::printf("%-28s %14.0f %14.0f\n", "Compounds per hour",
              single.poses_per_second * 3600 / 10, peak.compounds_per_hour);
  print_rule(60);
  std::printf("paper Table 7: 20 min / 280 min / 6.5 min; 108 vs 13,594 poses/s;\n"
              "338,800 vs 48.6M poses/h; 33,880 vs 4.86M compounds/h\n\n");

  // Cost-ratio summary (§4.2): Fusion vs Vina vs MM/GBSA per node.
  const double fusion_per_node = single.poses_per_second / 4.0;
  std::printf("per-node rates: Vina ~10 poses/s, MM/GBSA ~0.067 poses/s, Fusion %.1f poses/s\n"
              "=> Fusion %.1fx faster than Vina, %.0fx faster than MM/GBSA\n"
              "(paper: ~27 poses/s/node, 2.7x and 403x)\n",
              fusion_per_node, fusion_per_node / 10.0, fusion_per_node / 0.067);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_table7_throughput: cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"bench_table7_throughput.v1\",\n"
                 "  \"measured_mini_job\": {\"poses\": %d, \"ranks\": %d, "
                 "\"startup_s\": %.4f, \"eval_s\": %.4f, \"output_s\": %.4f, "
                 "\"poses_per_second\": %.1f, \"poses_per_second_per_rank\": %.2f},\n"
                 "  \"paper_scale_model\": {\"single_job\": {\"startup_min\": %.1f, "
                 "\"eval_min\": %.1f, \"output_min\": %.1f, \"poses_per_second\": %.0f}, "
                 "\"peak_125_jobs\": {\"poses_per_second\": %.0f, \"poses_per_hour\": %.0f, "
                 "\"compounds_per_hour\": %.0f}}\n"
                 "}\n",
                 n_poses, jc.nodes * jc.gpus_per_node, r.startup_seconds, r.eval_seconds,
                 r.output_seconds, r.poses_per_second, per_rank, single.startup_minutes,
                 single.eval_minutes, single.output_minutes, single.poses_per_second,
                 peak.poses_per_second, peak.poses_per_hour, peak.compounds_per_hour);
    std::fclose(out);
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
