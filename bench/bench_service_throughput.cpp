// Serving benchmarks, two layers:
//
//  1. Hot path — RegressorScorer::score on a private replica at the
//     service's poses_per_batch (32): poses/sec plus the featurize/forward
//     phase split for all four scorer families (3D-CNN, SG-CNN, Fusion,
//     Vina), and a fused-vs-unfused GEMM epilogue microbench. This is the
//     number the zero-allocation engine (workspace arenas + fused epilogues
//     + batched block-diagonal SG-CNN) moves.
//
//  2. Service — the ScoringService's cross-client micro-batching against
//     per-client serial scoring (the pre-service world): C concurrent
//     clients streaming small pose requests at one shared CNN backend,
//     in ordered-stream and coalescing modes.
//
// Run modes:
//   bench_service_throughput                — human-readable tables
//   bench_service_throughput --json[=PATH]  — also write BENCH_service.json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "chem/conformer.h"
#include "chem/graph_featurizer.h"
#include "compile/model_compiler.h"
#include "core/gemm.h"
#include "dock/mmgbsa.h"
#include "models/checkpoint.h"
#include "serve/registry.h"
#include "serve/service.h"

using namespace df;
using namespace df::bench;

namespace {

constexpr int kClients = 4;
constexpr int kPosesPerClient = 32;
constexpr int kPosesPerRequest = 8;   // clients stream small requests
constexpr int kPosesPerBatch = 32;    // service micro-batch target
constexpr int kRounds = 2;            // best-of timing (service comparison)
constexpr int kHotPathReps = 12;      // score() calls per timing round
constexpr int kHotPathRounds = 5;     // rounds per hot-path sample set

/// Round-to-round spread of a repeated timing sample. The median is the
/// headline (robust to a one-off scheduler hiccup, unlike best-of which
/// reports the luckiest round); min/max bound the spread and the
/// coefficient of variation says whether the number is trustworthy at all
/// (CoV above a few percent means rerun on a quieter machine).
struct SampleStats {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
  double cov = 0.0;  // stddev / mean
};

SampleStats sample_stats(std::vector<double> samples) {
  SampleStats s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  s.min = samples.front();
  s.max = samples.back();
  s.median = n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  double mean = 0.0;
  for (double v : samples) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : samples) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n);
  s.cov = mean > 0.0 ? std::sqrt(var) / mean : 0.0;
  return s;
}

/// Table-3-shaped 3D-CNN (the paper's production scorer scale at our bench
/// grid): the batched dense head and amortized per-call costs are where
/// micro-batching pays on a single core; on parallel hardware predict_batch
/// additionally fans samples across the compute pool (docs/PERF.md).
models::Cnn3dConfig service_cnn_config() {
  models::Cnn3dConfig cfg = bench_cnn3d_config();
  cfg.conv_filters1 = 32;
  cfg.conv_filters2 = 64;
  cfg.dense_nodes = 128;
  return cfg;
}

struct Workload {
  std::vector<chem::Atom> pocket;
  std::vector<std::vector<serve::PoseInput>> client_poses;  // [client][pose]
};

Workload make_workload() {
  Workload w;
  core::Rng rng(17);
  w.pocket = data::make_pocket({5.5f, 48, 0.7f, 0.5f, 0.1f}, rng);
  w.client_poses.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (int i = 0; i < kPosesPerClient; ++i) {
      chem::Molecule lig = chem::generate_molecule({}, rng);
      chem::embed_conformer(lig, rng);
      lig.translate(core::Vec3{} - lig.centroid());
      serve::PoseInput p;
      p.ligand = std::move(lig);
      p.pocket = &w.pocket;
      w.client_poses[static_cast<size_t>(c)].push_back(std::move(p));
    }
  }
  return w;
}

/// All four scorer families at the bench model scale, registered under
/// their canonical names.
serve::ModelRegistry make_registry() {
  serve::ModelRegistry reg;
  chem::VoxelConfig voxel;
  voxel.grid_dim = kGridDim;
  serve::add_regressor(reg, "cnn3d", [] {
    core::Rng mrng(9);
    return std::make_unique<models::Cnn3d>(service_cnn_config(), mrng);
  }, voxel);
  serve::add_regressor(reg, "sgcnn", [] {
    core::Rng mrng(10);
    return std::make_unique<models::Sgcnn>(bench_sgcnn_config(), mrng);
  }, voxel);
  serve::add_regressor(reg, "fusion", [] {
    core::Rng mrng(11);
    auto cnn = std::make_shared<models::Cnn3d>(bench_cnn3d_config(), mrng);
    auto sg = std::make_shared<models::Sgcnn>(bench_sgcnn_config(), mrng);
    return std::make_unique<models::FusionModel>(
        bench_fusion_config(models::FusionKind::Mid), std::move(cnn), std::move(sg), mrng);
  }, voxel);
  reg.add("vina_pk", [] { return std::make_unique<serve::VinaPkScorer>(); });
  return reg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---- hot path: direct scorer at poses_per_batch -------------------------

struct HotPathResult {
  std::string family;
  SampleStats pps;                      // poses/sec across kHotPathRounds rounds
  double featurize_ms_per_batch = 0.0;  // 0 for non-Regressor backends
  double forward_ms_per_batch = 0.0;
};

HotPathResult run_hot_path(const serve::ModelRegistry& reg, const std::string& family,
                           const Workload& w) {
  HotPathResult r;
  r.family = family;
  std::unique_ptr<serve::Scorer> scorer = reg.make(family);
  std::vector<const serve::PoseInput*> batch;
  for (int i = 0; i < kPosesPerBatch; ++i) {
    batch.push_back(&w.client_poses[0][static_cast<size_t>(i)]);
  }
  for (int i = 0; i < 2; ++i) scorer->score(batch);  // warm arenas + caches

  auto* regressor = dynamic_cast<serve::RegressorScorer*>(scorer.get());
  const auto stats0 = regressor != nullptr ? regressor->phase_stats()
                                           : serve::RegressorScorer::PhaseStats{};
  std::vector<double> samples;
  for (int round = 0; round < kHotPathRounds; ++round) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kHotPathReps; ++i) {
      volatile float sink = scorer->score(batch)[0];
      (void)sink;
    }
    samples.push_back(kHotPathReps * kPosesPerBatch / seconds_since(t0));
  }
  r.pps = sample_stats(std::move(samples));
  if (regressor != nullptr) {
    const auto stats1 = regressor->phase_stats();
    const double batches = static_cast<double>(stats1.batches - stats0.batches);
    r.featurize_ms_per_batch =
        (stats1.featurize_seconds - stats0.featurize_seconds) / batches * 1e3;
    r.forward_ms_per_batch = (stats1.forward_seconds - stats0.forward_seconds) / batches * 1e3;
  }
  return r;
}

// ---- pipelined scoring + pocket cache -----------------------------------

std::vector<chem::Atom> make_cloud_pocket(int n, core::Rng& rng);  // defined below

struct PipelinedResult {
  std::string family;
  int fsv = 1;
  int pocket_atoms = 0;
  SampleStats seq;   // poses/s, sequential score(), no cache (the PR 9 path)
  SampleStats pipe;  // poses/s, depth-2 pipeline + cross-request pocket cache
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
};

/// cnn3d + fusion registered against a specific feature-set version (the
/// conv input width follows the voxel channel count).
serve::ModelRegistry make_fsv_registry(int fsv) {
  serve::ModelRegistry reg;
  chem::VoxelConfig voxel;
  voxel.grid_dim = kGridDim;
  voxel.feature_set_version = fsv;
  chem::GraphFeaturizerConfig graph;
  graph.feature_set_version = fsv;
  const int ch = voxel.channels();
  serve::add_regressor(reg, "cnn3d", [ch] {
    core::Rng mrng(9);
    models::Cnn3dConfig cfg = service_cnn_config();
    cfg.in_channels = ch;
    return std::make_unique<models::Cnn3d>(cfg, mrng);
  }, voxel, graph);
  serve::add_regressor(reg, "fusion", [ch] {
    core::Rng mrng(11);
    models::Cnn3dConfig cc = bench_cnn3d_config();
    cc.in_channels = ch;
    auto cnn = std::make_shared<models::Cnn3d>(cc, mrng);
    auto sg = std::make_shared<models::Sgcnn>(bench_sgcnn_config(), mrng);
    return std::make_unique<models::FusionModel>(
        bench_fusion_config(models::FusionKind::Mid), std::move(cnn), std::move(sg), mrng);
  }, voxel, graph);
  return reg;
}

/// Sequential uncached score() vs the depth-2 stage pipeline with a shared
/// pocket cache, same replica shape, same poses — bitwise-identical
/// outputs, different wall clock. The two wins separate cleanly: the cache
/// removes the per-batch pocket grid and crop cell-list build, while the
/// overlap of featurize(N+1) with forward(N) only pays when a spare core
/// can run the stage thread — on a single-core host it measures ~1.0x by
/// construction.
///
/// The receptor is a protein-density cloud at binding-site scale rather
/// than the 48-atom workload pocket: real pocket crops are thousands of
/// heavy atoms (the paper voxelizes the receptor region around the site),
/// and that is the regime whose repeated splat/crop/cell-list work the
/// cache exists to remove. Ligands are shared with the main workload.
PipelinedResult run_pipelined(const std::string& family, int fsv,
                              const std::vector<chem::Atom>& pocket, const Workload& w) {
  PipelinedResult r;
  r.family = family;
  r.fsv = fsv;
  r.pocket_atoms = static_cast<int>(pocket.size());
  const serve::ModelRegistry reg = make_fsv_registry(fsv);
  std::vector<serve::PoseInput> poses;
  std::vector<const serve::PoseInput*> batch;
  poses.reserve(static_cast<size_t>(kPosesPerBatch));
  for (int i = 0; i < kPosesPerBatch; ++i) {
    serve::PoseInput p;
    p.ligand = w.client_poses[0][static_cast<size_t>(i)].ligand;
    p.pocket = &pocket;
    poses.push_back(std::move(p));
  }
  for (const serve::PoseInput& p : poses) batch.push_back(&p);

  std::vector<float> seq_scores;
  {
    std::unique_ptr<serve::Scorer> scorer = reg.make(family);
    for (int i = 0; i < 2; ++i) seq_scores = scorer->score(batch);
    std::vector<double> samples;
    for (int round = 0; round < kHotPathRounds; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kHotPathReps; ++i) {
        volatile float sink = scorer->score(batch)[0];
        (void)sink;
      }
      samples.push_back(kHotPathReps * kPosesPerBatch / seconds_since(t0));
    }
    r.seq = sample_stats(std::move(samples));
  }

  {
    std::unique_ptr<serve::Scorer> scorer = reg.make(family);
    auto* regressor = dynamic_cast<serve::RegressorScorer*>(scorer.get());
    auto cache = std::make_shared<serve::PocketCache>(4);
    regressor->set_pocket_cache(cache);
    regressor->set_pipeline_depth(2);
    serve::ScorerPipeline* pipe = regressor->pipeline();
    for (int i = 0; i < 2; ++i) {  // warm both ring slots + the cache entry
      pipe->submit(batch);
      pipe->submit(batch);
      pipe->collect();
      const std::vector<float> got = pipe->collect();
      // The headline claim is "bitwise-identical outputs" — enforce it here
      // (same deterministic factory, same poses), like bench_training does.
      if (std::memcmp(got.data(), seq_scores.data(), got.size() * sizeof(float)) != 0) {
        std::fprintf(stderr, "pipelined %s v%d diverged from sequential scores\n",
                     family.c_str(), fsv);
        std::exit(1);
      }
    }
    std::vector<double> samples;
    for (int round = 0; round < kHotPathRounds; ++round) {
      const auto t0 = std::chrono::steady_clock::now();
      int submitted = 0, collected = 0;
      while (collected < kHotPathReps) {
        if (submitted < kHotPathReps && pipe->in_flight() < 2) {
          pipe->submit(batch);
          ++submitted;
        } else {
          volatile float sink = pipe->collect()[0];
          (void)sink;
          ++collected;
        }
      }
      samples.push_back(kHotPathReps * kPosesPerBatch / seconds_since(t0));
    }
    r.pipe = sample_stats(std::move(samples));
    r.cache_hits = cache->stats().hits;
    r.cache_misses = cache->stats().misses;
  }
  return r;
}

// ---- epilogue microbench ------------------------------------------------

struct EpilogueResult {
  double fused_ms = 0.0;
  double unfused_ms = 0.0;
};

/// Fused bias+activation epilogue vs gemm-then-elementwise at the fusion
/// head's gather shape (many rows, narrow SELU-activated output).
EpilogueResult run_epilogue_bench() {
  core::Rng rng(29);
  const int64_t m = 2048, n = 48, k = 38;
  core::Tensor a = core::Tensor::randn({m, k}, rng);
  core::Tensor b = core::Tensor::randn({k, n}, rng);
  core::Tensor bias = core::Tensor::randn({n}, rng);
  core::Tensor out({m, n});
  core::Epilogue ep;
  ep.act = core::EpilogueAct::kSELU;
  ep.bias_col = bias.data();

  const int reps = 200;
  EpilogueResult r;
  double best_fused = 1e30, best_unfused = 1e30;
  for (int round = 0; round < 3; ++round) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      core::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, out.data(), n, false, &ep);
    }
    best_fused = std::min(best_fused, seconds_since(t0));
    t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) {
      core::sgemm(false, false, m, n, k, a.data(), k, b.data(), n, out.data(), n);
      for (int64_t r2 = 0; r2 < m; ++r2) {
        float* row = out.data() + r2 * n;
        for (int64_t j = 0; j < n; ++j) row[j] += bias[j];
      }
      for (int64_t i2 = 0; i2 < out.numel(); ++i2) {
        const float v = out[i2];
        out[i2] = v > 0.0f ? 1.0507009873554805f * v
                           : 1.0507009873554805f * 1.6732632423543772f * (std::exp(v) - 1.0f);
      }
    }
    best_unfused = std::min(best_unfused, seconds_since(t0));
  }
  r.fused_ms = best_fused / reps * 1e3;
  r.unfused_ms = best_unfused / reps * 1e3;
  return r;
}

// ---- MM-GBSA neighbor engine: cell list vs brute force -------------------

struct NeighborResult {
  int pocket_atoms = 0;
  double mmgbsa_cell_ms = 0.0;  // full mmgbsa_score, ms/pose
  double mmgbsa_brute_ms = 0.0;
};

/// Protein-like receptor neighborhood: heavy atoms uniform in a ball at
/// constant volume density (~0.055 atoms/A^3), so the ball radius grows as
/// cbrt(N) and larger systems extend well past the interaction cutoffs —
/// the regime a cell list exists for. Element mix mirrors make_pocket.
std::vector<chem::Atom> make_cloud_pocket(int n, core::Rng& rng) {
  const float radius =
      std::cbrt(3.0f * static_cast<float>(n) / (4.0f * 3.14159265f * 0.055f));
  std::vector<chem::Atom> pocket;
  pocket.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    core::Vec3 dir{rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f), rng.normal(0.0f, 1.0f)};
    const float len = std::max(1e-6f, dir.norm());
    const float r = radius * std::cbrt(rng.uniform());
    chem::Atom a;
    a.pos = core::Vec3{dir.x / len * r, dir.y / len * r, dir.z / len * r};
    const float u = rng.uniform();
    if (u < 0.10f) {
      a.element = rng.bernoulli(0.5) ? chem::Element::N : chem::Element::O;
      a.formal_charge = a.element == chem::Element::N ? 1 : -1;
    } else if (u < 0.60f) {
      a.element = chem::Element::C;
    } else {
      const float v = rng.uniform();
      a.element = v < 0.4f ? chem::Element::O : (v < 0.8f ? chem::Element::N : chem::Element::S);
      a.implicit_h = rng.bernoulli(0.5) ? 1 : 0;
    }
    pocket.push_back(a);
  }
  return pocket;
}

/// MM-GBSA cost of its two neighbor-search routes at growing receptor
/// sizes (constant density — extent grows as cbrt(N)). Both routes produce
/// bitwise-identical terms (tests/test_cell_list.cpp), so this block is
/// pure perf: the brute pairwise scans touch all N atoms per probe, the
/// cell-list engine only the local neighborhood. MM-GBSA sums over the
/// whole pocket, which is why it keeps both routes; the graph featurizer
/// crops to 64 atoms and has only its branch-free sweep.
std::vector<NeighborResult> run_neighbor_bench() {
  std::vector<NeighborResult> out;
  core::Rng rng(23);
  chem::Molecule lig = chem::generate_molecule({}, rng);
  chem::embed_conformer(lig, rng);
  lig.translate(core::Vec3{} - lig.centroid());
  for (int n : {48, 256, 1024, 4096, 16384}) {
    const std::vector<chem::Atom> pocket = make_cloud_pocket(n, rng);
    NeighborResult r;
    r.pocket_atoms = n;
    const int mm_reps = std::max(1, 256 / n);
    for (bool cells : {true, false}) {
      dock::MmGbsaConfig mc;
      mc.use_cell_list = cells;
      mc.cell_list_min_atoms = 0;  // force the engine at every size
      mc.gb_cutoff = 7.0f;  // finite GB cutoff so the polar term scales too
      volatile float sink = dock::mmgbsa_score(lig, pocket, mc);  // warm scratch
      double best = 1e30;
      for (int round = 0; round < 3; ++round) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < mm_reps; ++i) sink = dock::mmgbsa_score(lig, pocket, mc);
        best = std::min(best, seconds_since(t0));
      }
      (void)sink;
      (cells ? r.mmgbsa_cell_ms : r.mmgbsa_brute_ms) = best / mm_reps * 1e3;
    }
    out.push_back(r);
  }
  return out;
}

// ---- cold start: weight checkpoint vs compiled artifact ------------------

// The h5_* names predate the shared container; they stay for the JSON
// trajectory and mean the weight-checkpoint path.
struct ColdStartResult {
  double h5_restore_ms = 0.0;        // factory + load_checkpoint
  double h5_first_batch_ms = 0.0;    // … + first scored batch
  double artifact_restore_ms = 0.0;  // load_compiled + workspace reserve
  double artifact_first_batch_ms = 0.0;
};

/// Time-to-first-scored-batch for a fresh cnn3d replica, both restore
/// paths. The checkpoint path pays model construction, weight copies,
/// conv-plan construction and arena growth; the compiled artifact ships
/// pre-folded layers and the arena high-water budgets, so its first batch
/// is already the steady state. Both copy their weights out of a `.dfca`
/// file. The artifact mapping is opened once outside the timer
/// (registration cost, amortized over every replica a service mints).
ColdStartResult run_cold_start_bench(const Workload& w) {
  chem::VoxelConfig voxel;
  voxel.grid_dim = kGridDim;
  auto make_model = [] {
    core::Rng mrng(9);
    return std::make_unique<models::Cnn3d>(service_cnn_config(), mrng);
  };
  const auto tmp = std::filesystem::temp_directory_path();
  const std::string h5 = (tmp / "BENCH_coldstart_weights.dfca").string();
  const std::string dfca = (tmp / "BENCH_coldstart.dfca").string();

  std::vector<const serve::PoseInput*> batch;
  for (int i = 0; i < kPosesPerBatch; ++i) {
    batch.push_back(&w.client_poses[0][static_cast<size_t>(i)]);
  }

  // Donor run: persist both restore formats; the warmed donor's arena
  // high-water marks become the artifact's workspace budgets.
  {
    auto donor_model = make_model();
    models::save_checkpoint(*donor_model, h5);
    serve::RegressorScorer donor("cnn3d", std::move(donor_model), voxel, {});
    for (int i = 0; i < 2; ++i) donor.score(batch);
    auto compiled = make_model();
    compile::save_compiled(*compiled, dfca, donor.workspace_capacities());
  }

  serve::ModelRegistry creg;
  serve::add_compiled(creg, "cnn3d", dfca, voxel);

  ColdStartResult r;
  double h5_restore = 1e30, h5_first = 1e30, art_restore = 1e30, art_first = 1e30;
  for (int round = 0; round < 5; ++round) {
    {
      const auto t0 = std::chrono::steady_clock::now();
      auto model = make_model();
      models::load_checkpoint(*model, h5);
      serve::RegressorScorer scorer("cnn3d", std::move(model), voxel, {});
      const double restore = seconds_since(t0);
      volatile float sink = scorer.score(batch)[0];
      (void)sink;
      h5_restore = std::min(h5_restore, restore);
      h5_first = std::min(h5_first, seconds_since(t0));
    }
    {
      const auto t0 = std::chrono::steady_clock::now();
      std::unique_ptr<serve::Scorer> scorer = creg.make("cnn3d");
      const double restore = seconds_since(t0);
      volatile float sink = scorer->score(batch)[0];
      (void)sink;
      art_restore = std::min(art_restore, restore);
      art_first = std::min(art_first, seconds_since(t0));
    }
  }
  r.h5_restore_ms = h5_restore * 1e3;
  r.h5_first_batch_ms = h5_first * 1e3;
  r.artifact_restore_ms = art_restore * 1e3;
  r.artifact_first_batch_ms = art_first * 1e3;
  std::filesystem::remove(h5);
  std::filesystem::remove(dfca);
  return r;
}

// ---- service comparison (cross-client batching vs serial) ---------------

/// Pre-service world: every client owns a replica and scores pose by pose.
double run_serial(const serve::ModelRegistry& reg, const Workload& w) {
  // Replica construction outside the timer, mirroring service warmup.
  std::vector<std::unique_ptr<serve::Scorer>> replicas;
  for (int c = 0; c < kClients; ++c) replicas.push_back(reg.make("cnn3d"));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      serve::Scorer& scorer = *replicas[static_cast<size_t>(c)];
      for (const serve::PoseInput& p : w.client_poses[static_cast<size_t>(c)]) {
        const serve::PoseInput* ptr = &p;
        volatile float sink = scorer.score({ptr})[0];
        (void)sink;
      }
    });
  }
  for (auto& t : clients) t.join();
  return seconds_since(t0);
}

double run_service(const serve::ModelRegistry& reg, const Workload& w, bool ordered,
                   serve::ServiceStats* stats_out) {
  serve::ServiceConfig sc;
  sc.workers = 0;  // one worker per hardware thread; clients are just streams
  sc.poses_per_batch = kPosesPerBatch;
  sc.ordered_stream = ordered;
  sc.flush_deadline_ms = 1.0;
  serve::ScoringService service(reg, sc);
  service.warmup("cnn3d");
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const auto& poses = w.client_poses[static_cast<size_t>(c)];
      std::vector<std::future<serve::ScoreResponse>> futures;
      for (size_t i = 0; i < poses.size(); i += kPosesPerRequest) {
        serve::ScoreRequest req;
        req.scorer = "cnn3d";
        const size_t end = std::min(poses.size(), i + kPosesPerRequest);
        req.poses.assign(poses.begin() + static_cast<long>(i),
                         poses.begin() + static_cast<long>(end));
        futures.push_back(service.submit(std::move(req)));
      }
      for (auto& f : futures) {
        const serve::ScoreResponse resp = f.get();
        if (resp.error != serve::ScoreError::kNone) {
          std::fprintf(stderr, "service error: %s\n", resp.message.c_str());
          std::abort();
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  const double secs = seconds_since(t0);
  if (stats_out) *stats_out = service.stats();
  return secs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = json_flag_path(argc, argv, "BENCH_service.json");

  const Workload w = make_workload();
  const serve::ModelRegistry reg = make_registry();

  // ---- hot path ----
  print_header("Serving hot path — direct scorer, batch of 32 poses");
  std::vector<HotPathResult> hot;
  for (const char* family : {"cnn3d", "sgcnn", "fusion", "vina_pk"}) {
    hot.push_back(run_hot_path(reg, family, w));
  }
  std::printf("%-12s %10s %9s %9s %6s %14s %13s\n", "family", "poses/s", "min", "max", "cov%",
              "featurize ms/b", "forward ms/b");
  print_rule(81);
  for (const HotPathResult& r : hot) {
    std::printf("%-12s %10.1f %9.1f %9.1f %5.1f%% %14.3f %13.3f\n", r.family.c_str(),
                r.pps.median, r.pps.min, r.pps.max, r.pps.cov * 100.0, r.featurize_ms_per_batch,
                r.forward_ms_per_batch);
  }
  std::printf("(poses/s = median of %d rounds x %d batches; min/max/CoV bound the spread)\n",
              kHotPathRounds, kHotPathReps);
  const EpilogueResult epi = run_epilogue_bench();
  std::printf("\nfused GEMM epilogue (2048x48x38, bias+SELU): %.3f ms vs unfused %.3f ms "
              "(%.2fx)\n\n",
              epi.fused_ms, epi.unfused_ms, epi.unfused_ms / epi.fused_ms);

  // ---- pipelined scoring + pocket cache ----
  print_header("Pipelined scoring + cross-request pocket cache (bitwise-identical outputs)");
  core::Rng pocket_rng(31);
  const std::vector<chem::Atom> site_pocket = make_cloud_pocket(2048, pocket_rng);
  std::vector<PipelinedResult> piped;
  for (int fsv : {1, 2}) {
    for (const char* family : {"cnn3d", "fusion"}) {
      piped.push_back(run_pipelined(family, fsv, site_pocket, w));
    }
  }
  std::printf("%-10s %4s %7s %13s %6s %18s %6s %9s %12s\n", "family", "fsv", "atoms",
              "seq poses/s", "cov%", "pipe+cache poses/s", "cov%", "speedup", "cache h/m");
  print_rule(96);
  for (const PipelinedResult& r : piped) {
    std::printf("%-10s %4d %7d %13.1f %5.1f%% %18.1f %5.1f%% %8.2fx %8llu/%llu\n",
                r.family.c_str(), r.fsv, r.pocket_atoms, r.seq.median, r.seq.cov * 100.0,
                r.pipe.median, r.pipe.cov * 100.0, r.pipe.median / r.seq.median,
                static_cast<unsigned long long>(r.cache_hits),
                static_cast<unsigned long long>(r.cache_misses));
  }
  std::printf(
      "(binding-site-scale protein-density receptor; seq = plain score() without a\n"
      " cache, per-batch pocket grid and crop work; pipe = depth-2 stage pipeline\n"
      " + pocket cache. The cache win is core-count-independent; the featurize/forward\n"
      " overlap needs a spare core for the stage thread — on a single-core host it\n"
      " contributes ~nothing by construction.)\n\n");

  // ---- MM-GBSA neighbor engine ----
  print_header("MM-GBSA neighbor engine — cell list vs brute-force pairwise scan");
  const std::vector<NeighborResult> nb = run_neighbor_bench();
  std::printf("%-12s %14s %15s %9s\n", "pocket atoms", "mmgbsa cell ms", "mmgbsa brute ms",
              "speedup");
  print_rule(53);
  for (const NeighborResult& r : nb) {
    std::printf("%-12d %14.3f %15.3f %8.2fx\n", r.pocket_atoms, r.mmgbsa_cell_ms,
                r.mmgbsa_brute_ms, r.mmgbsa_brute_ms / r.mmgbsa_cell_ms);
  }
  std::printf("\n");

  // ---- cold start ----
  print_header("Replica cold start — weight checkpoint vs compiled artifact (cnn3d)");
  const ColdStartResult cold = run_cold_start_bench(w);
  std::printf(
      "replica restore:            checkpoint %.2f ms, compiled artifact %.2f ms (%.2fx)\n",
      cold.h5_restore_ms, cold.artifact_restore_ms, cold.h5_restore_ms / cold.artifact_restore_ms);
  std::printf(
      "time to first scored batch: checkpoint %.2f ms, compiled artifact %.2f ms (%.2fx)\n\n",
      cold.h5_first_batch_ms, cold.artifact_first_batch_ms,
      cold.h5_first_batch_ms / cold.artifact_first_batch_ms);

  // ---- service comparison ----
  print_header("ScoringService — cross-client batching vs per-client serial scoring");
  const double total_poses = static_cast<double>(kClients) * kPosesPerClient;
  std::printf("workload: %d clients x %d poses, %d-pose requests, batch target %d\n\n",
              kClients, kPosesPerClient, kPosesPerRequest, kPosesPerBatch);

  double serial_s = 1e30, ordered_s = 1e30, coalesced_s = 1e30;
  serve::ServiceStats ordered_stats, coalesced_stats;
  for (int round = 0; round < kRounds; ++round) {
    serial_s = std::min(serial_s, run_serial(reg, w));
    ordered_s = std::min(ordered_s, run_service(reg, w, /*ordered=*/true, &ordered_stats));
    coalesced_s = std::min(coalesced_s, run_service(reg, w, /*ordered=*/false, &coalesced_stats));
  }

  const double serial_pps = total_poses / serial_s;
  const double ordered_pps = total_poses / ordered_s;
  const double coalesced_pps = total_poses / coalesced_s;

  std::printf("%-34s %10s %12s %10s\n", "configuration", "time (s)", "poses/s", "speedup");
  print_rule(70);
  std::printf("%-34s %10.3f %12.1f %9.2fx\n", "per-client serial (baseline)", serial_s,
              serial_pps, 1.0);
  std::printf("%-34s %10.3f %12.1f %9.2fx\n", "service, ordered-stream", ordered_s, ordered_pps,
              ordered_pps / serial_pps);
  std::printf("%-34s %10.3f %12.1f %9.2fx\n", "service, cross-client batching", coalesced_s,
              coalesced_pps, coalesced_pps / serial_pps);
  print_rule(70);
  std::printf("request latency: ordered p50 %.3f ms / p99 %.3f ms, coalesced p50 %.3f ms / "
              "p99 %.3f ms\n",
              ordered_stats.latency.p50_ms(), ordered_stats.latency.p99_ms(),
              coalesced_stats.latency.p50_ms(), coalesced_stats.latency.p99_ms());
  std::printf("coalesced run: %llu batches (%llu full, %llu cross-client) for %llu requests\n",
              static_cast<unsigned long long>(coalesced_stats.batches),
              static_cast<unsigned long long>(coalesced_stats.full_batches),
              static_cast<unsigned long long>(coalesced_stats.coalesced_batches),
              static_cast<unsigned long long>(coalesced_stats.requests));
  const bool beats = coalesced_pps > serial_pps;
  std::printf("cross-client batching %s per-client serial scoring (%.2fx)\n",
              beats ? "beats" : "DOES NOT BEAT", coalesced_pps / serial_pps);

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench_service_throughput: cannot open %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(out,
                 "{\n"
                 "  \"schema\": \"bench_service.v9\",\n"
                 "  \"workload\": {\"clients\": %d, \"poses_per_client\": %d, "
                 "\"poses_per_request\": %d, \"poses_per_batch\": %d, "
                 "\"feature_set_version\": %d, \"hot_path_rounds\": %d},\n"
                 "  \"hot_path\": {\n",
                 kClients, kPosesPerClient, kPosesPerRequest, kPosesPerBatch,
                 chem::GraphFeaturizerConfig{}.feature_set_version, kHotPathRounds);
    for (size_t i = 0; i < hot.size(); ++i) {
      const HotPathResult& r = hot[i];
      std::fprintf(out,
                   "    \"%s\": {\"poses_per_second\": %.1f, "
                   "\"poses_per_second_min\": %.1f, \"poses_per_second_max\": %.1f, "
                   "\"poses_per_second_cov\": %.4f, "
                   "\"featurize_ms_per_batch\": %.3f, \"forward_ms_per_batch\": %.3f}%s\n",
                   json_escape(r.family).c_str(), r.pps.median, r.pps.min, r.pps.max, r.pps.cov,
                   r.featurize_ms_per_batch, r.forward_ms_per_batch,
                   i + 1 < hot.size() ? "," : "");
    }
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"pipelined_serving\": {\n");
    for (size_t i = 0; i < piped.size(); ++i) {
      const PipelinedResult& r = piped[i];
      std::fprintf(out,
                   "    \"%s_v%d\": {\"pocket_atoms\": %d, \"sequential_pps\": %.1f, "
                   "\"sequential_cov\": %.4f, "
                   "\"pipelined_cached_pps\": %.1f, \"pipelined_cached_cov\": %.4f, "
                   "\"speedup\": %.3f, \"cache_hits\": %llu, \"cache_misses\": %llu}%s\n",
                   json_escape(r.family).c_str(), r.fsv, r.pocket_atoms, r.seq.median, r.seq.cov,
                   r.pipe.median, r.pipe.cov, r.pipe.median / r.seq.median,
                   static_cast<unsigned long long>(r.cache_hits),
                   static_cast<unsigned long long>(r.cache_misses),
                   i + 1 < piped.size() ? "," : "");
    }
    std::fprintf(out, "  },\n");
    std::fprintf(out, "  \"featurize_neighbor_engine\": {\n");
    for (size_t i = 0; i < nb.size(); ++i) {
      const NeighborResult& r = nb[i];
      std::fprintf(out,
                   "    \"pocket_%d\": {\"mmgbsa_cell_ms\": %.4f, "
                   "\"mmgbsa_brute_ms\": %.4f, \"mmgbsa_speedup\": %.3f}%s\n",
                   r.pocket_atoms, r.mmgbsa_cell_ms, r.mmgbsa_brute_ms,
                   r.mmgbsa_brute_ms / r.mmgbsa_cell_ms, i + 1 < nb.size() ? "," : "");
    }
    std::fprintf(out, "  },\n");
    std::fprintf(out,
                 "  \"cold_start\": {\"h5_restore_ms\": %.3f, \"h5_first_batch_ms\": %.3f, "
                 "\"artifact_restore_ms\": %.3f, \"artifact_first_batch_ms\": %.3f, "
                 "\"restore_speedup\": %.3f, \"first_batch_speedup\": %.3f},\n"
                 "  \"epilogue\": {\"fused_ms\": %.4f, \"unfused_ms\": %.4f, "
                 "\"speedup\": %.3f},\n"
                 "  \"serial\": {\"seconds\": %.4f, \"poses_per_second\": %.1f},\n"
                 "  \"service_ordered\": {\"seconds\": %.4f, \"poses_per_second\": %.1f, "
                 "\"batches\": %llu, \"latency_p50_ms\": %.3f, \"latency_p99_ms\": %.3f},\n"
                 "  \"service_coalesced\": {\"seconds\": %.4f, \"poses_per_second\": %.1f, "
                 "\"batches\": %llu, \"full_batches\": %llu, \"coalesced_batches\": %llu, "
                 "\"latency_p50_ms\": %.3f, \"latency_p99_ms\": %.3f},\n"
                 "  \"speedup_coalesced_vs_serial\": %.3f,\n"
                 "  \"speedup_ordered_vs_serial\": %.3f,\n"
                 "  \"cross_client_batching_beats_serial\": %s\n"
                 "}\n",
                 cold.h5_restore_ms, cold.h5_first_batch_ms, cold.artifact_restore_ms,
                 cold.artifact_first_batch_ms, cold.h5_restore_ms / cold.artifact_restore_ms,
                 cold.h5_first_batch_ms / cold.artifact_first_batch_ms,
                 epi.fused_ms, epi.unfused_ms, epi.unfused_ms / epi.fused_ms, serial_s,
                 serial_pps, ordered_s, ordered_pps,
                 static_cast<unsigned long long>(ordered_stats.batches),
                 ordered_stats.latency.p50_ms(), ordered_stats.latency.p99_ms(), coalesced_s,
                 coalesced_pps, static_cast<unsigned long long>(coalesced_stats.batches),
                 static_cast<unsigned long long>(coalesced_stats.full_batches),
                 static_cast<unsigned long long>(coalesced_stats.coalesced_batches),
                 coalesced_stats.latency.p50_ms(), coalesced_stats.latency.p99_ms(),
                 coalesced_pps / serial_pps, ordered_pps / serial_pps,
                 beats ? "true" : "false");
    std::fclose(out);
    std::printf("wrote %s\n", json_path.c_str());
  }
  // Always exit 0: the verdict lives in the JSON/table. Perf margins are
  // machine- and noise-dependent; CI smokes this bench for the artifact,
  // not as a perf gate.
  return 0;
}
