// Regenerates the paper's §4.1/§4.2 cost comparison (per-pose scoring cost
// of Vina docking, MM/GBSA rescoring and Fusion inference; the paper reports
// Fusion 2.7x faster than Vina and 403x faster than MM/GBSA) and measures
// the inference-engine speedups this repo adds on top: the indirect-GEMM
// Conv3d vs the direct 7-loop reference, the 3D-CNN trunk and the SG-CNN's
// graph propagation at the screening batch shape, blocked GEMM thread
// scaling, and the batched fusion scoring job.
//
// Two run modes:
//   bench_speedup                  — Google Benchmark suite (human output)
//   bench_speedup --json[=PATH]    — machine-readable speedup measurements
//                                    written to PATH (default
//                                    BENCH_speedup.json) so future PRs can
//                                    track the perf trajectory.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "chem/conformer.h"
#include "core/gemm.h"
#include "core/parallel.h"
#include "core/threadpool.h"
#include "dock/conveyorlc.h"
#include "graph/gated_graph_conv.h"
#include "models/cnn3d.h"
#include "nn/conv3d.h"
#include "screen/job.h"
#include "serve/service.h"

namespace {

using namespace df;
using namespace df::bench;

struct Fixture {
  std::vector<chem::Atom> pocket;
  chem::Molecule ligand;
  std::unique_ptr<models::Sgcnn> sg;
  std::unique_ptr<models::Cnn3d> cnn;
  chem::Voxelizer vox;
  chem::GraphFeaturizer feat;

  Fixture() : vox([] {
      chem::VoxelConfig vc;
      vc.grid_dim = kGridDim;
      return vc;
    }()) {
    core::Rng rng(3);
    pocket = data::make_pocket({5.5f, 64, 0.7f, 0.5f, 0.1f}, rng);
    ligand = chem::generate_molecule({}, rng);
    chem::embed_conformer(ligand, rng);
    ligand.translate(core::Vec3{} - ligand.centroid());
    sg = std::make_unique<models::Sgcnn>(bench_sgcnn_config(), rng);
    cnn = std::make_unique<models::Cnn3d>(bench_cnn3d_config(), rng);
    sg->set_training(false);
    cnn->set_training(false);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// The Conv3d microbenchmark shape: the 3D-CNN's first (and most expensive)
// layer at paper-like channel counts — 16 voxel channels, 32 filters of
// 5x5x5 over a 12^3 grid.
struct ConvBench {
  core::Rng rng{13};
  nn::Conv3d conv{16, 32, 5, rng, /*stride=*/2, /*padding=*/2};
  core::Tensor x{core::Tensor::randn({1, 16, 12, 12, 12}, rng)};
  const core::Tensor *w, *b;
  ConvBench() {
    conv.set_training(false);
    auto params = conv.parameters();
    w = &params[0]->value;
    b = &params[1]->value;
  }
};

ConvBench& conv_bench() {
  static ConvBench c;
  return c;
}

/// One Vina MC docking run amortized per pose evaluated (the paper's
/// "docking" cost is the full 8-run MC search per compound).
void BM_VinaDockingPerCompound(benchmark::State& state) {
  Fixture& f = fixture();
  core::Rng rng(4);
  dock::DockingConfig cfg;
  cfg.num_runs = 8;
  cfg.steps_per_run = 100;
  dock::DockingEngine engine(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.dock(f.ligand, f.pocket, {}, rng));
  }
}
BENCHMARK(BM_VinaDockingPerCompound)->Unit(benchmark::kMillisecond);

void BM_VinaScoreSinglePose(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dock::vina_score(f.ligand, f.pocket));
  }
}
BENCHMARK(BM_VinaScoreSinglePose)->Unit(benchmark::kMicrosecond);

void BM_MmGbsaRescoreSinglePose(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dock::mmgbsa_score(f.ligand, f.pocket));
  }
}
BENCHMARK(BM_MmGbsaRescoreSinglePose)->Unit(benchmark::kMillisecond);

void BM_FusionScoreSinglePose(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    data::Sample s;
    s.voxel = f.vox.voxelize(f.ligand, f.pocket, {});
    s.graph = f.feat.featurize(f.ligand, f.pocket);
    // Late-fusion style scoring: both heads, averaged (featurization
    // included — it is the dominant cost, as §4.3 observes).
    benchmark::DoNotOptimize(0.5f * (f.sg->predict(s) + f.cnn->predict(s)));
  }
}
BENCHMARK(BM_FusionScoreSinglePose)->Unit(benchmark::kMillisecond);

void BM_FeaturizeVoxelOnly(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.vox.voxelize(f.ligand, f.pocket, {}));
  }
}
BENCHMARK(BM_FeaturizeVoxelOnly)->Unit(benchmark::kMicrosecond);

void BM_FeaturizeGraphOnly(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.feat.featurize(f.ligand, f.pocket));
  }
}
BENCHMARK(BM_FeaturizeGraphOnly)->Unit(benchmark::kMicrosecond);

// ---- inference-engine microbenchmarks ----

void BM_Conv3dForwardNaive(benchmark::State& state) {
  ConvBench& c = conv_bench();
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::conv3d_forward_naive(c.x, *c.w, *c.b, 2, 2));
  }
}
BENCHMARK(BM_Conv3dForwardNaive)->Unit(benchmark::kMillisecond);

void BM_Conv3dForward(benchmark::State& state) {
  ConvBench& c = conv_bench();
  for (auto _ : state) {
    benchmark::DoNotOptimize(c.conv.forward(c.x));
  }
}
BENCHMARK(BM_Conv3dForward)->Unit(benchmark::kMillisecond);

// The screening benchmark's 3D-CNN trunk (bench/screening/fixtures.cpp): 16
// voxel channels on an 8^3 grid, 32/64 filters, 128 dense nodes, the
// residual on stage 2 only, no batch norm. One 32-pose batch of voxels from
// a fixed seed, eval forward on one core, as in a service worker.
void BM_Cnn3dTrunkEval(benchmark::State& state) {
  static const struct TrunkBench {
    models::Cnn3dConfig cfg = [] {
      models::Cnn3dConfig c;
      c.in_channels = 16;
      c.grid_dim = 8;
      c.conv_filters1 = 32;
      c.conv_filters2 = 64;
      c.dense_nodes = 128;
      c.batch_norm = false;
      c.residual1 = false;
      c.residual2 = true;
      return c;
    }();
    core::Rng rng{37};
    std::unique_ptr<models::Cnn3d> cnn = std::make_unique<models::Cnn3d>(cfg, rng);
    core::Tensor voxels = core::Tensor::uniform({32, 16, 8, 8, 8}, rng, 0.0f, 1.0f);
  } t;
  core::SerialComputeScope serial;
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.cnn->forward_latent(t.voxels, /*training=*/false));
  }
}
BENCHMARK(BM_Cnn3dTrunkEval)->Unit(benchmark::kMillisecond);

void BM_GemmBatched(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  core::ThreadPool pool(threads);
  core::ComputePoolGuard guard(&pool);
  core::Rng rng(21);
  core::Tensor a = core::Tensor::randn({256, 512}, rng);
  core::Tensor b = core::Tensor::randn({512, 256}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.matmul(b));
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * 256 * 512 * 256 * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
// Real time, not CPU time: the work runs on pool workers, so the main
// thread's CPU clock undercounts and would inflate the rate counter.
BENCHMARK(BM_GemmBatched)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

// The SG-CNN's two propagations at the screening benchmark's batch shape:
// 32 poses packed into 2650 node rows at d = 24, the covalent stage (k = 6,
// about 2.5 in-edges per node) then the non-covalent one (k = 3, about 29),
// each edge joining two nodes of one pose. Edges come from a fixed seed and
// the forward runs on one core, as in a service worker.
struct GraphPropagationBench {
  static constexpr int64_t kRows = 2650, kDim = 24, kPoses = 32;
  core::Rng rng{31};
  graph::GatedGraphConv cov{kDim, 6, rng};
  graph::GatedGraphConv noncov{kDim, 3, rng};
  core::Tensor h0 = core::Tensor::randn({kRows, kDim}, rng, 0.5f);
  graph::EdgeList cov_edges = edges(2.5), noncov_edges = edges(29.0);

  graph::EdgeList edges(double per_node) {
    graph::EdgeList e;
    const auto count = static_cast<int64_t>(per_node * kRows);
    for (int64_t i = 0; i < count; ++i) {
      const int64_t dst = rng.randint(0, kRows - 1);
      const int64_t pose = dst * kPoses / kRows;
      const int64_t lo = (pose * kRows + kPoses - 1) / kPoses;
      const int64_t hi = ((pose + 1) * kRows + kPoses - 1) / kPoses - 1;
      e.add(static_cast<int32_t>(rng.randint(lo, hi)), static_cast<int32_t>(dst));
    }
    return e;
  }
};

void BM_GatedGraphConvEval(benchmark::State& state) {
  static GraphPropagationBench g;
  core::SerialComputeScope serial;
  for (auto _ : state) {
    const core::Tensor h1 = g.cov.forward(g.h0, g.cov_edges, /*training=*/false);
    benchmark::DoNotOptimize(g.noncov.forward(h1, g.noncov_edges, /*training=*/false));
  }
}
BENCHMARK(BM_GatedGraphConvEval)->Unit(benchmark::kMillisecond);

// ---- machine-readable speedup mode (--json) ----

double time_ms(const std::function<void()>& fn, int min_iters = 3, double min_seconds = 0.2) {
  fn();  // warm-up
  int iters = 0;
  const auto t0 = std::chrono::steady_clock::now();
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  } while (iters < min_iters || elapsed < min_seconds);
  return elapsed * 1000.0 / iters;
}

double max_abs_diff(const core::Tensor& a, const core::Tensor& b) {
  double m = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) m = std::max(m, std::fabs(double(a[i]) - double(b[i])));
  return m;
}

int emit_json(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_speedup: cannot open %s for writing\n", path.c_str());
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(out, "{\n  \"schema\": \"bench_speedup.v1\",\n  \"hardware_threads\": %u,\n", hw);

  // 1. Conv3d forward: the indirect GEMM vs the direct 7-loop reference,
  //    single-threaded (no pool installed), with an output-equivalence pin.
  {
    ConvBench& c = conv_bench();
    const core::Tensor ref = nn::conv3d_forward_naive(c.x, *c.w, *c.b, 2, 2);
    const core::Tensor fast = c.conv.forward(c.x);
    const double diff = max_abs_diff(ref, fast);
    const double naive_ms =
        time_ms([&] { benchmark::DoNotOptimize(nn::conv3d_forward_naive(c.x, *c.w, *c.b, 2, 2)); });
    const double fast_ms = time_ms([&] { benchmark::DoNotOptimize(c.conv.forward(c.x)); });
    std::fprintf(out,
                 "  \"conv3d_forward\": {\"workload\": \"cin16_cout32_k5_s2_p2_g12\", "
                 "\"naive_ms\": %.4f, \"fast_ms\": %.4f, \"speedup\": %.2f, "
                 "\"max_abs_diff\": %.3g},\n",
                 naive_ms, fast_ms, naive_ms / fast_ms, diff);
    std::printf("conv3d forward: naive %.3f ms, fast %.3f ms -> %.2fx (max diff %.2g)\n",
                naive_ms, fast_ms, naive_ms / fast_ms, diff);
  }

  // 2. Batched GEMM strong scaling: one dense-layer-shaped multiply per
  //    thread count. poses/sec treats each of the 256 rows as one pose
  //    through a 512->256 dense layer.
  {
    core::Rng rng(21);
    core::Tensor a = core::Tensor::randn({256, 512}, rng);
    core::Tensor b = core::Tensor::randn({512, 256}, rng);
    const double flops = 2.0 * 256 * 512 * 256;
    std::fprintf(out, "  \"gemm_batched\": [\n");
    const size_t thread_counts[] = {1, 2, 4};
    for (size_t ti = 0; ti < 3; ++ti) {
      const size_t t = thread_counts[ti];
      core::ThreadPool pool(t);
      core::ComputePoolGuard guard(&pool);
      const double ms = time_ms([&] { benchmark::DoNotOptimize(a.matmul(b)); });
      std::fprintf(out,
                   "    {\"threads\": %zu, \"workload\": \"m256_k512_n256\", \"ms\": %.4f, "
                   "\"gflops\": %.2f, \"poses_per_second\": %.0f}%s\n",
                   t, ms, flops / (ms * 1e6), 256.0 * 1000.0 / ms, ti + 1 < 3 ? "," : "");
      std::printf("gemm m256_k512_n256 @ %zu threads: %.3f ms (%.2f GFLOP/s)\n", t, ms,
                  flops / (ms * 1e6));
    }
    std::fprintf(out, "  ],\n");
  }

  // 3. Fusion scoring job throughput: threads x workload -> poses/sec
  //    through the real screening harness (batched 3D-CNN scorer).
  {
    core::Rng rng(5);
    const auto pocket = data::make_pocket({5.5f, 64, 0.7f, 0.5f, 0.1f}, rng);
    std::vector<screen::PoseWorkItem> items;
    const int n_poses = 256;
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
    serve::ModelRegistry registry;
    chem::VoxelConfig voxel;
    voxel.grid_dim = kGridDim;
    serve::add_regressor(registry, "cnn3d", [] {
      core::Rng mrng(9);
      return std::make_unique<models::Cnn3d>(bench_cnn3d_config(), mrng);
    }, voxel);
    std::fprintf(out, "  \"fusion_job\": [\n");
    const size_t thread_counts[] = {1, 2, 4};
    for (size_t ti = 0; ti < 3; ++ti) {
      const size_t t = thread_counts[ti];
      serve::ServiceConfig sc;
      sc.workers = static_cast<int>(t);
      serve::ScoringService service(registry, sc);
      screen::JobConfig jc;
      jc.nodes = 1;
      jc.gpus_per_node = static_cast<int>(t);
      const screen::JobReport r = screen::FusionScoringJob(jc).run(items, service, "cnn3d");
      std::fprintf(out,
                   "    {\"threads\": %zu, \"workload\": \"poses%d_batch%d_cnn3d\", "
                   "\"poses_per_second\": %.1f}%s\n",
                   t, n_poses, jc.poses_per_batch, r.poses_per_second, ti + 1 < 3 ? "," : "");
      std::printf("fusion job @ %zu threads: %.1f poses/s\n", t, r.poses_per_second);
    }
    std::fprintf(out, "  ]\n}\n");
  }

  std::fclose(out);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = df::bench::json_flag_path(argc, argv, "BENCH_speedup.json");
  if (!json_path.empty()) return emit_json(json_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
