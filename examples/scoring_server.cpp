// Standalone serving demo: one ScoringService, many concurrent clients,
// several named backends — the paper's Fig. 3 "many producers feed the
// scorer" shape without a campaign anywhere in sight.
//
//   * clients stream small pose requests at different scorers concurrently;
//   * the dynamic micro-batcher coalesces same-scorer requests across
//     clients (watch coalesced_batches in the stats);
//   * a deliberately unknown scorer name shows the typed error path;
//   * a tiny queue capacity shows backpressure: submit() blocks until the
//     workers free space, and every request still completes.
//
// Build & run:  ./build/scoring_server
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "chem/conformer.h"
#include "data/target.h"
#include "examples_common.h"

using namespace df;

namespace {

std::vector<serve::PoseInput> random_poses(int n, const std::vector<chem::Atom>* pocket,
                                           core::Rng& rng) {
  std::vector<serve::PoseInput> poses;
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

}  // namespace

int main() {
  core::Rng rng(11);
  const auto pocket = data::make_pocket({5.5f, 48, 0.7f, 0.5f, 0.1f}, rng);

  // Every backend family behind one registry: physics scorers plus the
  // untrained reference nets (see serve::default_registry).
  chem::VoxelConfig voxel;
  voxel.grid_dim = 8;
  const serve::ModelRegistry registry = serve::default_registry(voxel);
  std::printf("registry: ");
  for (const auto& name : registry.names()) std::printf("%s ", name.c_str());
  std::printf("\n");

  serve::ServiceConfig sc;
  sc.workers = 2;
  sc.poses_per_batch = 8;
  sc.queue_capacity = 24;      // small on purpose: shows backpressure
  sc.flush_deadline_ms = 2.0;  // let concurrent clients share batches
  serve::ScoringService service(registry, sc);
  std::printf("service: %d workers, batch %d, queue %zu poses\n\n", service.workers(),
              sc.poses_per_batch, sc.queue_capacity);

  // --- many clients, mixed backends, all concurrent ---
  struct ClientPlan {
    const char* name;
    const char* scorer;
    int requests;
    int poses_per_request;
  };
  const ClientPlan plans[] = {
      {"screener-A", "sgcnn", 6, 4},
      {"screener-B", "sgcnn", 6, 4},     // same backend: coalesces with A
      {"cnn-client", "cnn3d", 4, 4},
      {"docker", "vina_pk", 3, 8},
      {"rescorer", "mmgbsa", 1, 2},      // heavyweight physics, tiny request
  };
  std::vector<std::thread> clients;
  std::mutex print_mu;
  for (size_t ci = 0; ci < std::size(plans); ++ci) {
    const ClientPlan& plan = plans[ci];
    clients.emplace_back([&, plan, ci] {
      core::Rng crng(core::derive_stream(11, 0x434C49454E54ULL, ci));  // "CLIENT"
      std::vector<std::future<serve::ScoreResponse>> futures;
      for (int r = 0; r < plan.requests; ++r) {
        serve::ScoreRequest req;
        req.scorer = plan.scorer;
        req.poses = random_poses(plan.poses_per_request, &pocket, crng);
        futures.push_back(service.submit(std::move(req)));
      }
      int poses = 0, batches = 0;
      bool coalesced = false;
      float first = 0;
      for (size_t i = 0; i < futures.size(); ++i) {
        const serve::ScoreResponse resp = futures[i].get();
        if (resp.error != serve::ScoreError::kNone) {
          std::lock_guard<std::mutex> lock(print_mu);
          std::printf("%-10s ERROR %s: %s\n", plan.name, serve::score_error_name(resp.error),
                      resp.message.c_str());
          return;
        }
        if (i == 0) first = resp.scores[0];
        poses += static_cast<int>(resp.scores.size());
        batches += resp.micro_batches;
        coalesced = coalesced || resp.coalesced;
      }
      std::lock_guard<std::mutex> lock(print_mu);
      std::printf("%-10s scored %2d poses with %-8s in %d micro-batches%s (first score %+.2f)\n",
                  plan.name, poses, plan.scorer, batches,
                  coalesced ? ", coalesced with other requests" : "", first);
    });
  }
  for (auto& t : clients) t.join();

  // --- typed errors instead of exceptions ---
  serve::ScoreRequest bad;
  bad.scorer = "alphafold42";
  bad.poses = random_poses(1, &pocket, rng);
  const serve::ScoreResponse err = service.score(std::move(bad));
  std::printf("\nunknown backend -> typed error %s: %s\n", serve::score_error_name(err.error),
              err.message.c_str());

  const serve::ServiceStats stats = service.stats();
  std::printf("\nservice stats: %llu requests, %llu poses, %llu batches "
              "(%llu full, %llu coalesced), %llu replicas, peak queue %zu poses\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.poses),
              static_cast<unsigned long long>(stats.batches),
              static_cast<unsigned long long>(stats.full_batches),
              static_cast<unsigned long long>(stats.coalesced_batches),
              static_cast<unsigned long long>(stats.replicas_built),
              stats.peak_queued_poses);
  return 0;
}
