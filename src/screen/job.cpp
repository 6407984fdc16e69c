#include "screen/job.h"

#include <chrono>
#include <future>
#include <stdexcept>

#include "core/rng.h"
#include "io/log.h"
#include "screen/writer.h"
#include "serve/service.h"

namespace df::screen {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
}  // namespace

FusionScoringJob::FusionScoringJob(JobConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.nodes < 1 || cfg_.gpus_per_node < 1) {
    throw std::invalid_argument("FusionScoringJob: nodes and gpus_per_node must be >= 1, got " +
                                std::to_string(cfg_.nodes) + " x " +
                                std::to_string(cfg_.gpus_per_node));
  }
}

JobReport FusionScoringJob::run(std::span<const PoseWorkItem> items,
                                serve::ScoringService& service,
                                const std::string& scorer) const {
  JobReport report;
  const int ranks = cfg_.nodes * cfg_.gpus_per_node;

  // --- startup phase: make sure every service worker holds a replica of the
  // scorer (the paper's 20 minutes of module loading and model placement —
  // paid once per service, not once per job).
  auto t0 = std::chrono::steady_clock::now();
  service.warmup(scorer);
  report.startup_seconds = seconds_since(t0);

  // Failure injection: a doomed rank takes the whole job down with it, and a
  // failed job flushes nothing, so nothing is scored.
  core::Rng job_rng(cfg_.seed);
  if (cfg_.inject_failures && job_rng.bernoulli(job_failure_probability(cfg_.nodes))) {
    report.failed = true;
    report.failed_rank = static_cast<int>(job_rng.randint(0, ranks - 1));
    io::log_warn("fusion job failed at rank " + std::to_string(report.failed_rank) + " (" +
                 std::to_string(cfg_.nodes) + " nodes)");
    return report;
  }

  // --- evaluation phase: each rank submits its contiguous slice as one
  // request; the service's workers score them concurrently.
  t0 = std::chrono::steady_clock::now();
  const size_t n = items.size();
  std::vector<std::future<serve::ScoreResponse>> futures(static_cast<size_t>(ranks));
  try {
    for (int r = 0; r < ranks; ++r) {
      const size_t lo = n * static_cast<size_t>(r) / static_cast<size_t>(ranks);
      const size_t hi = n * static_cast<size_t>(r + 1) / static_cast<size_t>(ranks);
      if (lo == hi) continue;
      serve::ScoreRequest req;
      req.scorer = scorer;
      req.poses.reserve(hi - lo);
      for (size_t i = lo; i < hi; ++i) {
        serve::PoseInput pose;
        pose.ligand = items[i].ligand;
        pose.pocket = items[i].pocket;
        pose.site_center = items[i].site_center;
        req.poses.push_back(std::move(pose));
      }
      futures[static_cast<size_t>(r)] = service.submit(std::move(req));
    }
  } catch (...) {
    // The submitted requests borrow the items' pockets until they resolve.
    for (auto& f : futures) {
      if (f.valid()) f.wait();
    }
    throw;
  }
  // Await every rank before throwing the first typed error, for the same
  // reason. Rank slices are contiguous, so rank order is item order.
  serve::ScoreError error = serve::ScoreError::kNone;
  std::string message;
  for (int r = 0; r < ranks; ++r) {
    std::future<serve::ScoreResponse>& f = futures[static_cast<size_t>(r)];
    if (!f.valid()) continue;
    const serve::ScoreResponse resp = f.get();
    if (resp.error != serve::ScoreError::kNone && error == serve::ScoreError::kNone) {
      error = resp.error;
      message = "scoring service error (" + std::string(serve::score_error_name(resp.error)) +
                ") for rank " + std::to_string(r) + ": " + resp.message;
    }
    report.predictions.insert(report.predictions.end(), resp.scores.begin(), resp.scores.end());
  }
  if (error != serve::ScoreError::kNone) throw ScoringJobError(error, message);
  report.eval_seconds = seconds_since(t0);

  // --- allgather (MPI allgather analogue): the ids are the items' own.
  t0 = std::chrono::steady_clock::now();
  for (const PoseWorkItem& item : items) {
    report.compound_ids.push_back(item.compound_id);
    report.target_ids.push_back(item.target_id);
    report.pose_ids.push_back(item.pose_id);
  }
  report.poses_scored = static_cast<int>(report.predictions.size());

  // --- output phase: shard across ranks and write in parallel.
  if (!cfg_.output_prefix.empty()) {
    report.output_files = write_sharded_results(cfg_.output_prefix, ranks, report.compound_ids,
                                                report.target_ids, report.pose_ids,
                                                report.predictions);
  }
  report.output_seconds = seconds_since(t0);
  report.poses_per_second = report.eval_seconds > 0
                                ? static_cast<double>(report.poses_scored) / report.eval_seconds
                                : 0.0;
  return report;
}

}  // namespace df::screen
