#include "screen/job.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/rng.h"
#include "core/threadpool.h"
#include "io/log.h"
#include "screen/writer.h"
#include "serve/service.h"

namespace df::screen {

namespace {
double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}
}  // namespace

JobReport FusionScoringJob::run(const std::vector<PoseWorkItem>& items,
                                serve::ScoringService& service,
                                const std::string& scorer) const {
  JobReport report;
  const int ranks = cfg_.nodes * cfg_.gpus_per_node;
  core::Rng job_rng(cfg_.seed);

  // Failure injection: decide up-front which rank (if any) dies mid-eval.
  // A campaign-supplied verdict (doomed_rank) wins over local sampling.
  int doomed_rank = -1;
  if (cfg_.doomed_rank.has_value()) {
    doomed_rank = *cfg_.doomed_rank;
  } else if (cfg_.inject_failures && job_rng.bernoulli(job_failure_probability(cfg_.nodes))) {
    doomed_rank = static_cast<int>(job_rng.randint(0, ranks - 1));
  }

  // --- startup phase: make sure every service worker holds a replica of the
  // scorer (the paper's 20 minutes of module loading and model placement —
  // paid once per service, not once per job).
  auto t0 = std::chrono::steady_clock::now();
  service.warmup(scorer);
  report.startup_seconds = seconds_since(t0);

  // --- evaluation phase: each rank streams its contiguous slice to the
  // service and awaits the scores.
  t0 = std::chrono::steady_clock::now();
  struct RankOutput {
    std::vector<int64_t> compound, target, pose;
    std::vector<float> pred;
    bool died = false;
  };
  std::vector<RankOutput> per_rank(static_cast<size_t>(ranks));
  const auto run_rank = [&](int r) {
    RankOutput& out = per_rank[static_cast<size_t>(r)];
    // A doomed rank takes its whole share down with it — node failures don't
    // care how much work was assigned, and a failed job flushes nothing.
    if (r == doomed_rank) {
      out.died = true;
      return;
    }
    const size_t n = items.size();
    const size_t lo = n * static_cast<size_t>(r) / static_cast<size_t>(ranks);
    const size_t hi = n * static_cast<size_t>(r + 1) / static_cast<size_t>(ranks);
    if (lo == hi) return;
    serve::ScoreRequest req;
    req.scorer = scorer;
    req.poses.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      const PoseWorkItem& item = items[i];
      serve::PoseInput pose;
      pose.ligand = item.ligand;
      pose.pocket = item.pocket;
      pose.site_center = item.site_center;
      req.poses.push_back(std::move(pose));
      out.compound.push_back(item.compound_id);
      out.target.push_back(item.target_id);
      out.pose.push_back(item.pose_id);
    }
    serve::ScoreResponse resp = service.submit(std::move(req)).get();
    if (resp.error != serve::ScoreError::kNone) {
      throw std::runtime_error("scoring service error (" +
                               std::string(serve::score_error_name(resp.error)) +
                               ") for rank " + std::to_string(r) + ": " + resp.message);
    }
    out.pred = std::move(resp.scores);
  };
  if (cfg_.pool != nullptr) {
    // Shared pool: rank clients become pool jobs; a rank that throws
    // surfaces at the wait_idle join instead of taking the process down.
    // Ranks block on service futures, but service workers are independent
    // threads, so a full pool still makes progress.
    for (int r = 0; r < ranks; ++r) cfg_.pool->submit([&run_rank, r] { run_rank(r); });
    cfg_.pool->wait_idle();
  } else {
    // Raw threads: capture the first rank exception and rethrow at the
    // join, mirroring the pool path — an uncaught throw in a std::thread
    // would terminate the process.
    std::mutex error_mu;
    std::exception_ptr first_error;
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(ranks));
    for (int r = 0; r < ranks; ++r) {
      threads.emplace_back([&run_rank, &error_mu, &first_error, r] {
        try {
          run_rank(r);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (first_error) std::rethrow_exception(first_error);
  }
  report.eval_seconds = seconds_since(t0);

  for (int r = 0; r < ranks; ++r) {
    if (per_rank[static_cast<size_t>(r)].died) {
      report.failed = true;
      report.failed_rank = r;
      io::log_warn("fusion job failed at rank " + std::to_string(r) + " (" +
                   std::to_string(cfg_.nodes) + " nodes)");
      return report;  // no output on failure — results only flush at the end
    }
  }

  // --- allgather: concatenate per-rank results (MPI allgather analogue).
  t0 = std::chrono::steady_clock::now();
  for (const RankOutput& out : per_rank) {
    report.compound_ids.insert(report.compound_ids.end(), out.compound.begin(), out.compound.end());
    report.target_ids.insert(report.target_ids.end(), out.target.begin(), out.target.end());
    report.pose_ids.insert(report.pose_ids.end(), out.pose.begin(), out.pose.end());
    report.predictions.insert(report.predictions.end(), out.pred.begin(), out.pred.end());
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
