// End-to-end screening campaign (paper §4-§5): a compound library is docked
// against the four SARS-CoV-2 sites with the ConveyorLC-equivalent
// pipeline, docked poses are scored through the shared serve::ScoringService
// in fault-tolerant jobs (failed jobs are resubmitted — "another job takes
// its place"), and
// per-compound predictions are aggregated by the paper's rule: the
// strongest prediction across poses per binding site (max for Fusion, min
// for Vina/MM-GBSA). The assay simulator then produces the experimental
// percent-inhibition values used by Figures 5/6 and Table 8.
//
// The driver is a RankPlan walk: the pose list is partitioned into work
// units keyed by stable ids, every stochastic decision (fault injection,
// assay noise) derives from (seed, stable id), doomed attempts are
// bookkept without scoring, finished units stream to per-rank CRC-framed
// shards, and a compact checkpoint written every K completed jobs makes
// the campaign killable at any instant and resumable to the bit-identical
// report.
#pragma once

#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "data/assay.h"
#include "data/compound_library.h"
#include "data/target.h"
#include "dock/conveyorlc.h"
#include "dock/mmgbsa.h"
#include "screen/cluster.h"
#include "screen/job.h"

namespace df::serve {
class ScoringService;
}

namespace df::screen {

class ClusterController;

struct CompoundScreenResult {
  std::string compound_id;
  int target_index = 0;                 // into the campaign's target list
  float fusion_pk = 0;                  // max over poses
  float vina_score = 0;                 // min over poses (more negative = better)
  float mmgbsa_score = 0;               // min over rescored poses
  float ampl_mmgbsa_score = 0;          // AMPL surrogate, min over poses
  float true_pk = 0;                    // hidden oracle at the best pose
  float percent_inhibition = 0;         // simulated assay readout
  int poses = 0;
};

struct CampaignConfig {
  JobConfig job;                         // fusion scoring job shape; its output_prefix
                                         // must stay empty (see output_prefix below)
  dock::PipelineConfig pipeline;         // docking settings
  int poses_per_job = 512;               // paper: 2M; scaled
  data::AssayConfig assay;
  int max_job_retries = 4;
  int threads = 0;                       // compat overload's service workers; 0 = hw
  uint64_t seed = 2021;

  // --- multi-rank / fault-tolerance layer ---
  FaultInjector* fault_injector = nullptr;  // not owned; nullptr + job.inject_failures
                                            // = default §4.3 stochastic injector
  std::string output_prefix;             // non-empty = stream finished units to
                                         // <prefix>.rankN.dfsh shards + manifest
  std::string checkpoint_path;           // non-empty = checkpoint/resume enabled
                                         // (requires output_prefix)
  int checkpoint_every_jobs = 4;         // K completed units per checkpoint

  // --- deterministic kill harness (tests / examples) ---
  int64_t kill_after_attempts = -1;      // >=0: throw CampaignKilled once this
                                         // many job attempts ran in this process
  bool kill_mid_write = false;           // tear the last shard block first, as
                                         // if the process died mid-append
};

struct CampaignReport {
  std::vector<CompoundScreenResult> results;
  int jobs_run = 0;
  int jobs_failed = 0;
  int compounds_rejected = 0;            // ligand-prep rejections
  double docking_seconds = 0;
  double mmgbsa_seconds = 0;
  double fusion_seconds = 0;
  int poses_generated = 0;
  // --- fault-tolerance layer ---
  int units_total = 0;
  int units_resumed = 0;                 // recovered from checkpoint + shards
  int units_exhausted = 0;               // every retry failed
  int checkpoints_written = 0;
  std::vector<std::string> shard_files;
};

/// Thrown by the kill harness to simulate the driver process dying; on-disk
/// checkpoint and shards stay behind for the next run to resume from.
struct CampaignKilled : std::runtime_error {
  explicit CampaignKilled(const std::string& msg) : std::runtime_error(msg) {}
};

class ScreeningCampaign {
 public:
  ScreeningCampaign(CampaignConfig cfg, std::vector<data::Target> targets)
      : cfg_(std::move(cfg)), targets_(std::move(targets)) {}

  /// Screen `compounds` against every target, scoring poses through
  /// `service` with the named scorer — the campaign is one client among
  /// possibly many of a shared ScoringService: each unit's first clean
  /// attempt runs as one FusionScoringJob, and doomed attempts are bookkept
  /// without scoring. A clean attempt that fails with a typed service error
  /// (a throwing scorer, say) is a failed job, as a failed verdict is on
  /// the cluster path: the unit retries on its next clean attempt and is
  /// exhausted after max_job_retries. Only kShutdown ends the run, as a
  /// ScoringJobError. The AMPL surrogate is fitted per target on the
  /// MM/GBSA-rescored poses encountered during the run. Every overload
  /// throws std::invalid_argument before docking when job.nodes or
  /// job.gpus_per_node is below 1.
  /// If `checkpoint_path` names an existing checkpoint, the campaign
  /// resumes: completed units are recovered from the shards, everything
  /// else re-runs on its original RNG streams, and the returned report is
  /// bit-identical to an uninterrupted run (timing fields aside).
  ///
  /// Determinism contract: those bit-identical guarantees (and the
  /// determinism/resume pins of PR 2) additionally require the service to
  /// run in ordered-stream mode with a deterministic scorer factory; a
  /// non-ordered service is accepted but logged, and reports may then vary
  /// at the floating-point-bit level with batching.
  CampaignReport run(const std::vector<data::LibraryCompound>& compounds,
                     serve::ScoringService& service, const std::string& scorer);

  /// Compatibility path for ModelFactory-era callers: registers
  /// `make_model` as the one scorer of a private, ordered-stream
  /// ScoringService (workers = `threads`, micro-batch = job.poses_per_batch,
  /// featurization from job.voxel/job.graph) and runs through it.
  CampaignReport run(const std::vector<data::LibraryCompound>& compounds,
                     const ModelFactory& make_model);

  /// Multi-node path: score work units over `cluster`'s registered
  /// ScoreServer nodes instead of an in-process service. Nodes must be
  /// registered (and collectively healthy enough to make progress) before
  /// the call. The logical fault schedule (the configured FaultInjector) is
  /// resolved locally — doomed attempts are bookkept without scoring — and
  /// physical node deaths re-dispatch units without touching the attempt
  /// cursor, so with ordered-stream nodes and deterministic scorers the
  /// report is bit-identical to the in-process run of the same campaign
  /// (timing fields aside), no matter how many nodes die mid-run.
  ///
  /// If the run aborts (CampaignKilled from the kill harness, any other
  /// exception), `cluster` is stopped before the exception escapes — its
  /// in-flight poses borrow this campaign's pocket storage. Resume with a
  /// fresh controller over the same (still-running) nodes.
  CampaignReport run(const std::vector<data::LibraryCompound>& compounds,
                     ClusterController& cluster);

  const std::vector<data::Target>& targets() const { return targets_; }

 private:
  CampaignReport run_impl(const std::vector<data::LibraryCompound>& compounds,
                          serve::ScoringService* service, const std::string& scorer,
                          ClusterController* cluster);

  CampaignConfig cfg_;
  std::vector<data::Target> targets_;
};

}  // namespace df::screen
