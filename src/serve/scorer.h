// Scorer — the unit of model serving. A Scorer turns a micro-batch of
// docked poses into one score per pose; every backend the paper's pipeline
// compares (Fusion / SG-CNN / 3D-CNN nets, the published-baseline CNNs,
// Vina docking scores converted to pK, MM/GBSA rescoring) sits behind this
// one interface so the ScoringService can serve them all uniformly.
//
// A Scorer instance is a *replica*: it may carry mutable state (featurizer
// scratch, workspace arenas) and is only ever entered by one thread at a
// time. The service builds one replica per worker from a
// ModelRegistry factory; sharing a replica across threads is a bug, and
// RegressorScorer turns that bug into a thrown error instead of silent
// corruption.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "chem/cell_list.h"
#include "chem/graph_featurizer.h"
#include "chem/molecule.h"
#include "chem/voxelizer.h"
#include "compile/model_compiler.h"
#include "core/vec3.h"
#include "core/workspace.h"
#include "dock/mmgbsa.h"
#include "models/regressor.h"
#include "serve/pocket_cache.h"

namespace df::core {
class ThreadPool;
}  // namespace df::core

namespace df::serve {

/// One docked pose to score: a posed ligand conformer plus the (borrowed)
/// receptor pocket it was docked into. The pocket pointer must outlive the
/// request it rides in. Ownership is deliberately asymmetric: ligands are
/// small and per-pose, so the request owns a copy and stays valid however
/// long it queues; pockets are hundreds of atoms shared by thousands of
/// poses of the same target, so they are borrowed.
struct PoseInput {
  chem::Molecule ligand;
  const std::vector<chem::Atom>* pocket = nullptr;
  core::Vec3 site_center;
};

/// Stage-pipelined scoring executor: a bounded ring of micro-batch slots
/// through which featurization runs ahead of the forward pass. submit()
/// hands a batch to the featurize stage (blocking while depth() batches
/// are already in flight); collect() forwards and returns the oldest
/// in-flight batch. Batches come back strictly FIFO, and each batch's
/// result is bitwise identical to Scorer::score() on the same poses —
/// stage boundaries are fixed by batch index, never timing, so pipelining
/// changes when work happens but not what is computed.
class ScorerPipeline {
 public:
  virtual ~ScorerPipeline() = default;

  /// Maximum batches in flight (submitted, not yet collected).
  virtual int depth() const = 0;
  /// Batches currently in flight.
  virtual size_t in_flight() const = 0;
  /// Enqueue a micro-batch for featurization. Blocks while in_flight()
  /// == depth(). Single-submitter: one thread drives a pipeline.
  virtual void submit(std::vector<const PoseInput*> poses) = 0;
  /// Run the forward pass for the oldest in-flight batch and return its
  /// scores. Throws std::logic_error when nothing is in flight; rethrows
  /// the featurize stage's exception (e.g. a null pocket) if one occurred.
  virtual std::vector<float> collect() = 0;
};

class Scorer {
 public:
  virtual ~Scorer() = default;

  virtual std::string name() const = 0;

  /// Score a micro-batch, one result per pose in order. Called by exactly
  /// one thread at a time (the replica contract); the batch may mix poses
  /// from different clients.
  virtual std::vector<float> score(const std::vector<const PoseInput*>& poses) = 0;

  /// The replica's pipelined executor, or nullptr when the backend runs
  /// sequential-only (the default). Non-null after set_pipeline_depth(d)
  /// with d >= 1 on a backend that supports it.
  virtual ScorerPipeline* pipeline() { return nullptr; }
  /// Enable stage pipelining with up to `depth` batches in flight; depth
  /// <= 0 tears the pipeline down (sequential path). Must not be called
  /// with batches in flight. Backends without a pipelined path ignore it.
  virtual void set_pipeline_depth(int /*depth*/) {}
  /// Share a cross-request pocket cache with this replica (may be shared
  /// by many replicas; PocketCache is thread-safe). Backends that do not
  /// featurize ignore it.
  virtual void set_pocket_cache(std::shared_ptr<PocketCache> /*cache*/) {}
};

/// Throws std::logic_error when two threads enter the same replica
/// concurrently — the enforcement half of the replica contract above.
/// Zero cost beyond one relaxed atomic flip per batch.
class ReplicaGuard {
 public:
  explicit ReplicaGuard(std::atomic<bool>& busy);
  ~ReplicaGuard();
  ReplicaGuard(const ReplicaGuard&) = delete;
  ReplicaGuard& operator=(const ReplicaGuard&) = delete;

 private:
  std::atomic<bool>& busy_;
};

/// Neural-net backend: featurizes each pose (voxel grid + spatial graph)
/// and runs the model's batched eval path — the per-rank "featurize and
/// score" loop of paper Fig. 3, packaged as a replica.
///
/// Every batch, sequential or pipelined, runs the same two steps on a
/// micro-batch slot: featurize (each distinct (pocket, center) grid built
/// once, then per pose a ligand splat grafted onto it) and forward.
///
/// Serving hot path: all tensor scratch (featurizer outputs, every layer
/// temporary of the batched forward) is carved from per-replica
/// core::Workspace arenas that are rewound — not freed — between batches,
/// so a warmed replica scores with zero tensor heap allocations
/// (core::alloc_count() pins this in tests). The arenas are replica state:
/// one per featurize slot and one per forward lane, never shared across
/// workers.
class RegressorScorer : public Scorer {
 public:
  RegressorScorer(std::string name, std::unique_ptr<models::Regressor> model,
                  const chem::VoxelConfig& voxel, const chem::GraphFeaturizerConfig& graph);
  ~RegressorScorer() override;

  std::string name() const override { return name_; }
  /// Featurize and forward one batch through the replica's inline slot.
  std::vector<float> score(const std::vector<const PoseInput*>& poses) override;

  /// Stage-pipelined execution (see ScorerPipeline). The featurize stage
  /// runs on a one-thread pool per replica, and collect() runs the forward
  /// as pose sub-batches that the calling thread and the stage worker
  /// claim, so the stage worker scores poses of batch N whenever it is not
  /// featurizing. Each ring slot owns its own featurize arena and each
  /// forward lane its own arena, so steady state stays at zero tensor heap
  /// allocations at any depth. While batches are in flight, score() and
  /// the knob setters throw rather than race the stage worker.
  ScorerPipeline* pipeline() override;
  void set_pipeline_depth(int depth) override;
  void set_pocket_cache(std::shared_ptr<PocketCache> cache) override;

  /// Cumulative wall-time split of scoring on this replica — the
  /// featurize/forward phase breakdown reported by bench_service_throughput.
  /// Pipelined batches account at collect() time; returned by value because
  /// the replica updates it while other threads read it.
  struct PhaseStats {
    uint64_t batches = 0;
    uint64_t poses = 0;
    double featurize_seconds = 0.0;
    double forward_seconds = 0.0;
  };
  PhaseStats phase_stats() const;

  /// Steady-state arena high-water marks of the score() path. Measured on a
  /// warmed donor replica, they become the workspace budgets a compiled
  /// artifact carries (compile::save_compiled).
  compile::WorkspaceBudget workspace_capacities() const;
  /// Pre-grow the arenas to the given budgets so the replica's first score()
  /// call (and every one after) performs zero tensor heap allocations —
  /// the compiled-artifact cold-start path.
  void reserve_workspaces(const compile::WorkspaceBudget& budget);

 private:
  class Pipeline;

  /// One micro-batch on its way through featurize and forward: the inline
  /// slot behind score(), or one ring slot of the pipeline.
  struct Slot {
    /// A distinct (pocket, center) of the batch, its pocket grid and its
    /// crop CellList — a pinned cache entry's, or the slot's own.
    struct Site {
      const std::vector<chem::Atom>* pocket = nullptr;
      core::Vec3 center;
      const core::Tensor* grid = nullptr;
      const chem::CellList* crop_cells = nullptr;
    };
    std::vector<const PoseInput*> poses;
    std::vector<data::Sample> batch;
    std::vector<Site> sites;
    std::vector<core::Tensor> grids;  // arena pocket grids, no cache attached
    std::vector<chem::CellList> crop_lists;  // per site, no cache attached; reused
    std::vector<std::shared_ptr<const PocketCache::Entry>> cache_refs;
    core::Workspace ws;  // feature tensors live here until the forward
    std::exception_ptr error;
    double featurize_seconds = 0.0;
  };

  /// Featurize `s.poses` into `s.batch`, carving from `s.ws`. Never throws:
  /// a failure is parked in `s.error` for forward() to rethrow.
  void featurize(Slot& s);
  /// Forward `s.batch` and account the batch in phase_stats(); drops the
  /// slot's pose pointers and cache pins however it ends. The caller holds
  /// the replica guard. Without a helper the batch is one predict_batch in
  /// forward_ws_. With one, the caller (in forward_ws_) and a helper job (in
  /// `helper_ws`) claim pose sub-batches from one cursor under one
  /// parallel_for and run each through predict_batch, which concurrent
  /// eval forwards on one model allow (models/regressor.h).
  std::vector<float> forward(Slot& s, core::ThreadPool* helper = nullptr,
                             core::Workspace* helper_ws = nullptr);

  std::string name_;
  std::unique_ptr<models::Regressor> model_;
  chem::Voxelizer voxelizer_;
  chem::GraphFeaturizer featurizer_;
  std::atomic<bool> busy_{false};
  Slot inline_;                 // score()'s slot
  core::Workspace forward_ws_;  // the caller's forward lane, reset every forward
  std::shared_ptr<PocketCache> pocket_cache_;
  mutable std::mutex stats_mu_;
  PhaseStats stats_;
  // Last member: its stage worker touches everything above, so it must be
  // destroyed first.
  std::unique_ptr<Pipeline> pipeline_;
};

/// Empirical docking backend: Vina functional form converted to predicted
/// pK — the cheap end of the paper's three-way cost comparison.
class VinaPkScorer : public Scorer {
 public:
  explicit VinaPkScorer(dock::VinaWeights weights = {}) : weights_(weights) {}

  std::string name() const override { return "vina_pk"; }
  std::vector<float> score(const std::vector<const PoseInput*>& poses) override;

 private:
  dock::VinaWeights weights_;
};

/// Physics rescoring backend: single-point MM/GBSA per pose (kcal/mol,
/// negative = better). Orders of magnitude slower than the nets — it lives
/// under its own name so its poses never share (and thus stall) a Fusion
/// micro-batch; the batcher dispatches ready batches of other scorers
/// ahead of a partial MM/GBSA head. Worker time is still shared FIFO, so
/// give sustained heavy rescoring traffic its own service instance.
class MmGbsaScorer : public Scorer {
 public:
  explicit MmGbsaScorer(dock::MmGbsaConfig cfg = {}) : cfg_(cfg) {}

  std::string name() const override { return "mmgbsa"; }
  std::vector<float> score(const std::vector<const PoseInput*>& poses) override;

 private:
  dock::MmGbsaConfig cfg_;
};

}  // namespace df::serve
