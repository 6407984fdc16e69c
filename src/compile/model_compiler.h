// Ahead-of-time model compiler (ROADMAP item 2).
//
// A serving replica's model never trains again: every eval forward repeats
// work that can be done once at load. compile_model rewrites a Regressor in
// place into its executable serving form:
//
//   * BatchNorm folding — a BatchNorm3d directly after a Conv3d (the one
//     kind of BatchNorm a model builds) has its running statistics absorbed
//     into that conv's weights and bias, and leaves the layer chain. Folded
//     eval matches the unfused path within documented fp tolerance
//     (reassociation of the per-element multiply chain). A BatchNorm
//     anywhere else stays unfolded, and save_compiled refuses the model.
//   * Dropout stripping — eval-mode Dropout is the identity, so the layers
//     are removed. This also extends fusion chains: a Dense/Conv3d whose
//     activation used to sit behind a Dropout becomes directly adjacent to
//     it, and the Sequential's eval program fuses them into one GEMM.
//   * Conv-plan prewarming — the 3D-CNN trunk's Conv3d lowerings (the
//     per-geometry row and tap offsets) are built for the model's voxel
//     geometry ahead of the first request.
//
// Dense and Conv3d multiply from their own parameters, compiled or not, so
// a compiled model scores bitwise like its uncompiled, folded donor. It is
// eval-only all the same: a folded, dropout-stripped model must not train.
// save_compiled/load_compiled serialize the compiled form — family, config,
// folded parameters, workspace high-water budgets and the feature-set
// version — into the container of io/model_artifact.h, so replicas cold-start
// without the checkpoint/init path. The container's version covers only its
// byte layout; the compiled sections are versioned by kCompiledSchema,
// stored as "compile/schema".
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "io/model_artifact.h"
#include "models/regressor.h"

namespace df::compile {

/// Bump on any change to the sections save_compiled writes or how
/// load_compiled reads them. A reader only accepts its own schema: compiled
/// artifacts are caches derived from checkpoints, so the recovery path for
/// a mismatch is recompile, never in-place migration.
/// 3: one section group per GEMM layer ("dense/<i>/...", "conv/<i>/...")
///    holding its serving handle verbatim.
/// 4: a Conv3d fp32 handle is the Wᵀ row image of its indirect-GEMM
///    forward instead of BLIS A panels.
/// 5: an int8 group no longer carries the calibrated activation step
///    ("dense/<i>/act"), and no Conv3d group is int8.
/// Later removals kept 5, since no remaining section changed meaning. Int8
/// groups went first: an artifact that still holds int8 sections fails
/// io::ArtifactReader::open on their dtype (io::H5LiteError Format). Then
/// "poses_per_batch" and the fp32 handle groups ("dense/count",
/// "conv/count", "dense/<i>/*", "conv/<i>/*") went: the reader reads a
/// subset of what older schema-5 writers wrote, so their artifacts still
/// load, the extra sections ignored, and score bitwise the same. An older
/// reader refuses a new artifact as Format on the first of those sections
/// it misses.
constexpr int64_t kCompiledSchema = 5;

/// The four servable model families an artifact can carry.
enum class ModelFamily : int64_t {
  kCnn3d = 0,
  kSgcnn = 1,
  kFusion = 2,      // Mid-level / Coherent (same wiring)
  kLateFusion = 3,
};

/// Identify a Regressor's family; throws std::invalid_argument for model
/// types the compiler does not understand.
ModelFamily family_of(models::Regressor& model);

struct CompileReport {
  int folded_batch_norms = 0;
  int stripped_dropouts = 0;
};

/// Rewrite `model` into its serving form (see file comment). Idempotent:
/// compiling an already-compiled model changes nothing. The model is
/// switched to eval mode and must stay there.
CompileReport compile_model(models::Regressor& model);

/// Steady-state arena budgets measured on a warmed donor replica
/// (serve::RegressorScorer::workspace_capacities); a replica restored from
/// the artifact pre-grows its arenas to these sizes and never allocates
/// again (core::Workspace::reserve).
struct WorkspaceBudget {
  int64_t forward_floats = 0;
  int64_t feat_floats = 0;  // the score() slot's featurize arena
};

/// Compile `model` (in place) and serialize its compiled form. Throws
/// std::invalid_argument, before touching the model, for a negative
/// workspace budget or a `feature_set_version` below 1, and if any
/// BatchNorm survives folding — the artifact has no carrier for running
/// statistics, by design.
/// `feature_set_version` records the featurization contract the model was
/// trained against (chem/graph_featurizer.h); serving validates it against
/// the replica's featurizer configs (serve/registry.h) so a model never
/// silently scores features it has never seen.
void save_compiled(models::Regressor& model, const std::string& path,
                   WorkspaceBudget budget = {}, int64_t feature_set_version = 1);

/// A model restored from a compiled artifact. `model` is eval-only (its
/// training entry points throw) and owns copies of its parameters, so the
/// artifact's mapping may close once load_compiled returns.
struct CompiledModel {
  std::unique_ptr<models::Regressor> model;
  ModelFamily family = ModelFamily::kCnn3d;
  WorkspaceBudget budget;
  /// Featurization contract the model expects.
  int64_t feature_set_version = 1;
};

/// Restore from an already-open artifact (replicas share one mapping).
/// Throws io::H5LiteError{Format} — with a "recompile" hint — unless the
/// artifact holds "compile/schema" == kCompiledSchema, when a workspace
/// budget ("ws/forward", "ws/feat") is negative or larger than any
/// allocation can hold (PTRDIFF_MAX bytes), and when its family,
/// config or parameters do not fit the model it rebuilds.
CompiledModel load_compiled(std::shared_ptr<io::ArtifactReader> image);
/// Convenience: open + restore.
CompiledModel load_compiled(const std::string& path);

}  // namespace df::compile
