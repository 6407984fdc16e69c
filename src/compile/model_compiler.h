// Ahead-of-time model compiler (ROADMAP item 2).
//
// A serving replica's model never trains again: every eval forward repeats
// work that can be done once at load. compile_model rewrites a Regressor in
// place into its executable serving form:
//
//   * BatchNorm folding — BatchNorm1d/3d running statistics are absorbed
//     into the adjacent Dense/Conv3d weights (both directions; the
//     BN-before-conv case only when the conv has no padding, since zero
//     padding breaks the affine-shift identity). Folded eval matches the
//     unfused path within documented fp tolerance (reassociation of the
//     per-element multiply chain); it is exact where no reassociation
//     occurs. The BN layer leaves the layer chain entirely.
//   * Dropout stripping — eval-mode Dropout is the identity, so the layers
//     are removed. This also extends fusion chains: a Dense/Conv3d whose
//     activation used to sit behind a Dropout becomes directly adjacent to
//     it, and the Sequential's eval program fuses them into one GEMM.
//   * Weight prepacking — every Dense/Conv3d that is not int8 gets the fp32
//     serving handle its own packed_f32() produces (nn/eval_weights.h):
//     Dense's B panels, which steady-state sgemm calls stream instead of
//     packing (core::sgemm_prepacked), and Conv3d's Wᵀ image, which its
//     forward would otherwise pack per call. Bitwise identical either way.
//   * Conv-plan prewarming — the 3D-CNN trunk's Conv3d lowerings (the
//     per-geometry row and tap offsets) are built for the model's voxel
//     geometry ahead of the first request.
//
// The compiled model is eval-only: training after compilation would update
// weights underneath stale packed images (the training path itself is
// unaffected — training forwards ignore the handles — but the next eval
// would read the stale pack). save_compiled/load_compiled serialize the
// compiled form — folded weights, each GEMM layer's serving handle verbatim,
// workspace high-water budgets — into the mmap-friendly container of
// io/model_artifact.h, so replicas cold-start without the checkpoint/init
// path and their handles point straight into the shared file mapping. The
// container's version covers only its byte layout; the compiled sections
// are versioned by kCompiledSchema, stored as "compile/schema".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/model_artifact.h"
#include "models/regressor.h"

namespace df::nn {
class Sequential;
class Dense;
class Conv3d;
}  // namespace df::nn

namespace df::compile {

/// Bump on any change to the sections save_compiled writes or how
/// load_compiled reads them. A reader only accepts its own schema: compiled
/// artifacts are caches derived from checkpoints, so the recovery path for
/// a mismatch is recompile, never in-place migration.
/// 3: one section group per GEMM layer ("dense/<i>/...", "conv/<i>/...")
///    holding its serving handle verbatim.
/// 4: a Conv3d fp32 handle is the Wᵀ row image of its indirect-GEMM
///    forward instead of BLIS A panels.
constexpr int64_t kCompiledSchema = 4;

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

/// The canonical structure walk: fixed per family, independent of config
/// flags, recursive left-to-right through Sequentials and Residual inners.
/// Everything the artifact stores positionally ("param/<i>", "dense/<i>/...",
/// "conv/<i>/...") depends on save and load walking the model in this
/// order; the calibrator (src/quant/) reports its ranges in it too.
struct StructureWalk {
  std::vector<nn::Sequential*> seqs;  // top-level Sequentials, canonical order
  std::vector<nn::Dense*> dense;      // GEMM layers, canonical order
  std::vector<nn::Conv3d*> conv;
};

/// Walk `model`; throws std::invalid_argument for unsupported model types.
StructureWalk walk_structure(models::Regressor& model);

struct CompileReport {
  int folded_batch_norms = 0;
  int stripped_dropouts = 0;
  int prepacked_dense = 0;  // layers given an fp32 handle (int8 ones keep theirs)
  int prepacked_conv = 0;
};

/// Rewrite `model` into its serving form (see file comment). Idempotent:
/// compiling an already-compiled model only refreshes the fp32 handles, and
/// int8 handles stay. The model is switched to eval mode and must stay there.
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
/// std::invalid_argument if any BatchNorm survives folding — the artifact
/// has no carrier for running statistics, by design.
/// `feature_set_version` records the featurization contract the model was
/// trained against (chem/graph_featurizer.h); serving validates it against
/// the replica's featurizer configs (serve/registry.h) so a model never
/// silently scores features it has never seen.
void save_compiled(models::Regressor& model, const std::string& path,
                   int64_t poses_per_batch = 0, WorkspaceBudget budget = {},
                   int64_t feature_set_version = 1);

/// A model restored from a compiled artifact. `model` is eval-only (its
/// training entry points throw); its layers' serving handles point into the
/// file mapping and keep it alive for as long as they live.
struct CompiledModel {
  std::unique_ptr<models::Regressor> model;
  ModelFamily family = ModelFamily::kCnn3d;
  int64_t poses_per_batch = 0;
  WorkspaceBudget budget;
  /// Featurization contract the model expects.
  int64_t feature_set_version = 1;
};

/// Restore from an already-open artifact (replicas share one mapping).
/// Throws io::H5LiteError{Format} with a "recompile" hint when the artifact
/// lacks "compile/schema" or holds another schema than kCompiledSchema.
CompiledModel load_compiled(std::shared_ptr<io::ArtifactReader> image);
/// Convenience: open + restore.
CompiledModel load_compiled(const std::string& path);

}  // namespace df::compile
