// Ahead-of-time model compiler (ROADMAP item 2).
//
// A serving replica's model never trains again: every eval forward repeats
// work that can be done once at load. ModelCompiler rewrites a Regressor in
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
//     it and fuses into one GEMM epilogue.
//   * Eval-program compilation — every Sequential precomputes its fused
//     dispatch once (nn::Sequential::compile_eval), replacing the per-call
//     dynamic_cast scan.
//   * Weight prepacking — every Dense/Conv3d packs its weight into the GEMM
//     panel image once (core::pack_a_full / pack_b_full) so steady-state
//     sgemm calls skip pack_a/pack_b. Bitwise identical on every dispatch
//     path (core::sgemm_prepacked).
//   * Conv-plan prewarming — the 3D-CNN trunk's lowering tables are
//     built for the model's voxel geometry ahead of the first request.
//
// The compiled model is eval-only: training after compile() would update
// weights underneath stale packed images (the training path itself is
// unaffected — prepacked GEMMs are bypassed while training — but the next
// eval would read the stale pack). save_compiled/load_compiled serialize
// the compiled form — folded weights, packed panel images, workspace
// high-water budgets — into the mmap-friendly artifact of
// io/model_artifact.h so replicas cold-start without the h5/init path and
// point their GEMM views straight into the shared file mapping.
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
/// Everything the artifact stores positionally ("param/<i>", "pack/...<i>",
/// "quant/...<i>") depends on save and load walking the model in this
/// order, and the quantization pass (src/quant/) uses the same order so its
/// per-layer state lands on the same indices.
struct StructureWalk {
  std::vector<nn::Sequential*> seqs;  // top-level Sequentials, canonical order
  std::vector<nn::Dense*> dense;      // GEMM layers, canonical order
  std::vector<nn::Conv3d*> conv;
};

/// Walk `model`; throws std::invalid_argument for unsupported model types.
StructureWalk walk_structure(models::Regressor& model);

struct CompileOptions {
  bool fold_batch_norm = true;
  bool strip_dropout = true;
  bool compile_eval_programs = true;
  bool prepack_weights = true;
  bool warm_conv_plans = true;
};

struct CompileReport {
  int folded_batch_norms = 0;
  int stripped_dropouts = 0;
  int prepacked_dense = 0;
  int prepacked_conv = 0;
};

class ModelCompiler {
 public:
  explicit ModelCompiler(CompileOptions opts = {}) : opts_(opts) {}

  /// Rewrite `model` into its serving form (see file comment). Idempotent:
  /// compiling an already-compiled model only refreshes the packed images.
  /// The model is switched to eval mode and must stay there.
  CompileReport compile(models::Regressor& model) const;

  const CompileOptions& options() const { return opts_; }

 private:
  CompileOptions opts_;
};

/// Steady-state arena budgets measured on a warmed donor replica
/// (serve::RegressorScorer::workspace_capacities); a replica restored from
/// the artifact pre-grows its arenas to these sizes and never allocates
/// again (core::Workspace::reserve).
struct WorkspaceBudget {
  int64_t forward_floats = 0;
  int64_t feat_floats = 0;  // per featurize lane
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
/// training entry points throw) and keeps the underlying file mapping alive
/// for as long as it lives — packed weight views point into it.
struct CompiledModel {
  std::shared_ptr<io::ArtifactReader> image;
  std::unique_ptr<models::Regressor> model;
  ModelFamily family = ModelFamily::kCnn3d;
  int64_t poses_per_batch = 0;
  WorkspaceBudget budget;
  /// Featurization contract the model expects; artifacts written before the
  /// section existed load as 1 (the historical feature set).
  int64_t feature_set_version = 1;
};

/// Restore from an already-open artifact (replicas share one mapping).
CompiledModel load_compiled(std::shared_ptr<io::ArtifactReader> image);
/// Convenience: open + restore.
CompiledModel load_compiled(const std::string& path);

}  // namespace df::compile
