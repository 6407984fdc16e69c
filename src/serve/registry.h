// ModelRegistry — named, factory-registered scoring backends. Replaces the
// ad-hoc screen::ModelFactory wiring: instead of every workload hand-plumbing
// a featurizer + Regressor, backends register once under a stable name and
// any client (campaign job, example, bench, test) asks the ScoringService
// for "that scorer" by name.
//
// Factories are invoked once per service worker to mint private replicas
// (models/regressor.h replica contract), so they must be deterministic and
// callable from any thread; the service serializes the calls.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/scorer.h"

namespace df::serve {

using ScorerFactory = std::function<std::unique_ptr<Scorer>()>;

class ModelRegistry {
 public:
  ModelRegistry() = default;
  /// Movable so builders like default_registry can return by value; do not
  /// move a registry other threads are reading.
  ModelRegistry(ModelRegistry&& other) noexcept;
  ModelRegistry& operator=(ModelRegistry&&) = delete;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Register a backend under `name`. Throws std::invalid_argument if the
  /// name is already taken — shadowing a live scorer silently is how two
  /// clients end up scoring with different models under one name.
  void add(const std::string& name, ScorerFactory factory);

  bool contains(const std::string& name) const;
  size_t size() const;
  /// Registered names, sorted.
  std::vector<std::string> names() const;

  /// Mint a fresh replica. Throws std::out_of_range for unknown names (the
  /// service catches this shape at submit() and returns a typed error
  /// instead).
  std::unique_ptr<Scorer> make(const std::string& name) const;

  /// Copy of the factory table; the ScoringService snapshots the registry at
  /// construction so later registrations cannot change a live service.
  std::map<std::string, ScorerFactory> snapshot() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, ScorerFactory> factories_;
};

/// Register a Regressor-backed scorer: `make_model` plus the featurizer
/// configs become a RegressorScorer factory. This is the one-line migration
/// path from the old screen::ModelFactory. Replicas are minted sequential;
/// the ScoringService that builds them applies its own pipeline depth and
/// pocket cache (ServiceConfig).
void add_regressor(ModelRegistry& registry, const std::string& name,
                   models::RegressorFactory make_model, const chem::VoxelConfig& voxel,
                   const chem::GraphFeaturizerConfig& graph = {});

/// Register a scorer served from a compiled-model artifact
/// (compile::save_compiled). The artifact is opened and validated once,
/// eagerly — a missing or damaged file fails registration, not the first
/// request — and the mapping is shared by every replica the factory mints:
/// each replica rebuilds its own (private) layer caches but reads weights
/// and packed GEMM panels straight from the common mmap. Replicas pre-grow
/// their workspace arenas to the budgets recorded in the artifact, so the
/// cold-start path skips h5 parsing, weight packing, conv-plan construction
/// AND steady-state arena growth. Registration also validates the
/// artifact's recorded meta/feature_set_version against both featurizer
/// configs (throws std::invalid_argument on mismatch): a model trained on
/// the v1 feature set must never be served v2 features, and vice versa.
/// Artifacts written before the section existed count as v1.
void add_compiled(ModelRegistry& registry, const std::string& name,
                  const std::string& artifact_path, const chem::VoxelConfig& voxel,
                  const chem::GraphFeaturizerConfig& graph = {});

/// Register an int8-quantized Regressor backend. Every minted replica is
/// compiled (compile::compile_model) and post-training-quantized
/// (quant::quantize_model) against a deterministic synthetic calibration
/// set that is featurized once, lazily, on the first replica and shared
/// read-only afterwards. Factory determinism holds: quantization is a pure
/// function of (model weights, calibration samples, config), so replicas
/// are bitwise-identical.
void add_quantized_regressor(ModelRegistry& registry, const std::string& name,
                             models::RegressorFactory make_model,
                             const chem::VoxelConfig& voxel,
                             const chem::GraphFeaturizerConfig& graph = {});

/// A registry with every backend family pre-registered under its canonical
/// name: "vina_pk", "mmgbsa", plus untrained-but-deterministic reference
/// nets "sgcnn", "cnn3d", "late_fusion", "pafnucy", "kdeep" (fixed seeds;
/// swap in trained weights via add_regressor for real use), plus their
/// int8-quantized siblings "sgcnn_int8", "cnn3d_int8", "fusion_int8"
/// (add_quantized_regressor; "fusion_int8" serves a Mid-level FusionModel).
/// Net input shapes derive from `voxel`.
ModelRegistry default_registry(const chem::VoxelConfig& voxel = {},
                               const chem::GraphFeaturizerConfig& graph = {});

}  // namespace df::serve
