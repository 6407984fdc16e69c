#include "serve/registry.h"

#include <stdexcept>
#include <utility>

#include "compile/model_compiler.h"
#include "models/baselines.h"
#include "models/cnn3d.h"
#include "models/fusion.h"
#include "models/sgcnn.h"

namespace df::serve {

ModelRegistry::ModelRegistry(ModelRegistry&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mu_);
  factories_ = std::move(other.factories_);
}

void ModelRegistry::add(const std::string& name, ScorerFactory factory) {
  if (name.empty()) throw std::invalid_argument("registry: scorer name must be non-empty");
  if (!factory) throw std::invalid_argument("registry: null factory for scorer '" + name + "'");
  std::lock_guard<std::mutex> lock(mu_);
  if (!factories_.emplace(name, std::move(factory)).second) {
    throw std::invalid_argument("registry: scorer '" + name + "' is already registered");
  }
}

bool ModelRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(name) != 0;
}

size_t ModelRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.size();
}

std::vector<std::string> ModelRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::unique_ptr<Scorer> ModelRegistry::make(const std::string& name) const {
  ScorerFactory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      throw std::out_of_range("registry: no scorer named '" + name + "'");
    }
    factory = it->second;
  }
  return factory();  // invoke outside the lock: factories may be slow
}

std::map<std::string, ScorerFactory> ModelRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_;
}

void add_regressor(ModelRegistry& registry, const std::string& name,
                   models::RegressorFactory make_model, const chem::VoxelConfig& voxel,
                   const chem::GraphFeaturizerConfig& graph) {
  registry.add(name, [name, make_model = std::move(make_model), voxel, graph] {
    return std::make_unique<RegressorScorer>(name, make_model(), voxel, graph);
  });
}

void add_compiled(ModelRegistry& registry, const std::string& name,
                  const std::string& artifact_path, const chem::VoxelConfig& voxel,
                  const chem::GraphFeaturizerConfig& graph) {
  // Open and restore once, eagerly, discarding the model: registration
  // fails fast on any artifact load_compiled would refuse (missing,
  // damaged, stale schema, a budget negative or too large to allocate, or
  // parameters that do not fit the model), and all replicas share the one
  // validated mapping.
  std::shared_ptr<io::ArtifactReader> image = io::ArtifactReader::open(artifact_path);
  compile::load_compiled(image);
  // The artifact records the featurization contract the model was trained
  // against; a replica featurizing with a different version would silently
  // feed the net features it has never seen. Fail at registration, not at
  // first score.
  const int64_t artifact_fsv = image->scalar("meta/feature_set_version");
  if (artifact_fsv != voxel.feature_set_version ||
      artifact_fsv != graph.feature_set_version) {
    throw std::invalid_argument(
        "add_compiled('" + name + "'): artifact feature_set_version " +
        std::to_string(artifact_fsv) + " does not match serving configs (voxel " +
        std::to_string(voxel.feature_set_version) + ", graph " +
        std::to_string(graph.feature_set_version) + ")");
  }
  registry.add(name, [name, image, voxel, graph] {
    compile::CompiledModel cm = compile::load_compiled(image);
    auto scorer = std::make_unique<RegressorScorer>(name, std::move(cm.model), voxel, graph);
    scorer->reserve_workspaces(cm.budget);
    return scorer;
  });
}

ModelRegistry default_registry(const chem::VoxelConfig& voxel,
                               const chem::GraphFeaturizerConfig& graph) {
  ModelRegistry reg;
  reg.add("vina_pk", [] { return std::make_unique<VinaPkScorer>(); });
  reg.add("mmgbsa", [] { return std::make_unique<MmGbsaScorer>(); });

  // Untrained reference nets with fixed seeds: deterministic across replicas
  // and runs, useful for serving demos, benches and tests.
  add_regressor(reg, "sgcnn", [] {
    core::Rng rng(101);
    return std::make_unique<models::Sgcnn>(models::SgcnnConfig{}, rng);
  }, voxel, graph);

  const auto cnn_cfg = [voxel] {
    models::Cnn3dConfig cfg;
    cfg.in_channels = voxel.channels();
    cfg.grid_dim = voxel.grid_dim;
    return cfg;
  };
  add_regressor(reg, "cnn3d", [cnn_cfg] {
    core::Rng rng(102);
    return std::make_unique<models::Cnn3d>(cnn_cfg(), rng);
  }, voxel, graph);

  add_regressor(reg, "late_fusion", [cnn_cfg] {
    core::Rng rng(103);
    auto cnn = std::make_shared<models::Cnn3d>(cnn_cfg(), rng);
    auto sg = std::make_shared<models::Sgcnn>(models::SgcnnConfig{}, rng);
    return std::make_unique<models::LateFusion>(std::move(cnn), std::move(sg));
  }, voxel, graph);

  add_regressor(reg, "pafnucy", [voxel] {
    core::Rng rng(104);
    return models::make_pafnucy(voxel.channels(), voxel.grid_dim, rng);
  }, voxel, graph);

  add_regressor(reg, "kdeep", [voxel] {
    core::Rng rng(105);
    return models::make_kdeep(voxel.channels(), voxel.grid_dim, rng);
  }, voxel, graph);
  return reg;
}

}  // namespace df::serve
