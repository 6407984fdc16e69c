#include "models/checkpoint.h"

#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "io/model_artifact.h"

namespace df::models {

namespace {

// "p<i>" for parameter i, "s<i>" for running statistic i. Built by append:
// GCC 12 misreports `"p" + std::to_string(i)` under -Wrestrict.
std::string section_name(char prefix, size_t i) {
  std::string name(1, prefix);
  name += std::to_string(i);
  return name;
}

void put_params(io::ArtifactWriter& w, Regressor& model) {
  TrainedState st;
  model.collect_trained(st);
  w.add_scalar("meta", static_cast<int64_t>(st.params.size()));
  for (size_t i = 0; i < st.params.size(); ++i) {
    w.add_floats(section_name('p', i), st.params[i]->value.shape(), st.params[i]->value.data());
  }
  for (size_t i = 0; i < st.stats.size(); ++i) {
    w.add_floats(section_name('s', i), st.stats[i]->shape(), st.stats[i]->data());
  }
}

/// Sections checked against the tensors they restore, copied only once all
/// have passed, so a refused file leaves model and optimizer untouched.
class Restore {
 public:
  explicit Restore(const io::ArtifactReader& r) : r_(r) {}

  /// Queue section `name` for `t`. A section of another shape belongs to a
  /// differently built model (std::runtime_error); a missing one, or one of
  /// another dtype, is damage (io::H5LiteError Format).
  void add(const std::string& name, core::Tensor& t) {
    if (r_.section(name).dims != t.shape()) {
      throw std::runtime_error("checkpoint: shape mismatch at " + name + " in " + r_.path());
    }
    pending_.emplace_back(&t, r_.floats(name, t.numel()));
  }

  /// The model's parameters and, if it has any, its running statistics.
  void add_model(Regressor& model) {
    TrainedState st;
    model.collect_trained(st);
    if (r_.scalar("meta") != static_cast<int64_t>(st.params.size())) {
      throw std::runtime_error("load_checkpoint: parameter count mismatch in " + r_.path());
    }
    for (size_t i = 0; i < st.params.size(); ++i) add(section_name('p', i), st.params[i]->value);
    for (size_t i = 0; i < st.stats.size(); ++i) add(section_name('s', i), *st.stats[i]);
  }

  void commit() {
    for (const auto& [t, src] : pending_) {
      std::memcpy(t->data(), src, static_cast<size_t>(t->numel()) * sizeof(float));
    }
  }

 private:
  const io::ArtifactReader& r_;
  std::vector<std::pair<core::Tensor*, const float*>> pending_;
};

}  // namespace

void save_checkpoint(Regressor& model, const std::string& path) {
  io::ArtifactWriter w;
  put_params(w, model);
  // Atomic write: a rank killed mid-checkpoint must never leave a torn
  // weight file where the resume path expects a valid one.
  w.save(path);
}

void load_checkpoint(Regressor& model, const std::string& path) {
  const auto image = io::ArtifactReader::open(path);
  Restore restore(*image);
  restore.add_model(model);
  restore.commit();
}

void save_train_checkpoint(Regressor& model, nn::Optimizer& opt, const TrainProgress& progress,
                           const std::string& path) {
  io::ArtifactWriter w;
  put_params(w, model);

  const nn::OptimizerState st = opt.state();
  for (const auto& [slot, tensors] : st.slots) {
    for (size_t i = 0; i < tensors.size(); ++i) {
      w.add_floats("opt/" + slot + "/" + std::to_string(i), tensors[i]->shape(),
                   tensors[i]->data());
    }
  }
  std::vector<int64_t> scalar_values;
  for (const auto& [name, value] : st.scalars) {
    (void)name;
    scalar_values.push_back(*value);
  }
  w.add_ints("opt/scalars", {static_cast<int64_t>(scalar_values.size())}, scalar_values.data());

  const int64_t geom[] = {std::bit_cast<int64_t>(progress.seed), progress.optimizer_kind,
                          progress.batch_size, progress.grad_shards, progress.n_train,
                          progress.n_val};
  w.add_ints("train/geom", {6}, geom);
  const float hyper[] = {progress.lr, progress.grad_clip};
  w.add_floats("train/hyper", {2}, hyper);
  const int64_t cursor[] = {progress.epoch, progress.batch, progress.n_samples};
  w.add_ints("train/cursor", {3}, cursor);
  const int64_t acc[] = {std::bit_cast<int64_t>(progress.epoch_loss),
                         std::bit_cast<int64_t>(progress.seconds)};
  w.add_ints("train/acc", {2}, acc);
  const int64_t n_epochs = static_cast<int64_t>(progress.train_mse.size());
  std::vector<float> stats;
  stats.reserve(static_cast<size_t>(2 * n_epochs));
  for (int64_t e = 0; e < n_epochs; ++e) {
    stats.push_back(progress.train_mse[static_cast<size_t>(e)]);
    stats.push_back(progress.val_mse[static_cast<size_t>(e)]);
  }
  w.add_floats("train/stats", {n_epochs, 2}, stats.data());
  w.add_floats("train/best", {1}, &progress.best_val_mse);
  w.add_scalar("train/best_epoch", progress.best_epoch);

  w.save(path);
}

TrainProgress load_train_checkpoint(Regressor& model, nn::Optimizer& opt,
                                    const std::string& path,
                                    const TrainProgress* expected_geometry) {
  const auto image = io::ArtifactReader::open(path);
  const io::ArtifactReader& r = *image;

  TrainProgress p;
  const int64_t* geom = r.ints("train/geom", 6);
  p.seed = std::bit_cast<uint64_t>(geom[0]);
  p.optimizer_kind = geom[1];
  p.batch_size = geom[2];
  p.grad_shards = geom[3];
  p.n_train = geom[4];
  p.n_val = geom[5];
  const float* hyper = r.floats("train/hyper", 2);
  p.lr = hyper[0];
  p.grad_clip = hyper[1];
  const int64_t* cursor = r.ints("train/cursor", 3);
  p.epoch = cursor[0];
  p.batch = cursor[1];
  p.n_samples = cursor[2];
  // Guard BEFORE restoring anything: a rejected checkpoint must leave the
  // caller's model and optimizer exactly as they were.
  if (expected_geometry != nullptr) {
    const TrainProgress& e = *expected_geometry;
    if (p.seed != e.seed || p.optimizer_kind != e.optimizer_kind ||
        p.batch_size != e.batch_size || p.grad_shards != e.grad_shards ||
        p.n_train != e.n_train || p.n_val != e.n_val || p.lr != e.lr ||
        p.grad_clip != e.grad_clip) {
      throw std::runtime_error(
          "load_train_checkpoint: geometry mismatch in " + path +
          " (seed/optimizer/batch/shards/dataset/lr/clip differ from the current config); "
          "resuming would silently break the bit-identical guarantee");
    }
    // e.epoch carries the caller's epoch bound (not an equality check —
    // resuming with a larger bound legitimately continues training). A
    // cursor past the bound is a stale longer run's checkpoint.
    if (p.epoch > e.epoch) {
      throw std::runtime_error("load_train_checkpoint: checkpoint " + path + " is " +
                               std::to_string(p.epoch) + " epochs into training but only " +
                               std::to_string(e.epoch) +
                               " were requested; refusing to return a stale longer history");
    }
  }

  const int64_t* acc = r.ints("train/acc", 2);
  p.epoch_loss = std::bit_cast<double>(acc[0]);
  p.seconds = std::bit_cast<double>(acc[1]);
  const std::vector<int64_t>& stats_dims = r.section("train/stats").dims;
  if (stats_dims.size() != 2 || stats_dims[1] != 2) {
    throw io::H5LiteError(io::H5LiteError::Kind::Format,
                          "load_train_checkpoint: train/stats is not (epochs, 2) in " + path);
  }
  const int64_t n_epochs = stats_dims[0];
  const float* stats = r.floats("train/stats", 2 * n_epochs);
  for (int64_t e = 0; e < n_epochs; ++e) {
    p.train_mse.push_back(stats[2 * e]);
    p.val_mse.push_back(stats[2 * e + 1]);
  }
  p.best_val_mse = r.floats("train/best", 1)[0];
  p.best_epoch = r.scalar("train/best_epoch");

  Restore restore(r);
  restore.add_model(model);
  const nn::OptimizerState st = opt.state();
  for (const auto& [slot, tensors] : st.slots) {
    for (size_t i = 0; i < tensors.size(); ++i) {
      restore.add("opt/" + slot + "/" + std::to_string(i), *tensors[i]);
    }
  }
  const int64_t* scalar_values = r.ints("opt/scalars", static_cast<int64_t>(st.scalars.size()));
  restore.commit();
  for (size_t i = 0; i < st.scalars.size(); ++i) *st.scalars[i].second = scalar_values[i];
  return p;
}

}  // namespace df::models
