#include "models/checkpoint.h"

#include <bit>
#include <cstring>
#include <stdexcept>

#include "io/model_artifact.h"

namespace df::models {

namespace {

void put_params(io::ArtifactWriter& w, Regressor& model) {
  const std::vector<nn::Parameter*> params = model.trainable_parameters();
  w.add_scalar("meta", static_cast<int64_t>(params.size()));
  for (size_t i = 0; i < params.size(); ++i) {
    w.add_floats("p" + std::to_string(i), params[i]->value.shape(), params[i]->value.data());
  }
}

/// Copy section `name` into `t`. A section of another shape belongs to a
/// differently built model (std::runtime_error); one of another dtype is
/// damage (io::H5LiteError Format, from the sized read).
void get_tensor(const io::ArtifactReader& r, const std::string& name, core::Tensor& t) {
  if (r.section(name).dims != t.shape()) {
    throw std::runtime_error("checkpoint: shape mismatch at " + name + " in " + r.path());
  }
  std::memcpy(t.data(), r.floats(name, t.numel()), static_cast<size_t>(t.numel()) * sizeof(float));
}

void get_params(const io::ArtifactReader& r, Regressor& model) {
  const std::vector<nn::Parameter*> params = model.trainable_parameters();
  if (r.scalar("meta") != static_cast<int64_t>(params.size())) {
    throw std::runtime_error("load_checkpoint: parameter count mismatch in " + r.path());
  }
  for (size_t i = 0; i < params.size(); ++i) {
    get_tensor(r, "p" + std::to_string(i), params[i]->value);
  }
}

}  // namespace

void save_checkpoint(Regressor& model, const std::string& path) {
  io::ArtifactWriter w;
  put_params(w, model);
  // Atomic write: a rank killed mid-checkpoint must never leave a torn
  // weight file where the resume path expects a valid one.
  w.save(path);
}

void load_checkpoint(Regressor& model, const std::string& path) {
  get_params(*io::ArtifactReader::open(path), model);
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

  get_params(r, model);
  const nn::OptimizerState st = opt.state();
  for (const auto& [slot, tensors] : st.slots) {
    for (size_t i = 0; i < tensors.size(); ++i) {
      get_tensor(r, "opt/" + slot + "/" + std::to_string(i), *tensors[i]);
    }
  }
  const int64_t* scalar_values = r.ints("opt/scalars", static_cast<int64_t>(st.scalars.size()));
  for (size_t i = 0; i < st.scalars.size(); ++i) *st.scalars[i].second = scalar_values[i];
  return p;
}

}  // namespace df::models
