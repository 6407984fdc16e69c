#include "models/trainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <thread>

#include "core/parallel.h"
#include "core/threadpool.h"
#include "models/checkpoint.h"
#include "nn/dropout.h"

namespace df::models {

void clip_grad_norm(const std::vector<nn::Parameter*>& params, float max_norm) {
  if (max_norm <= 0.0f) return;
  double total = 0.0;
  for (const nn::Parameter* p : params) {
    const float n = p->grad.norm();
    total += static_cast<double>(n) * n;
  }
  const float norm = static_cast<float>(std::sqrt(total));
  if (norm > max_norm) {
    const float scale = max_norm / (norm + 1e-6f);
    for (nn::Parameter* p : params) p->grad *= scale;
  }
}

void copy_parameters(Regressor& dst, Regressor& src) {
  TrainedState d, s;
  dst.collect_trained(d);
  src.collect_trained(s);
  if (d.params.size() != s.params.size() || d.stats.size() != s.stats.size()) {
    throw std::invalid_argument("copy_parameters: models are not structurally identical");
  }
  for (size_t i = 0; i < d.params.size(); ++i) {
    core::check_same_shape(d.params[i]->value, s.params[i]->value, "copy_parameters");
    d.params[i]->value = s.params[i]->value;
  }
  for (size_t i = 0; i < d.stats.size(); ++i) {
    core::check_same_shape(*d.stats[i], *s.stats[i], "copy_parameters");
    *d.stats[i] = *s.stats[i];
  }
}

std::vector<float> evaluate(Regressor& model, const data::ComplexDataset& ds) {
  model.set_training(false);
  std::vector<float> preds;
  preds.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    // Per-sample keyed stream, not one shared engine across the loop: the
    // same convention as the engine's lane-parallel validation, so
    // evaluate() and a trainer's val_mse agree on the same data even when
    // the dataset consumes RNG — with distinct (uncorrelated) draws per
    // sample. Augmentation is normally off in eval, where the stream is
    // never drawn from at all.
    core::Rng rng(core::derive_stream(0, core::stream_tag::kEvalSample, i));
    preds.push_back(model.predict(ds.get(i, rng)));
  }
  return preds;
}

std::vector<float> labels_of(const data::ComplexDataset& ds) {
  std::vector<float> y;
  y.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    core::Rng rng(core::derive_stream(0, core::stream_tag::kEvalSample, i));
    y.push_back(ds.get(i, rng).label);
  }
  return y;
}

float validation_mse(Regressor& model, const data::ComplexDataset& ds) {
  const std::vector<float> preds = evaluate(model, ds);
  const std::vector<float> y = labels_of(ds);
  double acc = 0.0;
  for (size_t i = 0; i < preds.size(); ++i) {
    const double d = preds[i] - y[i];
    acc += d * d;
  }
  return preds.empty() ? 0.0f : static_cast<float>(acc / static_cast<double>(preds.size()));
}

namespace {

/// Validation over the lanes: sample i goes to lane i % L, every
/// prediction lands in its slot, and the MSE accumulates in index order on
/// the driver — so the result cannot depend on the lane count. Each sample
/// gets the same (seed-0, index)-keyed stream evaluate() uses, which makes
/// per-sample featurization independent of which lane ran it and keeps
/// the trainer's val_mse equal to validation_mse() on the same data.
float validation_mse_lanes(const std::vector<Regressor*>& lanes, core::ThreadPool* pool,
                           const data::ComplexDataset& ds) {
  const size_t n = ds.size();
  if (n == 0) return 0.0f;
  const size_t L = lanes.size();
  std::vector<float> preds(n), labels(n);
  core::parallel_for_on(pool, L, [&](size_t l) {
    lanes[l]->set_training(false);
    for (size_t i = l; i < n; i += L) {
      core::Rng rng(core::derive_stream(0, core::stream_tag::kEvalSample, i));
      const data::Sample s = ds.get(i, rng);
      labels[i] = s.label;
      preds[i] = lanes[l]->predict(s);
    }
  });
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = preds[i] - labels[i];
    acc += d * d;
  }
  return static_cast<float>(acc / static_cast<double>(n));
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

TrainResult train_model(Regressor& model, const data::ComplexDataset& train,
                        const data::ComplexDataset& val, const TrainConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  TrainResult result;
  result.best_val_mse = std::numeric_limits<float>::infinity();

  // ---- lanes ----
  int threads = cfg.threads;
  if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  if (threads > 1 && !cfg.replica_factory) {
    throw std::invalid_argument("train_model: threads > 1 requires TrainConfig::replica_factory");
  }
  if (threads > 1) {
    // Only the lanes run training forwards, so the master's BatchNorm
    // running statistics would never move, and every broadcast would reset
    // the lanes' to them.
    TrainedState state;
    model.collect_trained(state);
    if (!state.stats.empty()) {
      throw std::invalid_argument(
          "train_model: a model with BatchNorm running statistics trains with threads = 1, got " +
          std::to_string(threads));
    }
  }
  std::vector<std::unique_ptr<Regressor>> owned_lanes;
  std::vector<Regressor*> lanes;
  if (threads == 1) {
    lanes.push_back(&model);  // serial reference: master is the only lane
  } else {
    for (int l = 0; l < threads; ++l) {
      owned_lanes.push_back(cfg.replica_factory());
      lanes.push_back(owned_lanes.back().get());
    }
  }
  const size_t L = lanes.size();

  // The calling thread runs a lane too.
  std::unique_ptr<core::ThreadPool> owned_pool;
  if (L > 1) owned_pool = std::make_unique<core::ThreadPool>(L - 1);
  core::ThreadPool* const pool = owned_pool.get();

  const std::vector<nn::Parameter*> params = model.trainable_parameters();
  auto opt = nn::make_optimizer(cfg.optimizer, params, cfg.lr);

  data::LoaderConfig lc;
  lc.batch_size = cfg.batch_size;
  lc.num_workers = cfg.loader_workers;
  lc.seed = cfg.seed;
  data::DataLoader loader(train, lc);
  const size_t total_batches = loader.batches_per_epoch();

  // ---- resume ----
  // The geometry whose change would change bits; stored in every
  // checkpoint and validated (before any state is restored) on resume.
  TrainProgress geometry;
  geometry.seed = cfg.seed;
  geometry.optimizer_kind = static_cast<int64_t>(cfg.optimizer);
  geometry.batch_size = cfg.batch_size;
  geometry.grad_shards = cfg.grad_shards;
  geometry.n_train = static_cast<int64_t>(train.size());
  geometry.n_val = static_cast<int64_t>(val.size());
  geometry.lr = cfg.lr;
  geometry.grad_clip = cfg.grad_clip;

  int64_t start_epoch = 0, start_batch = 0, n_samples = 0;
  double epoch_loss = 0.0, prior_seconds = 0.0;
  bool resumed = false;
  // cfg.epochs is deliberately NOT equality-checked geometry: resuming
  // with MORE epochs continues training (epoch-keyed streams make the
  // result bit-equal to an uninterrupted run of the longer length). The
  // guard only rejects a cursor already PAST the requested end, which
  // would otherwise silently return the longer stale history.
  geometry.epoch = cfg.epochs;

  if (!cfg.checkpoint_path.empty() && std::filesystem::exists(cfg.checkpoint_path)) {
    const TrainProgress p = load_train_checkpoint(model, *opt, cfg.checkpoint_path, &geometry);
    start_epoch = p.epoch;
    start_batch = p.batch;
    n_samples = p.n_samples;
    epoch_loss = p.epoch_loss;
    prior_seconds = p.seconds;
    for (size_t e = 0; e < p.train_mse.size(); ++e) {
      result.epochs.push_back({p.train_mse[e], p.val_mse[e]});
    }
    result.best_val_mse = p.best_val_mse;
    result.best_epoch = static_cast<int>(p.best_epoch);
    resumed = true;
  }

  int64_t steps_this_process = 0, steps_since_ckpt = 0;

  auto write_checkpoint = [&](int64_t epoch_cursor, int64_t batch_cursor) {
    TrainProgress p = geometry;
    p.epoch = epoch_cursor;
    p.batch = batch_cursor;
    p.n_samples = batch_cursor == 0 ? 0 : n_samples;
    p.epoch_loss = batch_cursor == 0 ? 0.0 : epoch_loss;
    p.seconds = prior_seconds + seconds_since(t0);
    for (const EpochStats& es : result.epochs) {
      p.train_mse.push_back(es.train_mse);
      p.val_mse.push_back(es.val_mse);
    }
    p.best_val_mse = result.best_val_mse;
    p.best_epoch = result.best_epoch;
    save_train_checkpoint(model, *opt, p, cfg.checkpoint_path);
    steps_since_ckpt = 0;
  };

  auto maybe_kill = [&] {
    if (cfg.kill_after_steps >= 0 && steps_this_process >= cfg.kill_after_steps) {
      throw TrainerKilled("train_model: killed after " + std::to_string(steps_this_process) +
                          " steps (kill_after_steps test hook)");
    }
  };

  // Broadcast master parameters to every replica lane (no-op when the
  // master is the only lane).
  auto sync_lanes = [&] {
    if (L == 1) return;
    core::parallel_for_on(pool, L, [&](size_t l) { copy_parameters(*lanes[l], model); });
  };
  sync_lanes();

  // Per-lane parameter lists and the shard-partial buffers are
  // loop-invariant in shape: hoist them so steady-state batches copy-assign
  // into existing storage instead of reallocating grad-sized tensors.
  std::vector<std::vector<nn::Parameter*>> lane_params;
  lane_params.reserve(L);
  for (Regressor* m : lanes) lane_params.push_back(m->trainable_parameters());
  const size_t max_shards =
      std::min<size_t>(static_cast<size_t>(std::max(1, cfg.grad_shards)),
                       static_cast<size_t>(std::max(1, cfg.batch_size)));
  std::vector<std::vector<core::Tensor>> partial(max_shards);
  for (auto& shard : partial) {
    shard.reserve(params.size());
    for (const nn::Parameter* p : params) shard.emplace_back(p->value.shape());
  }
  std::vector<double> shard_loss(max_shards, 0.0);

  maybe_kill();  // kill_after_steps = 0: die before the first step

  for (int64_t epoch = start_epoch; epoch < cfg.epochs; ++epoch) {
    const size_t skip =
        (resumed && epoch == start_epoch) ? static_cast<size_t>(start_batch) : size_t{0};
    if (skip == 0) {
      epoch_loss = 0.0;
      n_samples = 0;
    }
    loader.start_epoch(static_cast<uint64_t>(epoch), skip);
    size_t batch_index = skip;

    while (auto batch = loader.next()) {
      const size_t B = batch->size();
      const size_t S =
          std::min<size_t>(static_cast<size_t>(std::max(1, cfg.grad_shards)), B);
      const float inv_b = 1.0f / static_cast<float>(B);
      const size_t base_pos = batch_index * static_cast<size_t>(cfg.batch_size);

      // Phase 1 — shard forward/backward on the lanes. Shard s covers
      // samples [sB/S, (s+1)B/S); lane l runs shards l, l+L, ... so the
      // (shard → partial) mapping never depends on scheduling.
      std::fill(shard_loss.begin(), shard_loss.begin() + static_cast<long>(S), 0.0);
      core::parallel_for_on(pool, L, [&](size_t l) {
        Regressor* m = lanes[l];
        const std::vector<nn::Parameter*>& ps = lane_params[l];
        m->set_training(true);
        for (size_t s = l; s < S; s += L) {
          for (nn::Parameter* p : ps) p->grad.zero();
          const size_t lo = s * B / S, hi = (s + 1) * B / S;
          for (size_t j = lo; j < hi; ++j) {
            const data::Sample& smp = (*batch)[j];
            // Per-sample dropout streams keyed on (seed, epoch, position):
            // the mask is the same whichever lane draws it.
            nn::KeyedDropoutScope key(core::derive_stream(
                cfg.seed, core::stream_tag::kTrainDropout + static_cast<uint64_t>(epoch),
                base_pos + j));
            const float pred = m->forward_train(smp);
            const float err = pred - smp.label;
            shard_loss[s] += static_cast<double>(err) * err;
            // d(mean squared error)/d(pred_j) = 2 (pred_j - y_j) / B
            m->backward(2.0f * err * inv_b);
          }
          for (size_t i = 0; i < ps.size(); ++i) partial[s][i] = ps[i]->grad;
        }
      });

      // Phase 2 — fixed pairwise tree reduction of the shard partials.
      // The tree shape depends only on S, so the summation order (and its
      // rounding) is identical at every thread count.
      for (size_t stride = 1; stride < S; stride *= 2) {
        for (size_t s = 0; s + stride < S; s += 2 * stride) {
          for (size_t i = 0; i < partial[s].size(); ++i) {
            partial[s][i] += partial[s + stride][i];
          }
        }
      }
      // Copy (not move): partial[0]'s buffers are reused by the next batch.
      for (size_t i = 0; i < params.size(); ++i) params[i]->grad = partial[0][i];
      for (size_t s = 0; s < S; ++s) epoch_loss += shard_loss[s];
      n_samples += static_cast<int64_t>(B);

      // Phase 3 — clip + step on the master, then broadcast.
      clip_grad_norm(params, cfg.grad_clip);
      opt->step();
      sync_lanes();

      ++steps_this_process;
      ++steps_since_ckpt;
      ++batch_index;
      if (!cfg.checkpoint_path.empty() && cfg.checkpoint_every_batches > 0 &&
          steps_since_ckpt >= cfg.checkpoint_every_batches && batch_index < total_batches) {
        write_checkpoint(epoch, static_cast<int64_t>(batch_index));
      }
      maybe_kill();
    }

    EpochStats es;
    es.train_mse =
        n_samples ? static_cast<float>(epoch_loss / static_cast<double>(n_samples)) : 0;
    es.val_mse = validation_mse_lanes(lanes, pool, val);
    result.epochs.push_back(es);
    if (es.val_mse < result.best_val_mse) {
      result.best_val_mse = es.val_mse;
      result.best_epoch = static_cast<int>(epoch);
    }
    if (cfg.verbose) {
      std::printf("[%s] epoch %lld/%d train_mse=%.4f val_mse=%.4f\n", model.name().c_str(),
                  static_cast<long long>(epoch + 1), cfg.epochs, es.train_mse, es.val_mse);
    }
    if (!cfg.checkpoint_path.empty()) write_checkpoint(epoch + 1, 0);
  }
  result.seconds = prior_seconds + seconds_since(t0);
  return result;
}

}  // namespace df::models
