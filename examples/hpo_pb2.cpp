// Domain example: distributed-style hyper-parameter optimization with
// Population-Based Bandits — the paper's §3.2 training architecture in
// miniature. A population of SG-CNN trials trains in t_ready intervals —
// every member CONCURRENTLY on one shared pool via hpo::train_population,
// with a bitwise-identical search trajectory to a serial loop; after each
// interval the bottom half clones a top performer's weights and explores
// new hyper-parameters proposed by the time-varying GP bandit.
//
// Build & run:  ./build/hpo_pb2
#include <cstdio>

#include "core/threadpool.h"
#include "data/splits.h"
#include "hpo/pb2.h"
#include "models/sgcnn.h"
#include "models/trainer.h"

using namespace df;

int main() {
  core::Rng rng(5);
  data::PdbbindConfig pcfg;
  pcfg.num_complexes = 120;
  pcfg.core_size = 10;
  const auto records = data::SyntheticPdbbind(pcfg).generate(rng);
  const data::TrainValSplit split = data::pdbbind_train_val(records, 0.15f, rng);
  data::DatasetConfig dcfg;
  dcfg.voxel.grid_dim = 8;
  data::ComplexDataset train(&records, split.train, dcfg);
  data::ComplexDataset val(&records, split.val, dcfg);

  // Search space: a slice of the paper's Table-1 SG-CNN column.
  hpo::SearchSpace space;
  space.add_log_continuous("lr", 5e-4, 1e-2);
  space.add_categorical("batch_size", {8, 16});
  space.add_categorical("cov_k", {2, 3, 4});

  hpo::Pb2Config cfg;
  cfg.population = 4;  // paper: 90 trials on Lassen
  cfg.quantile = 0.5;  // paper: lambda% = 50
  hpo::Pb2 pb2(space, cfg);
  std::vector<hpo::HpoConfig> pop = pb2.initial_population();

  auto build = [&](const hpo::HpoConfig& c, uint64_t seed) {
    models::SgcnnConfig mc;
    mc.covalent_gather_width = 12;
    mc.noncovalent_gather_width = 24;
    mc.covalent_k = static_cast<int>(c.at("cov_k"));
    core::Rng mrng(seed);
    return std::make_unique<models::Sgcnn>(mc, mrng);
  };
  std::vector<std::unique_ptr<models::Sgcnn>> trials;
  for (size_t i = 0; i < pop.size(); ++i) trials.push_back(build(pop[i], i));

  // One shared pool: each trial trains as one parallel_for body on the
  // calling thread or a pool worker (the member stays serial inside it), so
  // the population is the parallelism — and the scores, being keyed on
  // per-trial seeds, are bitwise the same as a serial member loop at any
  // pool size.
  core::ThreadPool pool(std::min<size_t>(pop.size(), 4));
  for (int interval = 0; interval < 3; ++interval) {
    std::printf("=== interval %d (t_ready reached) ===\n", interval + 1);
    const std::vector<float> scores = hpo::train_population(
        pop.size(),
        [&](size_t i) {
          models::TrainConfig tc;
          tc.epochs = 2;
          tc.seed = 10 + i;
          tc.lr = static_cast<float>(pop[i].at("lr"));
          tc.batch_size = static_cast<int>(pop[i].at("batch_size"));
          return models::train_model(*trials[i], train, val, tc).epochs.back().val_mse;
        },
        &pool);
    for (size_t i = 0; i < pop.size(); ++i) {
      std::printf("  trial %zu: lr=%.2e bs=%d cov_k=%d -> val MSE %.3f\n", i, pop[i].at("lr"),
                  static_cast<int>(pop[i].at("batch_size")),
                  static_cast<int>(pop[i].at("cov_k")), scores[i]);
    }
    const auto directives = pb2.report(scores);
    for (size_t i = 0; i < pop.size(); ++i) {
      pop[i] = directives[i].config;
      if (directives[i].clone_weights_from) {
        const size_t donor = static_cast<size_t>(*directives[i].clone_weights_from);
        std::printf("  trial %zu exploits trial %zu and explores new hyper-parameters\n", i,
                    donor);
        auto rebuilt = build(pop[i], 50 + i);
        if (rebuilt->num_parameters() == trials[donor]->num_parameters()) {
          models::copy_parameters(*rebuilt, *trials[donor]);
        }
        trials[i] = std::move(rebuilt);
      }
    }
  }
  std::printf("\nbest val MSE %.4f with configuration:\n", pb2.best_score());
  for (const auto& [k, v] : pb2.best_config()) std::printf("  %-12s %g\n", k.c_str(), v);
  return 0;
}
