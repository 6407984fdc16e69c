#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "core/threadpool.h"
#include "data/splits.h"
#include "hpo/gp.h"
#include "hpo/pb2.h"
#include "hpo/search_space.h"
#include "models/sgcnn.h"
#include "models/trainer.h"

namespace df::hpo {
namespace {

using core::Rng;

TEST(SearchSpace, SampleRespectsBounds) {
  Rng rng(1);
  SearchSpace s;
  s.add_continuous("a", -1.0, 2.0);
  s.add_log_continuous("lr", 1e-6, 1e-2);
  s.add_categorical("bs", {4, 8, 16});
  s.add_boolean("flag");
  for (int i = 0; i < 50; ++i) {
    const HpoConfig c = s.sample(rng);
    EXPECT_GE(c.at("a"), -1.0);
    EXPECT_LE(c.at("a"), 2.0);
    EXPECT_GE(c.at("lr"), 1e-6);
    EXPECT_LE(c.at("lr"), 1e-2);
    const double bs = c.at("bs");
    EXPECT_TRUE(bs == 4 || bs == 8 || bs == 16);
    EXPECT_TRUE(c.at("flag") == 0.0 || c.at("flag") == 1.0);
  }
}

TEST(SearchSpace, LogSamplingCoversDecades) {
  Rng rng(2);
  SearchSpace s;
  s.add_log_continuous("lr", 1e-6, 1e-2);
  int low = 0;
  for (int i = 0; i < 400; ++i) {
    if (s.sample(rng).at("lr") < 1e-4) ++low;  // midpoint in log space
  }
  // Log-uniform: about half the mass below the geometric midpoint.
  EXPECT_NEAR(low / 400.0, 0.5, 0.1);
}

TEST(SearchSpace, NormalizeDenormalizeRoundTrip) {
  SearchSpace s;
  s.add_continuous("a", 0.0, 10.0);
  s.add_log_continuous("lr", 1e-5, 1e-1);
  const ParamSpec& a = s.spec("a");
  EXPECT_NEAR(a.denormalize(a.normalize(7.3)), 7.3, 1e-9);
  const ParamSpec& lr = s.spec("lr");
  EXPECT_NEAR(lr.denormalize(lr.normalize(3e-3)), 3e-3, 1e-9);
}

TEST(SearchSpace, ClampSnapsCategorical) {
  SearchSpace s;
  s.add_categorical("bs", {4, 8, 16});
  EXPECT_EQ(s.spec("bs").clamp(9.0), 8.0);
  EXPECT_EQ(s.spec("bs").clamp(100.0), 16.0);
}

TEST(SearchSpace, UnknownParamThrows) {
  SearchSpace s;
  s.add_boolean("x");
  EXPECT_THROW(s.spec("nope"), std::out_of_range);
}

TEST(SearchSpace, PaperTable1SpacesExist) {
  EXPECT_EQ(sgcnn_search_space().size(), 9u);
  EXPECT_EQ(cnn3d_search_space().size(), 9u);
  EXPECT_EQ(fusion_search_space().size(), 14u);
  // spot-check paper ranges
  const SearchSpace f = fusion_search_space();
  EXPECT_EQ(f.spec("num_fusion_layers").choices, (std::vector<double>{3, 4, 5}));
  EXPECT_DOUBLE_EQ(f.spec("dropout1").hi, 0.50);
  EXPECT_DOUBLE_EQ(f.spec("dropout3").hi, 0.125);
}

TEST(GP, InterpolatesTrainingPoints) {
  TimeVaryingGP gp;
  std::vector<std::vector<double>> x = {{0.1}, {0.5}, {0.9}};
  gp.fit(x, {0, 0, 0}, {1.0, 2.0, 3.0});
  for (size_t i = 0; i < x.size(); ++i) {
    const auto p = gp.predict(x[i], 0);
    EXPECT_NEAR(p.mean, 1.0 + static_cast<double>(i), 0.15);
  }
}

TEST(GP, VarianceGrowsAwayFromData) {
  TimeVaryingGP gp;
  gp.fit({{0.5}}, {0}, {1.0});
  const auto near = gp.predict({0.5}, 0);
  const auto far = gp.predict({0.0}, 0);
  EXPECT_LT(near.variance, far.variance);
}

TEST(GP, TimeDecayDiscountsOldObservations) {
  GpConfig cfg;
  cfg.time_epsilon = 0.5;  // aggressive forgetting
  TimeVaryingGP gp(cfg);
  // Same x observed at t=0 (y=0) and t=10 (y=2): prediction at t=10 must
  // lean toward the recent value.
  gp.fit({{0.5}, {0.5}}, {0, 10}, {0.0, 2.0});
  const auto p = gp.predict({0.5}, 10);
  EXPECT_GT(p.mean, 1.2);
}

TEST(GP, UcbAddsExplorationBonus) {
  TimeVaryingGP gp;
  gp.fit({{0.5}}, {0}, {1.0});
  EXPECT_GT(gp.ucb({0.1}, 0, 2.0), gp.predict({0.1}, 0).mean);
}

TEST(GP, RejectsInconsistentInputs) {
  TimeVaryingGP gp;
  EXPECT_THROW(gp.fit({{0.1}}, {0, 1}, {1.0}), std::invalid_argument);
}

TEST(Pb2, InitialPopulationSizeAndBounds) {
  Pb2Config cfg;
  cfg.population = 6;
  SearchSpace s;
  s.add_continuous("x", 0.0, 1.0);
  Pb2 pb2(s, cfg);
  const auto pop = pb2.initial_population();
  EXPECT_EQ(pop.size(), 6u);
  for (const auto& c : pop) {
    EXPECT_GE(c.at("x"), 0.0);
    EXPECT_LE(c.at("x"), 1.0);
  }
}

TEST(Pb2, BottomQuantileClonesTopPerformer) {
  Pb2Config cfg;
  cfg.population = 4;
  cfg.quantile = 0.5;
  SearchSpace s;
  s.add_continuous("x", 0.0, 1.0);
  Pb2 pb2(s, cfg);
  pb2.initial_population();
  const auto directives = pb2.report({1.0f, 2.0f, 3.0f, 4.0f});
  // Trials 0 and 1 (best) keep going; 2 and 3 clone from {0, 1}.
  EXPECT_FALSE(directives[0].clone_weights_from.has_value());
  EXPECT_FALSE(directives[1].clone_weights_from.has_value());
  ASSERT_TRUE(directives[2].clone_weights_from.has_value());
  ASSERT_TRUE(directives[3].clone_weights_from.has_value());
  EXPECT_LT(*directives[2].clone_weights_from, 2);
  EXPECT_LT(*directives[3].clone_weights_from, 2);
}

TEST(Pb2, TracksBestScore) {
  Pb2Config cfg;
  cfg.population = 3;
  SearchSpace s;
  s.add_continuous("x", 0.0, 1.0);
  Pb2 pb2(s, cfg);
  pb2.initial_population();
  pb2.report({5.0f, 3.0f, 7.0f});
  EXPECT_FLOAT_EQ(pb2.best_score(), 3.0f);
  pb2.report({2.5f, 4.0f, 6.0f});
  EXPECT_FLOAT_EQ(pb2.best_score(), 2.5f);
}

TEST(Pb2, ScoreCountMismatchThrows) {
  Pb2Config cfg;
  cfg.population = 3;
  SearchSpace s;
  s.add_boolean("b");
  Pb2 pb2(s, cfg);
  pb2.initial_population();
  EXPECT_THROW(pb2.report({1.0f}), std::invalid_argument);
}

TEST(Pb2, OptimizesSyntheticQuadratic) {
  // Minimize (x - 0.7)^2: PB2 must drive the population toward 0.7.
  Pb2Config cfg;
  cfg.population = 8;
  cfg.seed = 5;
  SearchSpace s;
  s.add_continuous("x", 0.0, 1.0);
  Pb2 pb2(s, cfg);
  std::vector<HpoConfig> pop = pb2.initial_population();
  for (int interval = 0; interval < 12; ++interval) {
    std::vector<float> scores;
    scores.reserve(pop.size());
    for (const auto& c : pop) {
      const double x = c.at("x");
      scores.push_back(static_cast<float>((x - 0.7) * (x - 0.7)));
    }
    const auto directives = pb2.report(scores);
    for (size_t i = 0; i < pop.size(); ++i) pop[i] = directives[i].config;
  }
  EXPECT_LT(pb2.best_score(), 0.01f);
  EXPECT_NEAR(pb2.best_config().at("x"), 0.7, 0.15);
}

// ---- concurrent population training (paper §3.2: trials in parallel) ----

struct Pb2Trace {
  std::vector<std::vector<float>> interval_scores;
  HpoConfig best_config;
  float best_score = 0;
};

/// Run a miniature real-training PB2 search (persistent SG-CNN trials,
/// exploitation weight clones) with population members trained through
/// train_population on the given pool. Everything is keyed on fixed seeds,
/// so the trace must not depend on the pool at all.
Pb2Trace run_pb2_search(core::ThreadPool* pool) {
  data::PdbbindConfig pcfg;
  pcfg.num_complexes = 12;
  pcfg.core_size = 2;
  pcfg.settle_runs = 1;
  pcfg.settle_steps = 4;
  core::Rng rng(61);
  const auto recs = data::SyntheticPdbbind(pcfg).generate(rng);
  const data::TrainValSplit split = data::pdbbind_train_val(recs, 0.25f, rng);
  data::DatasetConfig dc;
  dc.voxel.grid_dim = 8;
  data::ComplexDataset train(&recs, split.train, dc);
  data::ComplexDataset val(&recs, split.val, dc);

  SearchSpace space;
  space.add_log_continuous("lr", 1e-3, 1e-2);
  space.add_categorical("cov_k", {2, 3});
  Pb2Config cfg;
  cfg.population = 3;
  cfg.seed = 67;
  Pb2 pb2(space, cfg);
  std::vector<HpoConfig> pop = pb2.initial_population();

  auto build = [&](const HpoConfig& c, uint64_t seed) {
    models::SgcnnConfig mc;
    mc.covalent_gather_width = 8;
    mc.noncovalent_gather_width = 16;
    mc.noncovalent_k = 2;
    mc.covalent_k = static_cast<int>(c.at("cov_k"));
    core::Rng mrng(seed);
    return std::make_unique<models::Sgcnn>(mc, mrng);
  };
  std::vector<std::unique_ptr<models::Sgcnn>> trials;
  for (size_t i = 0; i < pop.size(); ++i) trials.push_back(build(pop[i], 70 + i));

  Pb2Trace trace;
  for (int interval = 0; interval < 2; ++interval) {
    const std::vector<float> scores = train_population(
        pop.size(),
        [&](size_t i) {
          models::TrainConfig tc;
          tc.epochs = 1;
          tc.batch_size = 6;
          tc.seed = 80 + i;
          tc.lr = static_cast<float>(pop[i].at("lr"));
          return models::train_model(*trials[i], train, val, tc).epochs.back().val_mse;
        },
        pool);
    trace.interval_scores.push_back(scores);
    const auto directives = pb2.report(scores);
    for (size_t i = 0; i < pop.size(); ++i) {
      pop[i] = directives[i].config;
      if (directives[i].clone_weights_from) {
        const size_t donor = static_cast<size_t>(*directives[i].clone_weights_from);
        auto rebuilt = build(pop[i], 90 + i);
        if (rebuilt->num_parameters() == trials[donor]->num_parameters()) {
          models::copy_parameters(*rebuilt, *trials[donor]);
        }
        trials[i] = std::move(rebuilt);
      }
    }
  }
  trace.best_config = pb2.best_config();
  trace.best_score = pb2.best_score();
  return trace;
}

TEST(Pb2, ConcurrentPopulationTrainingKeepsTrajectoryBitwise) {
  const Pb2Trace serial = run_pb2_search(nullptr);
  core::ThreadPool pool(3);
  const Pb2Trace parallel = run_pb2_search(&pool);

  ASSERT_EQ(serial.interval_scores.size(), parallel.interval_scores.size());
  for (size_t t = 0; t < serial.interval_scores.size(); ++t) {
    ASSERT_EQ(serial.interval_scores[t].size(), parallel.interval_scores[t].size());
    for (size_t i = 0; i < serial.interval_scores[t].size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint32_t>(serial.interval_scores[t][i]),
                std::bit_cast<uint32_t>(parallel.interval_scores[t][i]))
          << "interval " << t << " trial " << i;
    }
  }
  EXPECT_EQ(std::bit_cast<uint32_t>(serial.best_score),
            std::bit_cast<uint32_t>(parallel.best_score));
  EXPECT_EQ(serial.best_config, parallel.best_config);
}

TEST(Pb2, TrainPopulationPropagatesMemberFailure) {
  core::ThreadPool pool(2);
  EXPECT_THROW(train_population(
                   3,
                   [](size_t i) -> float {
                     if (i == 1) throw std::runtime_error("trial died");
                     return 1.0f;
                   },
                   &pool),
               std::runtime_error);
}

}  // namespace
}  // namespace df::hpo
