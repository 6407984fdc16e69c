// Population-Based Bandits (paper §2.2 / §3.2): a population of trials
// trains in parallel; every `t_ready` epochs the bottom quantile clones a
// top performer's weights-and-config (exploit) and proposes new continuous
// hyper-parameters by maximizing the GP-UCB of a time-varying GP fitted to
// observed score improvements (explore). The controller is decoupled from
// model training: the caller steps its trials and reports scores, and reads
// back config changes plus clone-from directives (so it can copy weights,
// mirroring Ray Tune's checkpoint exploitation).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/parallel.h"
#include "core/rng.h"
#include "hpo/gp.h"
#include "hpo/search_space.h"

namespace df::hpo {

struct Pb2Config {
  int population = 8;
  double quantile = 0.5;    // paper: lambda% = 50
  double ucb_kappa = 1.5;
  int explore_candidates = 64;  // random candidates scored by UCB
  uint64_t seed = 42;
};

struct TrialDirective {
  HpoConfig config;
  /// If set, the trial should restore weights from this trial before
  /// continuing (exploitation clone).
  std::optional<int> clone_weights_from;
};

/// Run one PB2 interval's member training concurrently: `train_member(i)`
/// trains trial i for the interval and returns its score (validation MSE).
/// Members fan out over `pool` and the calling thread when a pool is given
/// (the paper's "population trains in parallel"); nullptr runs them
/// serially.
/// Scores come back in trial order, and each member must be internally
/// deterministic (own model/loader/optimizer, stable-keyed RNG — what
/// train_model guarantees), so the score vector — and therefore the whole
/// PB2 search trajectory — is bitwise independent of the pool size.
/// Members run as parallel_for bodies, so numeric kernels and training
/// lanes inside them stay serial; train with threads=1 and let the
/// population be the parallelism.
std::vector<float> train_population(size_t population,
                                    const std::function<float(size_t)>& train_member,
                                    core::ThreadPool* pool = nullptr);

class Pb2 {
 public:
  Pb2(SearchSpace space, Pb2Config cfg);

  /// Initial random population.
  std::vector<HpoConfig> initial_population();

  /// Report scores for the just-finished interval (LOWER is better —
  /// validation MSE, the paper's objective Q). Returns one directive per
  /// trial: top trials keep their config; bottom-quantile trials clone a
  /// top performer and explore new hyper-parameters.
  std::vector<TrialDirective> report(const std::vector<float>& scores);

  int interval() const { return interval_; }
  const HpoConfig& best_config() const { return best_config_; }
  float best_score() const { return best_score_; }
  const SearchSpace& space() const { return space_; }

 private:
  HpoConfig explore(const HpoConfig& base);

  SearchSpace space_;
  Pb2Config cfg_;
  core::Rng rng_;
  int interval_ = 0;
  std::vector<HpoConfig> population_;
  std::vector<float> last_scores_;
  // GP observations: (normalized config, interval) -> score improvement.
  std::vector<std::vector<double>> obs_x_;
  std::vector<double> obs_t_, obs_y_;
  TimeVaryingGP gp_;
  HpoConfig best_config_;
  float best_score_ = 1e30f;
};

}  // namespace df::hpo
