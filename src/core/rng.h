// Deterministic random source. Every stochastic component in the library
// (weight init, dropout, docking Monte-Carlo, PB2 exploration, fault
// injection) draws from an explicitly passed Rng so whole experiments replay
// bit-identically from one seed — a prerequisite for the paper's
// fault-tolerant rescheduling story and for our tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace df::core {

/// splitmix64 finalizer: scrambles user seeds before they reach the
/// mt19937_64 engine. Sequential seeds (0, 1, 2, ...) fed directly into
/// mt19937_64 produce correlated first outputs, which breaks anything that
/// derives many streams from consecutive seeds (job failure injection,
/// per-worker loader rngs).
inline uint64_t mix_seed(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Derive a reproducible child seed for element `index` of logical stream
/// `tag` under a root `seed`. Components that need many independent RNGs
/// (per-job scoring streams, fault-injection draws, per-compound assay
/// noise) key their stream on *stable identifiers* through this helper
/// instead of consuming a shared engine in arrival order — that is what
/// makes whole campaigns bitwise independent of thread count and of
/// kill/resume history.
inline uint64_t derive_stream(uint64_t seed, uint64_t tag, uint64_t index) {
  return mix_seed(mix_seed(seed ^ tag) + index);
}

/// Well-known stream tags. Components that share one user seed (trainer,
/// data loader, campaign) key their derive_stream calls on distinct tags so
/// their streams can never collide; per-epoch components add the epoch
/// index to the tag. Listed centrally because a collision between two
/// layers would be invisible locally but would correlate "independent"
/// draws.
namespace stream_tag {
inline constexpr uint64_t kLoaderShuffle = 0x10adC0FFEE000001ULL;  // + nothing; index = epoch
inline constexpr uint64_t kLoaderSample = 0x10adC0FFEE000002ULL;   // + epoch; index = position
inline constexpr uint64_t kTrainDropout = 0xD0D0C0FFEE000003ULL;   // + epoch; index = position
inline constexpr uint64_t kEvalSample = 0xE7a1C0FFEE000004ULL;     // + nothing; index = position
}  // namespace stream_tag

class Rng {
 public:
  explicit Rng(uint64_t seed = 0x5eedULL) : engine_(mix_seed(seed)) {}

  float uniform(float lo = 0.0f, float hi = 1.0f) {
    return std::uniform_real_distribution<float>(lo, hi)(engine_);
  }
  double uniform_d(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }
  float normal(float mean = 0.0f, float stddev = 1.0f) {
    return std::normal_distribution<float>(mean, stddev)(engine_);
  }
  /// Integer in [lo, hi] inclusive.
  int64_t randint(int64_t lo, int64_t hi) {
    return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
  }
  bool bernoulli(double p) { return std::bernoulli_distribution(p)(engine_); }

  /// Pick an element index weighted uniformly.
  size_t pick(size_t n) { return static_cast<size_t>(randint(0, static_cast<int64_t>(n) - 1)); }

  template <typename T>
  const T& choice(const std::vector<T>& v) {
    return v[pick(v.size())];
  }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    std::shuffle(v.begin(), v.end(), engine_);
  }

  /// Derive an independent child stream (splitmix-style) so parallel workers
  /// never share state.
  Rng fork() { return Rng(engine_() ^ 0x9e3779b97f4a7c15ULL); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace df::core
