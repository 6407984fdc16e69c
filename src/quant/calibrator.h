// Activation-range calibration for post-training int8 quantization.
//
// The calibrator hangs one RangeObserver on every Dense/Conv3d GEMM layer
// (canonical compile::walk_structure order) and replays a calibration set
// through the eval forward, so each observer sees exactly the tensor the
// quantized kernel will later have to represent. Two passes:
//
//   1. max-abs     — each observer records its global max |x|.
//   2. histogram   — a fixed-range histogram of |x| over [0, max_abs];
//                    the clipped range is the smallest bound covering
//                    `percentile` percent of observed values. Percentile
//                    clipping discards the far outliers that would other-
//                    wise stretch the int8 step size over empty range.
//
// Determinism: the calibration subset is selected by keying
// core::derive_stream(seed, kCalibSample, index) per *dataset index* and
// taking the smallest keys — a pure function of (seed, dataset size,
// sample count), independent of iteration or thread order. Observation
// happens at batch level outside the layers' parallel regions, and layer
// inputs are bitwise thread-count-independent (the repo-wide replica
// contract), so the resulting scales are bitwise identical at any compute
// pool width. tests/test_quant.cpp pins this.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "compile/model_compiler.h"
#include "models/regressor.h"
#include "nn/observer.h"

namespace df::quant {

struct CalibConfig {
  float percentile = 99.9f;  // |x| coverage; >= 100 disables clipping
};

/// Bins of the histogram pass over [0, max_abs].
constexpr int kHistogramBins = 2048;

/// Deterministic calibration subset of `sample_size` indices out of
/// [0, dataset_size): the indices whose derive_stream keys are smallest,
/// returned in ascending index order.
std::vector<int64_t> select_calibration_indices(uint64_t seed, int64_t dataset_size,
                                                int64_t sample_size);

/// Per-layer activation range estimator (see file comment for the phases).
class RangeObserver : public nn::ActivationObserver {
 public:
  explicit RangeObserver(const CalibConfig& cfg) : cfg_(cfg) {}

  void observe(const float* x, int64_t n) override;
  /// Switch to the histogram phase; range [0, max_abs] is frozen now.
  void begin_histogram();

  float max_abs() const { return max_abs_; }
  int64_t observed() const { return observed_; }
  /// Percentile-clipped |x| bound: max_abs when clipping is disabled, no
  /// histogram pass ran, or the layer never saw a nonzero value.
  float clipped_max() const;

 private:
  CalibConfig cfg_;
  float max_abs_ = 0.0f;
  int64_t observed_ = 0;
  bool histogram_phase_ = false;
  std::vector<int64_t> hist_;
  int64_t hist_total_ = 0;
};

/// Owns the observers and their attachment to a model's GEMM layers.
/// Lifecycle: attach -> eval pass -> begin_histogram -> eval pass ->
/// detach (or destruction; the destructor detaches).
class Calibrator {
 public:
  explicit Calibrator(CalibConfig cfg = {}) : cfg_(cfg) {}
  ~Calibrator() { detach(); }
  Calibrator(const Calibrator&) = delete;
  Calibrator& operator=(const Calibrator&) = delete;

  /// Install one observer per Dense/Conv3d of `model`, in canonical walk
  /// order. The model must stay alive and structurally unchanged until
  /// detach().
  void attach(models::Regressor& model);
  /// Remove the observers; the range estimates stay readable.
  void detach();
  /// Switch every observer to the histogram phase.
  void begin_histogram();

  const CalibConfig& config() const { return cfg_; }
  size_t dense_count() const { return dense_obs_.size(); }
  size_t conv_count() const { return conv_obs_.size(); }
  const RangeObserver& dense_observer(size_t i) const { return *dense_obs_[i]; }
  const RangeObserver& conv_observer(size_t i) const { return *conv_obs_[i]; }

 private:
  CalibConfig cfg_;
  compile::StructureWalk walk_;
  models::Regressor* model_ = nullptr;
  std::vector<std::unique_ptr<RangeObserver>> dense_obs_;
  std::vector<std::unique_ptr<RangeObserver>> conv_obs_;
};

}  // namespace df::quant
