#include "quant/calibrator.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/rng.h"
#include "nn/conv3d.h"
#include "nn/dense.h"

namespace df::quant {

std::vector<int64_t> select_calibration_indices(uint64_t seed, int64_t dataset_size,
                                                int64_t sample_size) {
  if (dataset_size <= 0 || sample_size <= 0) return {};
  if (sample_size >= dataset_size) {
    std::vector<int64_t> all(static_cast<size_t>(dataset_size));
    for (int64_t i = 0; i < dataset_size; ++i) all[static_cast<size_t>(i)] = i;
    return all;
  }
  std::vector<std::pair<uint64_t, int64_t>> keyed(static_cast<size_t>(dataset_size));
  for (int64_t i = 0; i < dataset_size; ++i) {
    keyed[static_cast<size_t>(i)] = {
        core::derive_stream(seed, core::stream_tag::kCalibSample, static_cast<uint64_t>(i)), i};
  }
  // splitmix keys are distinct in practice; the index tiebreak makes the
  // selection a total order regardless.
  std::nth_element(keyed.begin(), keyed.begin() + static_cast<long>(sample_size), keyed.end());
  std::vector<int64_t> out(static_cast<size_t>(sample_size));
  for (int64_t i = 0; i < sample_size; ++i) out[static_cast<size_t>(i)] = keyed[static_cast<size_t>(i)].second;
  std::sort(out.begin(), out.end());
  return out;
}

void RangeObserver::observe(const float* x, int64_t n) {
  observed_ += n;
  if (!histogram_phase_) {
    float m = max_abs_;
    for (int64_t i = 0; i < n; ++i) {
      const float a = std::fabs(x[i]);
      if (a > m) m = a;
    }
    max_abs_ = m;
    return;
  }
  if (hist_.empty() || max_abs_ <= 0.0f) return;
  const int bins = static_cast<int>(hist_.size());
  const float inv_width = static_cast<float>(bins) / max_abs_;
  for (int64_t i = 0; i < n; ++i) {
    const float a = std::fabs(x[i]);
    int b = static_cast<int>(a * inv_width);
    if (b >= bins) b = bins - 1;  // a == max_abs lands in the top bin
    ++hist_[static_cast<size_t>(b)];
    ++hist_total_;
  }
}

void RangeObserver::begin_histogram() {
  histogram_phase_ = true;
  if (cfg_.percentile < 100.0f && max_abs_ > 0.0f) {
    hist_.assign(static_cast<size_t>(kHistogramBins), 0);
    hist_total_ = 0;
  }
}

float RangeObserver::clipped_max() const {
  if (hist_.empty() || hist_total_ == 0 || max_abs_ <= 0.0f) return max_abs_;
  // Smallest bin upper edge whose cumulative count covers the percentile.
  // Integer threshold arithmetic in double: exact for any realistic count.
  const double need = static_cast<double>(hist_total_) * (cfg_.percentile / 100.0);
  const int bins = static_cast<int>(hist_.size());
  int64_t cum = 0;
  for (int b = 0; b < bins; ++b) {
    cum += hist_[static_cast<size_t>(b)];
    if (static_cast<double>(cum) >= need) {
      return max_abs_ * static_cast<float>(b + 1) / static_cast<float>(bins);
    }
  }
  return max_abs_;
}

void Calibrator::attach(models::Regressor& model) {
  detach();
  model_ = &model;
  walk_ = compile::walk_structure(model);
  dense_obs_.clear();
  conv_obs_.clear();
  for (nn::Dense* d : walk_.dense) {
    dense_obs_.push_back(std::make_unique<RangeObserver>(cfg_));
    d->set_observer(dense_obs_.back().get());
  }
  for (nn::Conv3d* c : walk_.conv) {
    conv_obs_.push_back(std::make_unique<RangeObserver>(cfg_));
    c->set_observer(conv_obs_.back().get());
  }
}

void Calibrator::detach() {
  if (model_ == nullptr) return;
  for (nn::Dense* d : walk_.dense) d->set_observer(nullptr);
  for (nn::Conv3d* c : walk_.conv) c->set_observer(nullptr);
  model_ = nullptr;
  walk_ = {};
}

void Calibrator::begin_histogram() {
  for (auto& o : dense_obs_) o->begin_histogram();
  for (auto& o : conv_obs_) o->begin_histogram();
}

}  // namespace df::quant
