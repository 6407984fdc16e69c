#include "nn/activations.h"

#include <cmath>
#include <cstring>

#include "core/simd_math.h"

namespace df::nn {

const char* activation_name(Activation a) {
  switch (a) {
    case Activation::kReLU: return "ReLU";
    case Activation::kLeakyReLU: return "LReLU";
    case Activation::kSELU: return "SELU";
  }
  return "?";
}

Tensor ReLU::forward(const Tensor& x) {
  if (training_) cached_input_ = x;
  return x.map([](float v) { return v > 0.0f ? v : 0.0f; });
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (int64_t i = 0; i < g.numel(); ++i)
    if (cached_input_[i] <= 0.0f) g[i] = 0.0f;
  return g;
}

Tensor LeakyReLU::forward(const Tensor& x) {
  if (training_) cached_input_ = x;
  const float s = slope_;
  return x.map([s](float v) { return v > 0.0f ? v : s * v; });
}

Tensor LeakyReLU::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (int64_t i = 0; i < g.numel(); ++i)
    if (cached_input_[i] <= 0.0f) g[i] *= slope_;
  return g;
}

Tensor SELU::forward(const Tensor& x) {
  if (training_) cached_input_ = x;
  // Same vectorized exp as the fused GEMM epilogue (core/simd_math.h), so a
  // standalone SELU layer and an epilogue-fused SELU agree bitwise. The
  // tail runs through the identical vector code on a padded chunk — lanes
  // are position-independent.
  Tensor y = Tensor::uninit(x.shape());
  const float* in = x.data();
  float* out = y.data();
  const int64_t n = x.numel();
  using core::simd::vf16;
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    vf16 v;
    std::memcpy(&v, in + i, sizeof(v));
    v = core::simd::vselu16(v, kScale, kAlpha);
    std::memcpy(out + i, &v, sizeof(v));
  }
  if (i < n) {
    alignas(64) float buf[16] = {};
    std::memcpy(buf, in + i, static_cast<size_t>(n - i) * sizeof(float));
    vf16 v;
    std::memcpy(&v, buf, sizeof(v));
    v = core::simd::vselu16(v, kScale, kAlpha);
    std::memcpy(buf, &v, sizeof(v));
    std::memcpy(out + i, buf, static_cast<size_t>(n - i) * sizeof(float));
  }
  return y;
}

Tensor SELU::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (int64_t i = 0; i < g.numel(); ++i) {
    const float v = cached_input_[i];
    g[i] *= v > 0.0f ? kScale : kScale * kAlpha * core::simd::exp_scalar(v);
  }
  return g;
}

std::unique_ptr<Module> make_activation(Activation a) {
  switch (a) {
    case Activation::kReLU: return std::make_unique<ReLU>();
    case Activation::kLeakyReLU: return std::make_unique<LeakyReLU>();
    case Activation::kSELU: return std::make_unique<SELU>();
  }
  return std::make_unique<ReLU>();
}

bool epilogue_act_of(const Module* m, core::EpilogueAct* act, float* slope) {
  if (dynamic_cast<const ReLU*>(m) != nullptr) {
    *act = core::EpilogueAct::kReLU;
    return true;
  }
  if (const auto* lrelu = dynamic_cast<const LeakyReLU*>(m)) {
    *act = core::EpilogueAct::kLeakyReLU;
    *slope = lrelu->slope();
    return true;
  }
  if (dynamic_cast<const SELU*>(m) != nullptr) {
    *act = core::EpilogueAct::kSELU;
    return true;
  }
  return false;
}

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }
float dsigmoid_from_y(float y) { return y * (1.0f - y); }
float dtanh_from_y(float y) { return 1.0f - y * y; }

}  // namespace df::nn
