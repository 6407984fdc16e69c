#include "nn/dropout.h"

namespace df::nn {

namespace {
// Per-thread keyed-dropout state. The ordinal advances once per Dropout
// forward inside the active scope, giving every dropout layer in a model a
// distinct stream without the layers having to know their own identity.
thread_local bool t_keyed_active = false;
thread_local uint64_t t_keyed_key = 0;
thread_local uint64_t t_keyed_ordinal = 0;

constexpr uint64_t kLayerStreamTag = 0xD70Fu;
}  // namespace

KeyedDropoutScope::KeyedDropoutScope(uint64_t key)
    : prev_active_(t_keyed_active), prev_key_(t_keyed_key), prev_ordinal_(t_keyed_ordinal) {
  t_keyed_active = true;
  t_keyed_key = key;
  t_keyed_ordinal = 0;
}

KeyedDropoutScope::~KeyedDropoutScope() {
  t_keyed_active = prev_active_;
  t_keyed_key = prev_key_;
  t_keyed_ordinal = prev_ordinal_;
}

Tensor Dropout::forward(const Tensor& x) {
  if (!training_ || rate_ <= 0.0f) {
    if (training_) mask_ = Tensor();  // eval keeps the training mask for backward
    // Keep the ordinal advancing even when this layer is a no-op so a
    // model whose HPO config zeroes one rate draws the same streams for
    // the remaining layers as a config that prunes it.
    if (t_keyed_active) ++t_keyed_ordinal;
    return x;
  }
  core::Rng keyed(0);
  core::Rng* rng = &rng_;
  if (t_keyed_active) {
    keyed = core::Rng(core::derive_stream(t_keyed_key, kLayerStreamTag, t_keyed_ordinal++));
    rng = &keyed;
  }
  const float keep = 1.0f - rate_;
  mask_ = Tensor(x.shape());
  Tensor out(x.shape());
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float m = rng->bernoulli(keep) ? 1.0f / keep : 0.0f;
    mask_[i] = m;
    out[i] = x[i] * m;
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_.empty()) return grad_out;
  return grad_out * mask_;
}

}  // namespace df::nn
