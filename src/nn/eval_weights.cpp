#include "nn/eval_weights.h"

#include <stdexcept>

namespace df::nn {

void EvalWeights::check_fits(int64_t f32_len, int64_t int8_len, int64_t n_scales, int64_t n_comp,
                             const std::string& who) const {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(who + ": eval weights do not fit the layer (" + what + ")");
  };
  switch (kind) {
    case Kind::kNone:
      return;
    case Kind::kF32:
      if (image == nullptr || image_len != f32_len) fail("fp32 image length");
      return;
    case Kind::kInt8:
      if (image == nullptr || image_len != int8_len) fail("int8 image length");
      if (scales == nullptr || scales_len != n_scales) fail("int8 scales length");
      if (comp_len != n_comp || (n_comp > 0 && comp == nullptr)) fail("int8 comp length");
      return;
  }
  fail("unknown kind " + std::to_string(static_cast<int64_t>(kind)));
}

void int8_weight_steps(const std::vector<float>& wmax, std::vector<float>& scale,
                       std::vector<float>& inv) {
  const size_t n = wmax.size();
  scale.resize(n);
  inv.resize(n);
  for (size_t j = 0; j < n; ++j) {
    const float s = wmax[j] > 0.0f ? wmax[j] / 127.0f : 1.0f;
    scale[j] = s;
    inv[j] = 1.0f / s;
  }
}

}  // namespace df::nn
