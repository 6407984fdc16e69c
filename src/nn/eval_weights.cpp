#include "nn/eval_weights.h"

#include <stdexcept>

namespace df::nn {

void EvalWeights::check_fits(int64_t f32_len, int64_t int8_len, int64_t n_out,
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
      if (int8_len == 0) fail("the layer has no int8 form");
      if (image == nullptr || image_len != int8_len) fail("int8 image length");
      if (scales == nullptr || scales_len != n_out) fail("int8 scales length");
      if (comp == nullptr || comp_len != n_out) fail("int8 comp length");
      return;
  }
  fail("unknown kind " + std::to_string(static_cast<int64_t>(kind)));
}

}  // namespace df::nn
