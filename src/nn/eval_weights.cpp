#include "nn/eval_weights.h"

#include <stdexcept>

namespace df::nn {

void EvalWeights::check_fits(int64_t f32_len, const std::string& who) const {
  const auto fail = [&](const std::string& what) {
    throw std::invalid_argument(who + ": eval weights do not fit the layer (" + what + ")");
  };
  switch (kind) {
    case Kind::kNone:
      return;
    case Kind::kF32:
      if (image == nullptr || image_len != f32_len) fail("fp32 image length");
      return;
  }
  fail("unknown kind " + std::to_string(static_cast<int64_t>(kind)));
}

}  // namespace df::nn
