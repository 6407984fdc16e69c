// The serving form of a Dense/Conv3d GEMM weight. Each layer holds one
// immutable EvalWeights handle beside its training parameters; the layer
// itself produces handles (packed_f32) and its eval forward consumes them,
// so the model compiler and the artifact code never see a weight layout. A
// handle is one of:
//
//   * kNone — eval forwards run on the raw weight (Dense: the plain sgemm;
//             Conv3d: Wᵀ packed per forward);
//   * kF32  — Dense: a core::pack_b_full panel image, streamed by
//             core::sgemm_prepacked; Conv3d: the Wᵀ row image its
//             core::sgemm_indirect forward multiplies by (both bitwise
//             identical to the kNone forward).
//
// Owned and borrowed storage differ only in what `keep_alive` points to: the
// producer's buffer, or the io::ArtifactReader whose mapping the image
// points into. Training forwards ignore the handle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace df::nn {

struct EvalWeights {
  enum class Kind : int64_t { kNone = 0, kF32 = 1 };

  Kind kind = Kind::kNone;
  const float* image = nullptr;  // kF32: the layer's packed weight image
  int64_t image_len = 0;         // floats in `image`
  std::shared_ptr<const void> keep_alive;

  /// Throw std::invalid_argument unless the handle's kind is known and a
  /// kF32 handle holds an image of `f32_len` floats. `who` names the layer.
  void check_fits(int64_t f32_len, const std::string& who) const;
};

}  // namespace df::nn
