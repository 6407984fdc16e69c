// The serving form of a Dense/Conv3d GEMM weight. Each layer holds one
// immutable EvalWeights handle beside its training parameters; the layer
// itself produces handles (packed_f32, and Dense's packed_int8) and its
// eval forward consumes them, so the model compiler, the quantizer and the
// artifact code never see a weight layout. A handle is one of:
//
//   * kNone — eval forwards run on the raw weight (Dense: the plain sgemm;
//             Conv3d: Wᵀ packed per forward);
//   * kF32  — Dense: a core::pack_b_full panel image, streamed by
//             core::sgemm_prepacked; Conv3d: the Wᵀ row image its
//             core::sgemm_indirect forward multiplies by (both bitwise
//             identical to the kNone forward);
//   * kInt8 — Dense only: a core/gemm_s8.h panel image plus per-output
//             dequant scales and the u8-offset compensation vector. Conv3d
//             has no int8 form and rejects the kind.
//
// Owned and borrowed storage differ only in what `keep_alive` points to: the
// producer's buffers, or the io::ArtifactReader whose mapping the views
// point into. Training forwards ignore the handle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace df::nn {

struct EvalWeights {
  enum class Kind : int64_t { kNone = 0, kF32 = 1, kInt8 = 2 };

  Kind kind = Kind::kNone;
  const void* image = nullptr;    // floats (kF32) or int8 bytes (kInt8)
  int64_t image_len = 0;          // elements of `image`
  const float* scales = nullptr;  // kInt8: per-output dequant scales
  int64_t scales_len = 0;
  const int32_t* comp = nullptr;  // kInt8: per-output compensation
  int64_t comp_len = 0;
  std::shared_ptr<const void> keep_alive;

  const float* f32() const { return static_cast<const float*>(image); }
  const int8_t* s8() const { return static_cast<const int8_t*>(image); }

  /// Throw std::invalid_argument unless the handle's kind is known and its
  /// lengths are the given ones for that kind: an fp32 image of `f32_len`
  /// floats, or an int8 image of `int8_len` bytes with `n_out` scales and
  /// compensations. A layer with no int8 form passes int8_len = 0, which
  /// rejects kInt8. `who` names the layer.
  void check_fits(int64_t f32_len, int64_t int8_len, int64_t n_out, const std::string& who) const;
};

}  // namespace df::nn
