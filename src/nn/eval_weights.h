// The serving form of a Dense/Conv3d GEMM weight. Each layer holds one
// immutable EvalWeights handle beside its training parameters; the layer
// itself produces handles (packed_f32 / packed_int8) and its eval forward
// consumes them, so the model compiler, the quantizer and the artifact code
// never see a weight layout. A handle is one of:
//
//   * kNone — eval forwards run on the raw weight (Dense: the plain sgemm;
//             Conv3d: Wᵀ packed per forward);
//   * kF32  — Dense: a core::pack_b_full panel image, streamed by
//             core::sgemm_prepacked; Conv3d: the Wᵀ row image its
//             core::sgemm_indirect forward multiplies by (both bitwise
//             identical to the kNone forward);
//   * kInt8 — a core/gemm_s8.h weight image plus per-output dequant scales,
//             the Dense u8-offset compensation vector and the calibrated
//             activation step.
//
// Owned and borrowed storage differ only in what `keep_alive` points to: the
// producer's buffers, or the io::ArtifactReader whose mapping the views
// point into. Training forwards ignore the handle.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace df::nn {

struct EvalWeights {
  enum class Kind : int64_t { kNone = 0, kF32 = 1, kInt8 = 2 };

  Kind kind = Kind::kNone;
  const void* image = nullptr;    // floats (kF32) or int8 bytes (kInt8)
  int64_t image_len = 0;          // elements of `image`
  const float* scales = nullptr;  // kInt8: per-output dequant scales
  int64_t scales_len = 0;
  const int32_t* comp = nullptr;  // kInt8 Dense: per-output compensation
  int64_t comp_len = 0;
  float act_scale = 1.0f;         // kInt8: calibrated activation step
  std::shared_ptr<const void> keep_alive;

  const float* f32() const { return static_cast<const float*>(image); }
  const int8_t* s8() const { return static_cast<const int8_t*>(image); }

  /// Throw std::invalid_argument unless the handle's kind is known and its
  /// lengths are the given ones for that kind (`who` names the layer).
  void check_fits(int64_t f32_len, int64_t int8_len, int64_t n_scales, int64_t n_comp,
                  const std::string& who) const;
};

/// Owning buffers behind a producer-built int8 handle.
struct Int8Image {
  std::vector<int8_t> image;
  std::vector<float> scales;
  std::vector<int32_t> comp;
};

/// Per-output symmetric int8 steps: scale[j] = wmax[j] / 127 (1.0 for an
/// all-zero output, which quantizes to zeros under any step) and its inverse.
void int8_weight_steps(const std::vector<float>& wmax, std::vector<float>& scale,
                       std::vector<float>& inv);

}  // namespace df::nn
