// Int8 inference GEMM — the quantized sibling of core/gemm.h. It serves the
// quantized Dense forward (convs have no int8 form):
//
//   C (batch x out) = Xq (u8, one runtime step per row) * Wq (s8, prepacked panels)
//
// The unsigned operand is always A (VNNI's vpdpbusd computes u8 x s8): real
// int8 values are stored offset by +128 into u8, and the epilogue subtracts
// the per-column compensation 128 * colsum(B) so the result equals the pure
// s8 x s8 product. Accumulation is int32 and therefore EXACT — every
// dispatch path (AVX-512 VNNI, scalar fallback), every blocking choice and
// every thread count produces bitwise-identical accumulators, and the one
// shared scalar requantize epilogue keeps the final fp32 outputs bitwise
// identical everywhere. That is what lets the artifact and replica tests
// pin int8 scores exactly instead of within tolerance.
//
// Packed layouts (position-independent byte blobs; a B image is serialized
// into .dfca artifacts exactly like the fp32 serving image of pack_b_full):
//
//   B panels: column panels of NR=16 columns (zero-padded), k in groups of
//     4 (zero-padded to k4 = round_up(k, 4)). Byte index inside panel jp:
//     p4 * 64 + j * 4 + r   for column jp*16+j, depth p = 4*p4 + r.
//     One 64-byte group is exactly the vpdpbusd operand: 16 lanes x 4
//     consecutive-k bytes.
//   A rows: row-major u8, row stride k4, tail bytes zeroed. No micro-panel
//     interleave — the kernel broadcasts 4-byte groups straight from the
//     row, so the "packed" form is just the quantized matrix itself.
//
// Full-k register accumulation bounds k: |acc| <= k * 255 * 127 must stay
// inside int32, so k must be <= 66000 (gemm_s8 throws beyond that).
#pragma once

#include <cstdint>

#include "core/gemm.h"

namespace df::core {

/// Largest k gemm_u8s8f32 accepts (int32 accumulator headroom).
inline constexpr int64_t kGemmS8MaxK = 66000;

/// Bytes of a quantized+packed op(B) image: round_up(n,16) * round_up(k,4).
int64_t packed_b_bytes_s8(int64_t k, int64_t n);
/// Bytes of a quantized op(A) image: m * round_up(k,4).
int64_t quantized_a_bytes_s8(int64_t m, int64_t k);

/// Fused requantize + bias + activation tail, applied to every int32
/// accumulator while the tile is hot:
///   v = float(acc - comp_col[j]) * scale_col[j] * scale_row[i] + bias_col[j]
///       -> act(v)
/// Either scale and the bias may be null (skipped). Setting both scales
/// expresses dynamic per-row activation quantization against per-column
/// weight scales — the quantized Dense path, where each batch row carries
/// its own runtime quant step. comp_col carries 128 * colsum(quantized B) — the u8-offset
/// compensation — and may be null when A was not offset.
/// The activation evaluates the same core/simd_math.h scalar polynomials as
/// core::Epilogue, so a quantized layer's epilogue differs from its fp32
/// sibling only through the quantization itself.
struct QuantEpilogue {
  EpilogueAct act = EpilogueAct::kNone;
  float leaky_slope = 0.01f;
  const float* scale_col = nullptr;   // length n: per-out-column dequant scale
  const float* scale_row = nullptr;   // length m: per-out-row dequant scale
  const float* bias_col = nullptr;    // length n (Dense bias)
  const int32_t* comp_col = nullptr;  // length n: 128 * colsum(quantized B)
};

/// Quantize and pack op(B) (k x n, row-major, leading dimension ldb) into
/// the s8 panel layout above. Per-column scales via `inv_scale_col`
/// (length n) or the uniform `inv_scale` when it is null. When `comp128`
/// is non-null it receives 128 * colsum of the quantized matrix (length n)
/// — the epilogue compensation for a u8-offset A operand.
/// Rounding is lrintf (round-to-nearest-even under the default fp
/// environment) with clamping to [-127, 127]; [-127,127] keeps the VNNI
/// int16 pair products exact.
void pack_quantize_b_s8(int64_t k, int64_t n, const float* B, int64_t ldb,
                        const float* inv_scale_col, float inv_scale, int8_t* panels,
                        int32_t* comp128);

/// Quantize A (m x k, row-major, leading dimension lda) into the +128-offset
/// u8 row image above (row stride round_up(k,4), tail bytes zeroed). Per-row
/// scales via `inv_scale_row` (length m) or the uniform `inv_scale`.
void quantize_a_u8(int64_t m, int64_t k, const float* A, int64_t lda,
                   const float* inv_scale_row, float inv_scale, uint8_t* out);

/// C (m x n, ldc, fp32) = requantize(Au8 * Bs8). A is a quantize_a_u8 image
/// with row stride `lda` (>= round_up(k,4)); B is a pack_quantize_b_s8
/// panel image. Always overwrites C (quantized layers never accumulate).
/// Throws std::invalid_argument when k exceeds kGemmS8MaxK.
void gemm_u8s8f32(int64_t m, int64_t n, int64_t k, const uint8_t* A, int64_t lda,
                  const int8_t* b_panels, float* C, int64_t ldc, const QuantEpilogue& ep);

/// Unblocked reference with identical semantics over the same packed
/// operands — the equivalence oracle for the kernel tests. Must never be
/// called from model code.
void gemm_u8s8f32_naive(int64_t m, int64_t n, int64_t k, const uint8_t* A, int64_t lda,
                        const int8_t* b_panels, float* C, int64_t ldc, const QuantEpilogue& ep);

}  // namespace df::core
