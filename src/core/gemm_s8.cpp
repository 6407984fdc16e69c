#include "core/gemm_s8.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"
#include "core/simd_math.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#define DF_GEMM_S8_AVX512F 1
#endif
#if defined(__AVX512VNNI__) && defined(__AVX512BW__) && defined(__AVX512F__)
#define DF_GEMM_S8_VNNI 1
#endif

namespace df::core {

namespace {

constexpr int64_t kNRq = 16;  // columns per panel
constexpr int64_t kMRq = 6;   // rows per register tile
constexpr int64_t kNBq = 4;   // panels per tile (64 columns)

constexpr float kSeluScale = 1.0507009873554805f;
constexpr float kSeluAlpha = 1.6732632423543772f;

inline int64_t round_up4(int64_t v) { return (v + 3) & ~int64_t(3); }
inline int64_t round_up16(int64_t v) { return (v + 15) & ~int64_t(15); }

// Same scalar activation functions as the fp32 epilogue (core/gemm.cpp),
// so fused == separate holds for quantized layers too.
inline float apply_act_q(float v, EpilogueAct act, float slope) {
  switch (act) {
    case EpilogueAct::kNone: return v;
    case EpilogueAct::kReLU: return v > 0.0f ? v : 0.0f;
    case EpilogueAct::kLeakyReLU: return v > 0.0f ? v : slope * v;
    case EpilogueAct::kSELU: return simd::selu_scalar(v, kSeluScale, kSeluAlpha);
    case EpilogueAct::kSigmoid: return simd::sigmoid_scalar(v);
    case EpilogueAct::kTanh: return simd::tanh_scalar(v);
  }
  return v;
}

// The one requantize formula. Shared by the blocked kernel and the naive
// reference so their fp32 outputs are identical by construction.
inline float requant_elem(const QuantEpilogue& ep, int32_t acc, int64_t i, int64_t j) {
  if (ep.comp_col != nullptr) acc -= ep.comp_col[j];
  float v = static_cast<float>(acc);
  if (ep.scale_col != nullptr) v *= ep.scale_col[j];
  if (ep.scale_row != nullptr) v *= ep.scale_row[i];
  if (ep.bias_col != nullptr) v += ep.bias_col[j];
  return apply_act_q(v, ep.act, ep.leaky_slope);
}

// Requantize an mr x nc int32 tile (row stride kNBq*kNRq) into C at (i0, j0).
void store_tile(const int32_t* tile, int64_t i0, int64_t j0, int64_t mr, int64_t nc, float* C,
                int64_t ldc, const QuantEpilogue& ep) {
  for (int64_t r = 0; r < mr; ++r) {
    const int64_t i = i0 + r;
    float* crow = C + i * ldc + j0;
    const int32_t* arow = tile + r * (kNBq * kNRq);
    for (int64_t c = 0; c < nc; ++c) crow[c] = requant_elem(ep, arow[c], i, j0 + c);
  }
}

#if defined(DF_GEMM_S8_VNNI)

// MR_T x (NB_T*16) register tile over the full depth: one vpdpbusd per
// (row, panel) per 4-k group — 64 u8*s8 MACs per instruction, int32 exact.
template <int MR_T, int NB_T>
void micro_vnni(const uint8_t* a, int64_t lda, const int8_t* bp, int64_t panel_bytes, int64_t k4,
                int32_t* tile) {
  __m512i acc[MR_T][NB_T];
  for (int r = 0; r < MR_T; ++r)
    for (int t = 0; t < NB_T; ++t) acc[r][t] = _mm512_setzero_si512();
  const int64_t groups = k4 / 4;
  for (int64_t p4 = 0; p4 < groups; ++p4) {
    __m512i b[NB_T];
    for (int t = 0; t < NB_T; ++t)
      b[t] = _mm512_loadu_si512(bp + t * panel_bytes + p4 * 64);
    for (int r = 0; r < MR_T; ++r) {
      int32_t aw;
      std::memcpy(&aw, a + r * lda + p4 * 4, sizeof(aw));
      const __m512i av = _mm512_set1_epi32(aw);
      for (int t = 0; t < NB_T; ++t) acc[r][t] = _mm512_dpbusd_epi32(acc[r][t], av, b[t]);
    }
  }
  for (int r = 0; r < MR_T; ++r)
    for (int t = 0; t < NB_T; ++t)
      _mm512_storeu_si512(tile + r * (kNBq * kNRq) + t * kNRq, acc[r][t]);
}

using MicroFn = void (*)(const uint8_t*, int64_t, const int8_t*, int64_t, int64_t, int32_t*);

template <int MR_T>
constexpr void fill_row(MicroFn* row) {
  row[0] = micro_vnni<MR_T, 1>;
  row[1] = micro_vnni<MR_T, 2>;
  row[2] = micro_vnni<MR_T, 3>;
  row[3] = micro_vnni<MR_T, 4>;
}

const MicroFn* micro_table() {
  static MicroFn table[kMRq][kNBq];
  static const bool init = [] {
    fill_row<1>(table[0]);
    fill_row<2>(table[1]);
    fill_row<3>(table[2]);
    fill_row<4>(table[3]);
    fill_row<5>(table[4]);
    fill_row<6>(table[5]);
    return true;
  }();
  (void)init;
  return &table[0][0];
}

inline void micro_dispatch(int64_t mr, int64_t nb, const uint8_t* a, int64_t lda,
                           const int8_t* bp, int64_t panel_bytes, int64_t k4, int32_t* tile) {
  micro_table()[(mr - 1) * kNBq + (nb - 1)](a, lda, bp, panel_bytes, k4, tile);
}

#else  // scalar fallback (off -march=native / non-AVX512VNNI hosts)

// Identical int32 accumulation over the identical panel layout — integer
// arithmetic is exact, so this produces bit-for-bit the VNNI path's tiles.
void micro_dispatch(int64_t mr, int64_t nb, const uint8_t* a, int64_t lda, const int8_t* bp,
                    int64_t panel_bytes, int64_t k4, int32_t* tile) {
  std::memset(tile, 0, static_cast<size_t>(kMRq * kNBq * kNRq) * sizeof(int32_t));
  const int64_t groups = k4 / 4;
  for (int64_t p4 = 0; p4 < groups; ++p4) {
    for (int64_t r = 0; r < mr; ++r) {
      const uint8_t* ap = a + r * lda + p4 * 4;
      const int32_t a0 = ap[0], a1 = ap[1], a2 = ap[2], a3 = ap[3];
      int32_t* trow = tile + r * (kNBq * kNRq);
      for (int64_t t = 0; t < nb; ++t) {
        const int8_t* bg = bp + t * panel_bytes + p4 * 64;
        int32_t* tl = trow + t * kNRq;
        for (int64_t j = 0; j < kNRq; ++j) {
          tl[j] += a0 * bg[j * 4 + 0] + a1 * bg[j * 4 + 1] + a2 * bg[j * 4 + 2] +
                   a3 * bg[j * 4 + 3];
        }
      }
    }
  }
}

#endif  // DF_GEMM_S8_VNNI

inline int8_t quantize_clamped(float v, float inv) {
  const long q = lrintf(v * inv);
  return static_cast<int8_t>(std::clamp<long>(q, -127, 127));
}

// Vectorized row quantizers. Activation quantization runs on every eval
// call (the weights were quantized ahead of time), so scalar lrintf here
// would cost more than the VNNI GEMM it feeds. vcvtps2dq rounds to
// nearest-even under the default MXCSR mode — exactly lrintf's rounding in
// the default fp environment — so the vector and scalar paths produce
// bitwise-identical bytes (pinned against the NATIVE=OFF build by the
// cross-build artifact tests).

/// n floats -> clamped s8, per-element inv scales via `inv_col` (length n)
/// or the uniform `inv` when it is null.
inline void quantize_row_s8(const float* src, int64_t n, const float* inv_col, float inv,
                            int8_t* dst) {
  int64_t j = 0;
#if defined(DF_GEMM_S8_AVX512F)
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512i lo = _mm512_set1_epi32(-127), hi = _mm512_set1_epi32(127);
  for (; j + 16 <= n; j += 16) {
    const __m512 s = inv_col != nullptr ? _mm512_loadu_ps(inv_col + j) : vinv;
    __m512i q = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(src + j), s));
    q = _mm512_min_epi32(_mm512_max_epi32(q, lo), hi);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j), _mm512_cvtepi32_epi8(q));
  }
#endif
  for (; j < n; ++j) {
    dst[j] = quantize_clamped(src[j], inv_col != nullptr ? inv_col[j] : inv);
  }
}

/// n floats -> offset-128 u8 with one uniform inv scale (the quantized
/// Dense A-operand form: one runtime scale per batch row).
inline void quantize_row_u8(const float* src, int64_t n, float inv, uint8_t* dst) {
  int64_t j = 0;
#if defined(DF_GEMM_S8_AVX512F)
  const __m512 vinv = _mm512_set1_ps(inv);
  const __m512i lo = _mm512_set1_epi32(-127), hi = _mm512_set1_epi32(127);
  const __m512i off = _mm512_set1_epi32(128);
  for (; j + 16 <= n; j += 16) {
    __m512i q = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(src + j), vinv));
    q = _mm512_add_epi32(_mm512_min_epi32(_mm512_max_epi32(q, lo), hi), off);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + j), _mm512_cvtepi32_epi8(q));
  }
#endif
  for (; j < n; ++j) dst[j] = static_cast<uint8_t>(quantize_clamped(src[j], inv) + 128);
}

}  // namespace

int64_t packed_b_bytes_s8(int64_t k, int64_t n) { return round_up16(n) * round_up4(k); }

int64_t quantized_a_bytes_s8(int64_t m, int64_t k) { return m * round_up4(k); }

void pack_quantize_b_s8(int64_t k, int64_t n, const float* B, int64_t ldb,
                        const float* inv_scale_col, float inv_scale, int8_t* panels,
                        int32_t* comp128) {
  const int64_t k4 = round_up4(k);
  const int64_t panel_bytes = k4 * kNRq;
  std::memset(panels, 0, static_cast<size_t>(round_up16(n) * k4));
  if (comp128 != nullptr) std::memset(comp128, 0, static_cast<size_t>(n) * sizeof(int32_t));
  // Row-major traversal: sequential reads of B, a handful of panel write
  // streams. Each row is quantized vectorized into `qrow`, then folded into
  // the panels. A 64-byte panel group is 16 int32 lanes (one per column)
  // whose byte lane (p & 3) holds depth p, so with the groups pre-zeroed the
  // fold is an OR of the zero-extended bytes shifted left by 8*(p & 3).
  thread_local std::vector<int8_t> qrow;
  qrow.resize(static_cast<size_t>(n));
  for (int64_t p = 0; p < k; ++p) {
    quantize_row_s8(B + p * ldb, n, inv_scale_col, inv_scale, qrow.data());
    const int64_t base = (p >> 2) * 64 + (p & 3);
    int64_t j = 0;
#if defined(DF_GEMM_S8_AVX512F)
    const __m128i shift = _mm_cvtsi32_si128(8 * static_cast<int>(p & 3));
    for (; j + 16 <= n; j += 16) {
      const __m128i qb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(qrow.data() + j));
      int8_t* grp = panels + (j >> 4) * panel_bytes + (p >> 2) * 64;
      const __m512i g = _mm512_loadu_si512(grp);
      _mm512_storeu_si512(
          grp, _mm512_or_si512(g, _mm512_sll_epi32(_mm512_cvtepu8_epi32(qb), shift)));
      if (comp128 != nullptr) {
        const __m512i c = _mm512_loadu_si512(comp128 + j);
        _mm512_storeu_si512(comp128 + j, _mm512_add_epi32(c, _mm512_cvtepi8_epi32(qb)));
      }
    }
#endif
    for (; j < n; ++j) {
      const int8_t q = qrow[static_cast<size_t>(j)];
      panels[(j >> 4) * panel_bytes + base + (j & 15) * 4] = q;
      if (comp128 != nullptr) comp128[j] += q;
    }
  }
  if (comp128 != nullptr) {
    for (int64_t j = 0; j < n; ++j) comp128[j] *= 128;
  }
}

void quantize_a_u8(int64_t m, int64_t k, const float* A, int64_t lda,
                   const float* inv_scale_row, float inv_scale, uint8_t* out) {
  const int64_t k4 = round_up4(k);
  for (int64_t i = 0; i < m; ++i) {
    const float inv = inv_scale_row != nullptr ? inv_scale_row[i] : inv_scale;
    uint8_t* orow = out + i * k4;
    quantize_row_u8(A + i * lda, k, inv, orow);
    // Tail bytes pair with zero-padded B panel bytes (product 0 either
    // way); zeroed for deterministic images.
    for (int64_t p = k; p < k4; ++p) orow[p] = 0;
  }
}

void gemm_u8s8f32(int64_t m, int64_t n, int64_t k, const uint8_t* A, int64_t lda,
                  const int8_t* b_panels, float* C, int64_t ldc, const QuantEpilogue& ep) {
  if (m <= 0 || n <= 0) return;
  if (k > kGemmS8MaxK) {
    throw std::invalid_argument("gemm_u8s8f32: k=" + std::to_string(k) +
                                " exceeds the int32 full-depth accumulation bound " +
                                std::to_string(kGemmS8MaxK));
  }
  const int64_t k4 = round_up4(k);
  if (lda < k4) throw std::invalid_argument("gemm_u8s8f32: lda below round_up(k,4)");
  const int64_t panels_n = round_up16(n) / kNRq;
  const int64_t panel_bytes = k4 * kNRq;
  const int64_t jblocks = (panels_n + kNBq - 1) / kNBq;

  auto run_block = [&](size_t jbi) {
    const int64_t jb = static_cast<int64_t>(jbi);
    const int64_t jp0 = jb * kNBq;
    const int64_t nb = std::min<int64_t>(kNBq, panels_n - jp0);
    const int64_t j0 = jp0 * kNRq;
    const int64_t nc = std::min<int64_t>(n - j0, nb * kNRq);
    const int8_t* bp = b_panels + jp0 * panel_bytes;
    alignas(64) int32_t tile[kMRq * kNBq * kNRq];
    for (int64_t i0 = 0; i0 < m; i0 += kMRq) {
      const int64_t mr = std::min<int64_t>(kMRq, m - i0);
      micro_dispatch(mr, nb, A + i0 * lda, lda, bp, panel_bytes, k4, tile);
      store_tile(tile, i0, j0, mr, nc, C, ldc, ep);
    }
  };

  // Column blocks write disjoint C columns and int32 accumulation is exact,
  // so fan-out is bitwise-free; only worth it when the pool is usable and
  // the MAC count clears the same order of work the fp32 kernel parallelizes.
  if (m * n * k >= (int64_t(1) << 22) && jblocks > 1) {
    parallel_for_auto(static_cast<size_t>(jblocks), 2, run_block);
  } else {
    for (int64_t jb = 0; jb < jblocks; ++jb) run_block(static_cast<size_t>(jb));
  }
}

void gemm_u8s8f32_naive(int64_t m, int64_t n, int64_t k, const uint8_t* A, int64_t lda,
                        const int8_t* b_panels, float* C, int64_t ldc, const QuantEpilogue& ep) {
  if (m <= 0 || n <= 0) return;
  if (k > kGemmS8MaxK) {
    throw std::invalid_argument("gemm_u8s8f32_naive: k exceeds the int32 accumulation bound");
  }
  const int64_t k4 = round_up4(k);
  const int64_t panel_bytes = k4 * kNRq;
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      const int8_t* panel = b_panels + (j >> 4) * panel_bytes;
      const int64_t jj = j & 15;
      int32_t acc = 0;
      for (int64_t p = 0; p < k4; ++p) {
        acc += static_cast<int32_t>(A[i * lda + p]) *
               static_cast<int32_t>(panel[(p >> 2) * 64 + jj * 4 + (p & 3)]);
      }
      C[i * ldc + j] = requant_elem(ep, acc, i, j);
    }
  }
}

}  // namespace df::core
