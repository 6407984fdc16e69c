#include "core/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/simd_math.h"

namespace df::core {

namespace {

using simd::vf16;

// SELU constants (Klambauer et al. 2017) — numerically identical to
// nn::SELU::kScale/kAlpha; duplicated here because core cannot depend on nn.
constexpr float kSeluScale = 1.0507009873554805f;
constexpr float kSeluAlpha = 1.6732632423543772f;

// Scalar epilogue evaluation over the shared simd-math polynomials — the
// reference used by sgemm_naive and the k==0 path. The hot paths below
// apply the same activations through the 16-lane vector forms; both are
// elementwise-pure, so chunking never changes a value.
inline float apply_act(float v, EpilogueAct act, float slope) {
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

// Finalize one C element: bias broadcasts (column then row), then the
// activation. `i`/`j` are global C coordinates.
inline float apply_epilogue(const Epilogue& ep, float v, int64_t i, int64_t j) {
  if (ep.bias_col != nullptr) v += ep.bias_col[j];
  if (ep.bias_row != nullptr) v += ep.bias_row[i];
  return apply_act(v, ep.act, ep.leaky_slope);
}

// Vector epilogue of one 16-lane chunk `v` of row i, in place. `bias16` is
// the chunk's slice of the padded column-bias image (or null).
inline void epilogue_vec(const Epilogue& ep, const float* bias16, int64_t i, vf16& v) {
  const vf16 zero = {};
  if (bias16 != nullptr) {
    vf16 b;
    std::memcpy(&b, bias16, sizeof(b));
    v += b;
  }
  if (ep.bias_row != nullptr) v += simd::splat(ep.bias_row[i]);
  switch (ep.act) {
    case EpilogueAct::kNone: break;
    case EpilogueAct::kReLU: v = v > zero ? v : zero; break;
    case EpilogueAct::kLeakyReLU: v = v > zero ? v : simd::splat(ep.leaky_slope) * v; break;
    case EpilogueAct::kSELU: v = simd::vselu16(v, kSeluScale, kSeluAlpha); break;
    case EpilogueAct::kSigmoid: v = simd::vsigmoid16(v); break;
    case EpilogueAct::kTanh: v = simd::vtanh16(v); break;
  }
}

// Vector epilogue over `lanes` (a multiple of 16) padded values of row i
// starting at global column j0. `bias_padded` must extend to j0 + lanes
// (the sgemm entry points pad it); garbage in the pad lanes is fine — the
// caller only stores the first n results back.
inline void apply_epilogue_lanes(const Epilogue& ep, const float* bias_padded, float* buf,
                                 int64_t i, int64_t lanes) {
  for (int64_t c = 0; c < lanes; c += 16) {
    vf16 v;
    std::memcpy(&v, buf + c, sizeof(v));
    epilogue_vec(ep, bias_padded != nullptr ? bias_padded + c : nullptr, i, v);
    std::memcpy(buf + c, &v, sizeof(v));
  }
}

inline int64_t round_up(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

// Column-bias image padded to a 16-lane multiple so the vector epilogue can
// load blindly. Reused thread_local: zero steady-state heap traffic.
inline const float* pad_bias_col(const float* bias, int64_t n) {
  if (bias == nullptr) return nullptr;
  static thread_local std::vector<float> padded;
  const int64_t lanes = round_up(n, 16);
  padded.resize(static_cast<size_t>(lanes));
  std::memcpy(padded.data(), bias, static_cast<size_t>(n) * sizeof(float));
  std::memset(padded.data() + n, 0, static_cast<size_t>(lanes - n) * sizeof(float));
  return padded.data();
}

constexpr int64_t KC = kSgemmPanelK;

// Element (i, p) of op(A): stored (m x k) or transposed (k x m).
inline float load_a(const float* A, int64_t lda, bool trans, int64_t i, int64_t p) {
  return trans ? A[p * lda + i] : A[i * lda + p];
}
// Element (p, j) of op(B): stored (k x n) or transposed (n x k).
inline float load_b(const float* B, int64_t ldb, bool trans, int64_t p, int64_t j) {
  return trans ? B[j * ldb + p] : B[p * ldb + j];
}

// Widest column block of one row pass: six 16-lane chunks per row.
constexpr int64_t kSkinnyN = 96;

// Write one finished row: add C's prior partial sums when accumulating, run
// the epilogue, store. Whole 16-lane chunks load and store as vectors; only
// the n % 16 tail goes lane by lane through a stack buffer.
template <int NV>
inline void skinny_finalize(const vf16 (&acc)[NV], float* crow, int64_t n, int64_t i,
                            bool accumulate, const Epilogue* ep, const float* bias_padded) {
  for (int v = 0; v < NV; ++v) {
    float* dst = crow + v * 16;
    const float* bias16 = bias_padded != nullptr ? bias_padded + v * 16 : nullptr;
    vf16 x = acc[v];
    const int64_t lanes = n - v * 16;
    if (lanes >= 16) {
      if (accumulate) {
        vf16 c;
        std::memcpy(&c, dst, sizeof(c));
        x += c;
      }
      if (ep != nullptr) epilogue_vec(*ep, bias16, i, x);
      std::memcpy(dst, &x, sizeof(x));
    } else {
      alignas(64) float tmp[16];
      std::memcpy(tmp, &x, sizeof(tmp));
      if (accumulate)
        for (int64_t j = 0; j < lanes; ++j) tmp[j] += dst[j];
      if (ep != nullptr) apply_epilogue_lanes(*ep, bias16, tmp, i, 16);
      for (int64_t j = 0; j < lanes; ++j) dst[j] = tmp[j];
    }
  }
}

// Rows per register-blocked pass at NV 16-lane chunks per row. A pass holds
// R * NV accumulators plus the NV B vectors of one k-step in registers, so
// each B load feeds R rows of FMAs: the B stream, not the FMAs, bounds these
// shapes. AVX-512's 32 vector registers fit R = 8, 8, 6, 4, 4, 3 for
// NV = 1..6 (Conv3d's g * N GEMM rows, N = 64 or 8 at the screening grid,
// divide evenly);
// narrower ISAs split each 16-lane vector over two or four registers and
// keep at most two rows.
template <int NV>
constexpr int skinny_block_rows() {
#if defined(__AVX512F__)
  constexpr int kRows[6] = {8, 8, 6, 4, 4, 3};
  return kRows[NV - 1];
#else
  return NV <= 4 ? 2 : 1;
#endif
}

// Row sources of the row pass: element (i, p) of A is row(i)[col(p)].
// StridedA is a row-major matrix and TransposedA its transpose stored
// (k x m); IndirectA is Dukhan's indirect operand (arXiv:1907.02129), whose
// rows and k-columns are offsets into one buffer, so a convolution
// multiplies straight from its zero-padded input. panel(pc) is the source
// of the k-panel whose column 0 is pc.
struct StridedA {
  const float* a;
  int64_t lda;
  const float* row(int64_t i) const { return a + i * lda; }
  int64_t col(int64_t p) const { return p; }
  StridedA panel(int64_t pc) const { return {a + pc, lda}; }
};

struct TransposedA {
  const float* a;
  int64_t lda;
  const float* row(int64_t i) const { return a + i; }
  int64_t col(int64_t p) const { return p * lda; }
  TransposedA panel(int64_t pc) const { return {a + pc * lda, lda}; }
};

struct IndirectA {
  const float* x;
  const int32_t* row_off;
  const int32_t* k_off;
  const float* row(int64_t i) const { return x + row_off[i]; }
  int64_t col(int64_t p) const { return k_off[p]; }
  IndirectA panel(int64_t pc) const { return {x, row_off, k_off + pc}; }
};

// Splat an A element read straight from memory (one broadcast load).
// Splatting 0.0f + a instead would differ only for a = -0.0f, which cannot
// change a sum whose accumulator starts at +0.0f: (+0) + (-0) is +0 and a
// nonzero accumulator absorbs either zero, so no output bit moves.
inline vf16 broadcast(float v) { return vf16{v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v}; }

// R consecutive rows from row i. Each output element sums p = 0..k-1 in
// order whatever R is, so the blocking changes no bit.
template <int NV, int R, class Src>
inline void skinny_pass(int64_t i, int64_t n, int64_t k, const Src& a, const float* bpad,
                        int64_t bstride, float* C, int64_t ldc, bool accumulate,
                        const Epilogue* ep, const float* bias_padded) {
  const float* rows[R];
  for (int r = 0; r < R; ++r) rows[r] = a.row(i + r);
  vf16 acc[R][NV] = {};
  const float* bp = bpad;
  for (int64_t p = 0; p < k; ++p, bp += bstride) {
    vf16 bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) std::memcpy(&bv[v], bp + v * 16, sizeof(vf16));
    const int64_t q = a.col(p);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const vf16 av = broadcast(rows[r][q]);
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < R; ++r)
    skinny_finalize<NV>(acc[r], C + (i + r) * ldc, n, i + r, accumulate, ep, bias_padded);
}

template <int NV, class Src>
void skinny_rows(int64_t m, int64_t n, int64_t k, const Src& a, const float* bpad,
                 int64_t bstride, float* C, int64_t ldc, bool accumulate, const Epilogue* ep,
                 const float* bias_padded) {
  constexpr int R = skinny_block_rows<NV>();
  int64_t i = 0;
  for (; i + R <= m; i += R)
    skinny_pass<NV, R>(i, n, k, a, bpad, bstride, C, ldc, accumulate, ep, bias_padded);
  for (; i < m; ++i)
    skinny_pass<NV, 1>(i, n, k, a, bpad, bstride, C, ldc, accumulate, ep, bias_padded);
}

// One k-panel of `m` C rows at n <= kSkinnyN columns, dispatched on the
// 16-lane chunk count.
template <class Src>
void skinny_panel(int64_t m, int64_t n, int64_t k, const Src& a, const float* bpad,
                  int64_t bstride, float* C, int64_t ldc, bool accumulate, const Epilogue* ep,
                  const float* bias_padded) {
  switch ((n + 15) / 16) {
    case 1: skinny_rows<1>(m, n, k, a, bpad, bstride, C, ldc, accumulate, ep, bias_padded); break;
    case 2: skinny_rows<2>(m, n, k, a, bpad, bstride, C, ldc, accumulate, ep, bias_padded); break;
    case 3: skinny_rows<3>(m, n, k, a, bpad, bstride, C, ldc, accumulate, ep, bias_padded); break;
    case 4: skinny_rows<4>(m, n, k, a, bpad, bstride, C, ldc, accumulate, ep, bias_padded); break;
    case 5: skinny_rows<5>(m, n, k, a, bpad, bstride, C, ldc, accumulate, ep, bias_padded); break;
    default: skinny_rows<6>(m, n, k, a, bpad, bstride, C, ldc, accumulate, ep, bias_padded); break;
  }
}

// The one GEMM driver, behind sgemm and sgemm_indirect. B is (k x n) with
// ldb >= round_up(n, 16) readable floats per row. The k-panels run in
// order on the calling thread, every panel's sums added to C (the first
// panel overwrites C unless accumulating), the last panel's through the
// epilogue. Within a panel, columns run in blocks of at most kSkinnyN
// lanes, split evenly (n = 128 runs as two 64-lane blocks), so a block's B
// panel stays cache-hot over every row.
template <class Src>
void gemm_rows(int64_t m, int64_t n, int64_t k, const Src& a, const float* B, int64_t ldb,
               float* C, int64_t ldc, bool accumulate, const Epilogue* ep) {
  const float* bias_padded = ep != nullptr ? pad_bias_col(ep->bias_col, n) : nullptr;
  const int64_t nv = (n + 15) / 16;
  const int64_t blocks = (nv + kSkinnyN / 16 - 1) / (kSkinnyN / 16);
  const int64_t block = (nv + blocks - 1) / blocks * 16;
  for (int64_t pc = 0; pc < k; pc += KC) {
    const int64_t kc = std::min(KC, k - pc);
    const Epilogue* pep = pc + KC >= k ? ep : nullptr;
    for (int64_t j0 = 0; j0 < n; j0 += block)
      skinny_panel(m, std::min(block, n - j0), kc, a.panel(pc), B + pc * ldb + j0, ldb,
                   C + j0, ldc, accumulate || pc > 0, pep,
                   bias_padded != nullptr ? bias_padded + j0 : nullptr);
  }
}

// op(B) as gemm_rows reads it: k rows of round_up(n, 16) lanes, each row
// on a 64-byte line. A row-major B whose n fills whole 16-lane chunks and
// whose rows all start on a line already is that image (the vector loads
// stop exactly at row end) and is read in place; a layer's weight tensor
// is. Any other B is copied into a line-aligned image, zeroed past n, in a
// reused thread_local, so the hot serving path never touches the heap: B
// is the stream the row pass is bound by, and a B 16 bytes off its lines
// splits every 16-lane load in two (256 x 256 x 512 ran at 85 GF/s in
// place against 136 on a line, 4-vCPU AVX-512 Xeon).
const float* b_rows(bool trans, int64_t n, int64_t k, const float* B, int64_t ldb,
                    int64_t* ld) {
  if (!trans && n % 16 == 0 && ldb % 16 == 0 && reinterpret_cast<uintptr_t>(B) % 64 == 0) {
    *ld = ldb;
    return B;
  }
  const int64_t lanes = round_up(n, 16);
  static thread_local std::vector<float> image;
  image.resize(static_cast<size_t>(k * lanes + 15));
  const size_t skew = reinterpret_cast<uintptr_t>(image.data()) % 64 / sizeof(float);
  float* img = image.data() + (skew == 0 ? 0 : 16 - skew);
  *ld = lanes;
  if (!trans) {
    for (int64_t p = 0; p < k; ++p) {
      std::memcpy(img + p * lanes, B + p * ldb, static_cast<size_t>(n) * sizeof(float));
      std::memset(img + p * lanes + n, 0, static_cast<size_t>(lanes - n) * sizeof(float));
    }
    return img;
  }
  // Transposed B (n x k) in tiles of 16 stored rows: each image row gets one
  // whole 16-lane chunk per tile while the 16 source rows stream in step. A
  // column-at-a-time transpose writes the image at a power-of-two stride
  // for the usual widths and thrashes L1 sets.
  for (int64_t j0 = 0; j0 < lanes; j0 += 16) {
    const int64_t w = std::min<int64_t>(16, n - j0);
    const float* src = B + j0 * ldb;
    for (int64_t p = 0; p < k; ++p) {
      float* dst = img + p * lanes + j0;
      int64_t c = 0;
      for (; c < w; ++c) dst[c] = src[c * ldb + p];
      for (; c < 16; ++c) dst[c] = 0.0f;
    }
  }
  return img;
}

// C for k == 0: the empty sum (0, or C itself when accumulating) through
// the epilogue.
void finish_empty_k(int64_t m, int64_t n, float* C, int64_t ldc, bool accumulate,
                    const Epilogue* epilogue) {
  for (int64_t i = 0; i < m; ++i) {
    float* row = C + i * ldc;
    if (!accumulate) std::memset(row, 0, static_cast<size_t>(n) * sizeof(float));
    if (epilogue != nullptr)
      for (int64_t j = 0; j < n; ++j) row[j] = apply_epilogue(*epilogue, row[j], i, j);
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, const float* A, int64_t lda,
           const float* B, int64_t ldb, float* C, int64_t ldc, bool accumulate,
           const Epilogue* epilogue) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("sgemm: negative dimension");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    finish_empty_k(m, n, C, ldc, accumulate, epilogue);
    return;
  }
  int64_t ld = 0;
  const float* b = b_rows(trans_b, n, k, B, ldb, &ld);
  if (trans_a)
    gemm_rows(m, n, k, TransposedA{A, lda}, b, ld, C, ldc, accumulate, epilogue);
  else
    gemm_rows(m, n, k, StridedA{A, lda}, b, ld, C, ldc, accumulate, epilogue);
}

void sgemm_indirect(int64_t m, int64_t n, int64_t k, const float* X, const int32_t* row_off,
                    const int32_t* k_off, const float* B, int64_t ldb, float* C, int64_t ldc,
                    const Epilogue* epilogue) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("sgemm_indirect: negative dimension");
  if (ldb < round_up(n, 16))
    throw std::invalid_argument("sgemm_indirect: ldb below n rounded up to 16 lanes");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    finish_empty_k(m, n, C, ldc, /*accumulate=*/false, epilogue);
    return;
  }
  gemm_rows(m, n, k, IndirectA{X, row_off, k_off}, B, ldb, C, ldc, /*accumulate=*/false, epilogue);
}

void sgemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, const float* A,
                 int64_t lda, const float* B, int64_t ldb, float* C, int64_t ldc, bool accumulate,
                 const Epilogue* epilogue) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float acc = accumulate ? C[i * ldc + j] : 0.0f;
      for (int64_t p = 0; p < k; ++p)
        acc += load_a(A, lda, trans_a, i, p) * load_b(B, ldb, trans_b, p, j);
      C[i * ldc + j] = epilogue != nullptr ? apply_epilogue(*epilogue, acc, i, j) : acc;
    }
  }
}

}  // namespace df::core
