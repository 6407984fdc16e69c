#include "core/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "core/parallel.h"
#include "core/simd_math.h"
#include "core/threadpool.h"

namespace df::core {

namespace {

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

#if defined(__GNUC__) || defined(__clang__)
// Vector epilogue of one 16-lane chunk `v` of row i, in place. `bias16` is
// the chunk's slice of the padded column-bias image (or null).
inline void epilogue_vec(const Epilogue& ep, const float* bias16, int64_t i, simd::vf16& v) {
  using simd::vf16;
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
    simd::vf16 v;
    std::memcpy(&v, buf + c, sizeof(v));
    epilogue_vec(ep, bias_padded != nullptr ? bias_padded + c : nullptr, i, v);
    std::memcpy(buf + c, &v, sizeof(v));
  }
}

// Column-bias image padded to a 16-lane multiple so the vector epilogue can
// load blindly. Reused thread_local: zero steady-state heap traffic.
inline const float* pad_bias_col(const float* bias, int64_t n) {
  if (bias == nullptr) return nullptr;
  static thread_local std::vector<float> padded;
  // Rounded to a full NR tile so edge tiles can load blindly past n.
  const int64_t lanes = (n + 31) / 32 * 32;
  padded.resize(static_cast<size_t>(lanes));
  std::memcpy(padded.data(), bias, static_cast<size_t>(n) * sizeof(float));
  std::memset(padded.data() + n, 0, static_cast<size_t>(lanes - n) * sizeof(float));
  return padded.data();
}
#endif

// BLIS-style blocking: a KC x NC panel of B is packed once and streamed from
// L2/L3 while MC x KC panels of A (packed per row-block, micro-panels of MR
// rows) are multiplied against it with an MR x NR register tile. The sizes
// target common x86 cache geometry: the A panel (~72 KiB) sits in L2, one B
// micro-panel (KC*NR floats, 24 KiB) in L1; the 6x32 tile holds twelve
// 16-lane accumulators, which maps onto AVX-512 (and splits cleanly in half
// on AVX2) without spilling.
constexpr int64_t MR = 6;
constexpr int64_t NR = 32;
constexpr int64_t KC = kSgemmPanelK;
constexpr int64_t MC = 96;    // multiple of MR
constexpr int64_t NC = 1024;  // multiple of NR

inline int64_t round_up(int64_t v, int64_t to) { return (v + to - 1) / to * to; }

// Element (i, p) of op(A): stored (m x k) or transposed (k x m).
inline float load_a(const float* A, int64_t lda, bool trans, int64_t i, int64_t p) {
  return trans ? A[p * lda + i] : A[i * lda + p];
}
// Element (p, j) of op(B): stored (k x n) or transposed (n x k).
inline float load_b(const float* B, int64_t ldb, bool trans, int64_t p, int64_t j) {
  return trans ? B[j * ldb + p] : B[p * ldb + j];
}

// Pack an mc x kc block of op(A) starting at (row0, col0) into micro-panels
// of MR rows: ap[panel][p * MR + r]. Rows past mc are zero-padded so the
// micro-kernel's k-loop never branches.
void pack_a(const float* A, int64_t lda, bool trans, int64_t row0, int64_t col0, int64_t mc,
            int64_t kc, float* ap) {
  for (int64_t ir = 0; ir < mc; ir += MR) {
    const int64_t mr = std::min(MR, mc - ir);
    float* panel = ap + ir * kc;
    if (!trans && mr == MR) {
      // Full panel from row-major A: gather MR contiguous rows.
      const float* a0 = A + (row0 + ir) * lda + col0;
      for (int64_t p = 0; p < kc; ++p)
        for (int64_t r = 0; r < MR; ++r) panel[p * MR + r] = a0[r * lda + p];
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        for (int64_t r = 0; r < mr; ++r)
          panel[p * MR + r] = load_a(A, lda, trans, row0 + ir + r, col0 + p);
        for (int64_t r = mr; r < MR; ++r) panel[p * MR + r] = 0.0f;
      }
    }
  }
}

// Pack a kc x nc block of op(B) starting at (row0, col0) into micro-panels
// of NR columns: bp[panel][p * NR + c], zero-padded past nc.
void pack_b(const float* B, int64_t ldb, bool trans, int64_t row0, int64_t col0, int64_t kc,
            int64_t nc, float* bp) {
  for (int64_t jr = 0; jr < nc; jr += NR) {
    const int64_t nr = std::min(NR, nc - jr);
    float* panel = bp + jr * kc;
    if (!trans && nr == NR) {
      const float* b0 = B + row0 * ldb + col0 + jr;
      for (int64_t p = 0; p < kc; ++p) std::memcpy(panel + p * NR, b0 + p * ldb, NR * sizeof(float));
    } else {
      for (int64_t p = 0; p < kc; ++p) {
        for (int64_t c = 0; c < nr; ++c)
          panel[p * NR + c] = load_b(B, ldb, trans, row0 + p, col0 + jr + c);
        for (int64_t c = nr; c < NR; ++c) panel[p * NR + c] = 0.0f;
      }
    }
  }
}

// Finalize an MR x NR tile through the epilogue: `tile` holds this panel's
// accumulator, C holds prior-panel partial sums when !first. grow/gcol are
// the tile's global C coordinates for bias indexing (`bias_padded` is the
// pad_bias_col image on vector builds, so gcol — always a multiple of NR —
// indexes it directly).
void store_tile_epilogue(const float tile[MR][NR], float* C, int64_t ldc, bool first, int64_t mr,
                         int64_t nr, const Epilogue& ep, const float* bias_padded, int64_t grow,
                         int64_t gcol) {
#if defined(__GNUC__) || defined(__clang__)
  alignas(64) float buf[NR];
  for (int64_t r = 0; r < mr; ++r) {
    std::memcpy(buf, tile[r], sizeof(buf));
    if (!first)
      for (int64_t c = 0; c < nr; ++c) buf[c] += C[r * ldc + c];
    apply_epilogue_lanes(ep, bias_padded != nullptr ? bias_padded + gcol : nullptr, buf,
                         grow + r, NR);
    for (int64_t c = 0; c < nr; ++c) C[r * ldc + c] = buf[c];
  }
#else
  (void)bias_padded;
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t c = 0; c < nr; ++c) {
      const float v = first ? tile[r][c] : C[r * ldc + c] + tile[r][c];
      C[r * ldc + c] = apply_epilogue(ep, v, grow + r, gcol + c);
    }
#endif
}

// MR x NR register tile over packed panels. `first` selects store vs
// accumulate into C; mr/nr clip the write-back at block edges (the packed
// operands are zero-padded, so the arithmetic is always full-tile and
// branch-free). `ep` (last k-panel only) fuses the bias/activation tail into
// the write-back while the tile is hot. The GNU vector-extension path keeps
// the twelve 16-lane accumulators in registers — the portable scalar
// fallback compiles everywhere but leaves ~30x on the table.
#if defined(__GNUC__) || defined(__clang__)
typedef float v16f __attribute__((vector_size(64), aligned(4)));

void micro_kernel(int64_t kc, const float* ap, const float* bp, float* C, int64_t ldc, bool first,
                  int64_t mr, int64_t nr, const Epilogue* ep, const float* bias_padded,
                  int64_t grow, int64_t gcol) {
  v16f acc[MR][2] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    const float* b = bp + p * NR;
    v16f b0, b1;
    std::memcpy(&b0, b, sizeof(b0));
    std::memcpy(&b1, b + 16, sizeof(b1));
    for (int64_t r = 0; r < MR; ++r) {
      const v16f av = v16f{} + a[r];
      acc[r][0] += av * b0;
      acc[r][1] += av * b1;
    }
  }
  if (ep != nullptr) {
    float tile[MR][NR];
    for (int64_t r = 0; r < MR; ++r) {
      std::memcpy(&tile[r][0], &acc[r][0], sizeof(v16f));
      std::memcpy(&tile[r][16], &acc[r][1], sizeof(v16f));
    }
    store_tile_epilogue(tile, C, ldc, first, mr, nr, *ep, bias_padded, grow, gcol);
  } else if (mr == MR && nr == NR) {
    for (int64_t r = 0; r < MR; ++r) {
      for (int h = 0; h < 2; ++h) {
        float* dst = C + r * ldc + 16 * h;
        v16f cv;
        if (first) {
          cv = acc[r][h];
        } else {
          std::memcpy(&cv, dst, sizeof(cv));
          cv += acc[r][h];
        }
        std::memcpy(dst, &cv, sizeof(cv));
      }
    }
  } else {
    float tile[MR][NR];
    for (int64_t r = 0; r < MR; ++r) {
      std::memcpy(&tile[r][0], &acc[r][0], sizeof(v16f));
      std::memcpy(&tile[r][16], &acc[r][1], sizeof(v16f));
    }
    for (int64_t r = 0; r < mr; ++r)
      for (int64_t c = 0; c < nr; ++c) {
        if (first) C[r * ldc + c] = tile[r][c];
        else C[r * ldc + c] += tile[r][c];
      }
  }
}
#else
void micro_kernel(int64_t kc, const float* ap, const float* bp, float* C, int64_t ldc, bool first,
                  int64_t mr, int64_t nr, const Epilogue* ep, const float* bias_padded,
                  int64_t grow, int64_t gcol) {
  float acc[MR][NR] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * MR;
    const float* b = bp + p * NR;
    for (int64_t r = 0; r < MR; ++r) {
      const float av = a[r];
      for (int64_t c = 0; c < NR; ++c) acc[r][c] += av * b[c];
    }
  }
  if (ep != nullptr) {
    store_tile_epilogue(acc, C, ldc, first, mr, nr, *ep, bias_padded, grow, gcol);
    return;
  }
  for (int64_t r = 0; r < mr; ++r)
    for (int64_t c = 0; c < nr; ++c) {
      if (first) C[r * ldc + c] = acc[r][c];
      else C[r * ldc + c] += acc[r][c];
    }
}
#endif

// Skinny-RHS fast path: n <= 96 and a single k-panel, the shape of every
// graph-layer GEMM (hidden widths of 8-96 over thousands of packed node
// rows) and of the small dense heads. The packed-panel kernel wastes most
// of its lanes there and pays pack_a/pack_b per call; this path streams
// row-major A directly against a zero-padded 16-lane-multiple image of B.
// Per output element the accumulation is p = 0..k-1 in order — exactly the
// packed kernel's single-panel order and sgemm_naive's order — so the
// result is bitwise identical to both.
constexpr int64_t kSkinnyN = 96;

#if defined(__GNUC__) || defined(__clang__)
// Write one finished row: add C's prior partial sums when accumulating, run
// the epilogue, store. Whole 16-lane chunks load and store as vectors; only
// the n % 16 tail goes lane by lane through a stack buffer.
template <int NV>
inline void skinny_finalize(const v16f (&acc)[NV], float* crow, int64_t n, int64_t i,
                            bool accumulate, const Epilogue* ep, const float* bias_padded) {
  for (int v = 0; v < NV; ++v) {
    float* dst = crow + v * 16;
    const float* bias16 = bias_padded != nullptr ? bias_padded + v * 16 : nullptr;
    v16f x = acc[v];
    const int64_t lanes = n - v * 16;
    if (lanes >= 16) {
      if (accumulate) {
        v16f c;
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
// NV = 1..6 (8 rows at NV = 2 divide the 32- and 64-row conv GEMMs evenly);
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

// R consecutive rows from local row i. Each output element sums p = 0..k-1
// in order whatever R is, so the blocking changes no bit.
template <int NV, int R>
inline void skinny_pass(int64_t i, int64_t row0, int64_t n, int64_t k, const float* A,
                        int64_t lda, const float* bpad, int64_t bstride, float* C, int64_t ldc,
                        bool accumulate, const Epilogue* ep, const float* bias_padded) {
  const float* a[R];
  for (int r = 0; r < R; ++r) a[r] = A + (i + r) * lda;
  v16f acc[R][NV] = {};
  const float* bp = bpad;
  for (int64_t p = 0; p < k; ++p, bp += bstride) {
    v16f bv[NV];
#pragma GCC unroll 8
    for (int v = 0; v < NV; ++v) std::memcpy(&bv[v], bp + v * 16, sizeof(v16f));
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const v16f av = v16f{} + a[r][p];
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < R; ++r)
    skinny_finalize<NV>(acc[r], C + (i + r) * ldc, n, row0 + i + r, accumulate, ep, bias_padded);
}

template <int NV>
void skinny_rows(int64_t row0, int64_t m, int64_t n, int64_t k, const float* A, int64_t lda,
                 const float* bpad, int64_t bstride, float* C, int64_t ldc, bool accumulate,
                 const Epilogue* ep, const float* bias_padded) {
  // `row0` is the global C row of A/C's first row — epilogue row-bias
  // indexing must see global coordinates when the caller chunks m.
  constexpr int R = skinny_block_rows<NV>();
  int64_t i = 0;
  for (; i + R <= m; i += R)
    skinny_pass<NV, R>(i, row0, n, k, A, lda, bpad, bstride, C, ldc, accumulate, ep, bias_padded);
  for (; i < m; ++i)
    skinny_pass<NV, 1>(i, row0, n, k, A, lda, bpad, bstride, C, ldc, accumulate, ep, bias_padded);
}

void sgemm_skinny(int64_t m, int64_t n, int64_t k, const float* A, int64_t lda, const float* B,
                  int64_t ldb, float* C, int64_t ldc, bool accumulate, const Epilogue* ep,
                  const float* pre_image) {
  const float* bias_padded = ep != nullptr ? pad_bias_col(ep->bias_col, n) : nullptr;
  const int64_t nv = (n + 15) / 16;
  // When n is already a 16-lane multiple, B rows ARE the kernel's native
  // image — stream them in place (the vector loads stop exactly at row end,
  // so no slack is touched) and skip the packing pass entirely. Otherwise
  // pack into nv zero-padded lanes per k-row; the buffer is a reused
  // thread_local, so the hot serving path never touches the heap. A
  // prepacked operand supplies the full-k row image up front and skips both.
  const bool direct = pre_image == nullptr && (n == nv * 16);
  static thread_local std::vector<float> bbuf;
  if (pre_image == nullptr && !direct) bbuf.resize(static_cast<size_t>(KC * kSkinnyN));
  // k is walked in KC panels (k <= KC for the wide-m shapes; only small-m
  // callers take multiple passes over C). The panel split and per-panel
  // accumulation match the packed kernel exactly, so both paths stay
  // bitwise interchangeable.
  for (int64_t pc = 0; pc < k; pc += KC) {
    const int64_t kc = std::min(KC, k - pc);
    const bool acc = accumulate || pc > 0;
    const Epilogue* pep = (pc + KC >= k) ? ep : nullptr;
    const float* bpad;
    int64_t bstride;
    if (pre_image != nullptr) {
      // Same values per row as the direct/packed variants (zero-padded to
      // the lane width), so the kernel arithmetic is unchanged bit for bit.
      bpad = pre_image + pc * nv * 16;
      bstride = nv * 16;
    } else if (direct) {
      bpad = B + pc * ldb;
      bstride = ldb;
    } else {
      float* dst = bbuf.data();
      for (int64_t p = 0; p < kc; ++p) {
        float* row = dst + p * nv * 16;
        int64_t j = 0;
        for (; j < n; ++j) row[j] = B[(pc + p) * ldb + j];
        for (; j < nv * 16; ++j) row[j] = 0.0f;
      }
      bpad = dst;
      bstride = nv * 16;
    }
    const float* a = A + pc;
    auto run_rows = [&](int64_t r0, int64_t rows) {
      const float* ar = a + r0 * lda;
      float* cr = C + r0 * ldc;
      switch (nv) {
        case 1: skinny_rows<1>(r0, rows, n, kc, ar, lda, bpad, bstride, cr, ldc, acc, pep, bias_padded); break;
        case 2: skinny_rows<2>(r0, rows, n, kc, ar, lda, bpad, bstride, cr, ldc, acc, pep, bias_padded); break;
        case 3: skinny_rows<3>(r0, rows, n, kc, ar, lda, bpad, bstride, cr, ldc, acc, pep, bias_padded); break;
        case 4: skinny_rows<4>(r0, rows, n, kc, ar, lda, bpad, bstride, cr, ldc, acc, pep, bias_padded); break;
        case 5: skinny_rows<5>(r0, rows, n, kc, ar, lda, bpad, bstride, cr, ldc, acc, pep, bias_padded); break;
        default: skinny_rows<6>(r0, rows, n, kc, ar, lda, bpad, bstride, cr, ldc, acc, pep, bias_padded); break;
      }
    };
    // Rows are independent (per-row accumulation never crosses rows), so
    // wide packed-node GEMMs fan row chunks over the compute pool exactly
    // like the packed kernel's MC blocks — bitwise identical to serial.
    ThreadPool* pool = compute_thread_pool();
    const bool parallel = m * n * k >= (int64_t{1} << 20) && pool != nullptr &&
                          pool->size() > 1 && !in_pool_worker();
    if (parallel) {
      const int64_t workers = static_cast<int64_t>(pool->size());
      const int64_t chunk = std::max<int64_t>(64, (m + 2 * workers - 1) / (2 * workers));
      const int64_t nchunks = (m + chunk - 1) / chunk;
      parallel_for_auto(static_cast<size_t>(nchunks), 2, [&](size_t ci) {
        const int64_t r0 = static_cast<int64_t>(ci) * chunk;
        run_rows(r0, std::min(chunk, m - r0));
      });
    } else {
      run_rows(0, m);
    }
  }
}
#else
void sgemm_skinny(int64_t m, int64_t n, int64_t k, const float* A, int64_t lda, const float* B,
                  int64_t ldb, float* C, int64_t ldc, bool accumulate, const Epilogue* ep,
                  const float* pre_image) {
  // Prepacked B: the row image holds the same values at a 16-lane stride.
  const int64_t bld = pre_image != nullptr ? (n + 15) / 16 * 16 : ldb;
  const float* bsrc = pre_image != nullptr ? pre_image : B;
  for (int64_t i = 0; i < m; ++i) {
    const float* a = A + i * lda;
    float acc[kSkinnyN] = {};
    for (int64_t p = 0; p < k; ++p) {
      const float av = a[p];
      for (int64_t j = 0; j < n; ++j) acc[j] += av * bsrc[p * bld + j];
    }
    float* crow = C + i * ldc;
    for (int64_t j = 0; j < n; ++j) {
      float v = accumulate ? crow[j] + acc[j] : acc[j];
      crow[j] = ep != nullptr ? apply_epilogue(*ep, v, i, j) : v;
    }
  }
}
#endif

/// Prepacked operand views threaded through the shared blocked driver: when
/// a pointer is set, the driver substitutes the ahead-of-time image for the
/// per-call pack_a/pack_b output at the exact offset the per-call pack
/// would have produced — identical bytes in, identical bytes out.
struct PrepackedViews {
  const float* a_panels = nullptr;  // pack_a_full image
  const float* b_panels = nullptr;  // pack_b_full panel region
  const float* b_skinny = nullptr;  // pack_b_full skinny row image
};

void sgemm_impl(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, const float* A,
                int64_t lda, const float* B, int64_t ldb, float* C, int64_t ldc, bool accumulate,
                const Epilogue* epilogue, const PrepackedViews& pre) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("sgemm: negative dimension");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    for (int64_t i = 0; i < m; ++i) {
      float* row = C + i * ldc;
      if (!accumulate) std::memset(row, 0, static_cast<size_t>(n) * sizeof(float));
      if (epilogue != nullptr)
        for (int64_t j = 0; j < n; ++j) row[j] = apply_epilogue(*epilogue, row[j], i, j);
    }
    return;
  }
  // Skinny dispatch: always for a single k-panel; for deeper k only when m
  // is small enough that the repeated C passes stay cache-resident (the
  // per-sample conv GEMMs, m = cout).
  if (!trans_a && !trans_b && n <= kSkinnyN && (k <= KC || m <= 64)) {
    sgemm_skinny(m, n, k, A, lda, B, ldb, C, ldc, accumulate, epilogue, pre.b_skinny);
    return;
  }

  // One shared B panel per (pc, jc) iteration; A panels are packed per
  // row-block inside the (possibly parallel) ic loop. Both buffers are
  // reused thread_locals — the per-sample conv and small dense paths call
  // sgemm far too often to pay a heap allocation per call. Workers only
  // read bbuf; the calling thread owns and fills it before fanning out.
  static thread_local std::vector<float> bbuf;
  float* bpack_buf = nullptr;
  if (pre.b_panels == nullptr) {
    bbuf.resize(static_cast<size_t>(round_up(std::min(NC, n), NR) * std::min(KC, k)));
    // Workers must see the caller's panel, not their own thread_local — hand
    // them the raw pointer, never the thread_local name.
    bpack_buf = bbuf.data();
  }
  // Parallelize row blocks only when the problem carries enough arithmetic
  // to amortize the fork/join (~2 MFLOP). The row-block grain shrinks below
  // MC when the pool would otherwise starve: at MC=96 a 256-row GEMM has
  // only 3 blocks, capping 4-thread scaling at ~2.7x — so aim for ~2 blocks
  // per worker (still multiples of MR, never below one micro-tile).
  const bool wide_enough = m * n * k >= (int64_t{1} << 20);
  const size_t min_parallel = wide_enough ? 2 : static_cast<size_t>(-1);
  int64_t iblock = MC;
  ThreadPool* pool = compute_thread_pool();
  if (wide_enough && pool != nullptr && pool->size() > 1 && !in_pool_worker()) {
    const int64_t workers = static_cast<int64_t>(pool->size());
    const int64_t target = round_up((m + 2 * workers - 1) / (2 * workers), MR);
    iblock = std::clamp(target, MR, MC);
  }
  const int64_t n_iblocks = (m + iblock - 1) / iblock;
#if defined(__GNUC__) || defined(__clang__)
  const float* bias_padded =
      epilogue != nullptr ? pad_bias_col(epilogue->bias_col, n) : nullptr;
#else
  const float* bias_padded = nullptr;
#endif

  const int64_t mr_rows = round_up(m, MR);  // A-image floats per unit of pc
  const int64_t nr_cols = round_up(n, NR);  // B-image floats per unit of pc
  for (int64_t pc = 0; pc < k; pc += KC) {
    const int64_t kc = std::min(KC, k - pc);
    const bool first = (pc == 0) && !accumulate;
    // The epilogue finalizes C, so it runs only with the last k-panel's
    // write-back (earlier panels hold partial sums).
    const Epilogue* ep = (pc + KC >= k) ? epilogue : nullptr;
    for (int64_t jc = 0; jc < n; jc += NC) {
      const int64_t nc = std::min(NC, n - jc);
      const float* bpack;
      if (pre.b_panels != nullptr) {
        bpack = pre.b_panels + nr_cols * pc + jc * kc;
      } else {
        pack_b(B, ldb, trans_b, pc, jc, kc, nc, bpack_buf);
        bpack = bpack_buf;
      }
      parallel_for_auto(static_cast<size_t>(n_iblocks), min_parallel, [&](size_t ib) {
        const int64_t ic = static_cast<int64_t>(ib) * iblock;
        const int64_t mc = std::min(iblock, m - ic);
        const float* apanels;
        if (pre.a_panels != nullptr) {
          // Row block ic starts MR-aligned, so its micro-panels sit at a
          // plain offset inside the full-m image.
          apanels = pre.a_panels + mr_rows * pc + ic * kc;
        } else {
          static thread_local std::vector<float> abuf;
          abuf.resize(static_cast<size_t>(round_up(mc, MR) * kc));
          pack_a(A, lda, trans_a, ic, pc, mc, kc, abuf.data());
          apanels = abuf.data();
        }
        for (int64_t jr = 0; jr < nc; jr += NR) {
          const int64_t nr = std::min(NR, nc - jr);
          const float* bpanel = bpack + jr * kc;
          for (int64_t ir = 0; ir < mc; ir += MR) {
            const int64_t mr = std::min(MR, mc - ir);
            micro_kernel(kc, apanels + ir * kc, bpanel, C + (ic + ir) * ldc + jc + jr, ldc,
                         first, mr, nr, ep, bias_padded, ic + ir, jc + jr);
          }
        }
      });
    }
  }
}

}  // namespace

void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k, const float* A, int64_t lda,
           const float* B, int64_t ldb, float* C, int64_t ldc, bool accumulate,
           const Epilogue* epilogue) {
  sgemm_impl(trans_a, trans_b, m, n, k, A, lda, B, ldb, C, ldc, accumulate, epilogue,
             PrepackedViews{});
}

int64_t packed_a_floats(int64_t m, int64_t k) { return round_up(m, MR) * k; }

int64_t packed_b_floats(int64_t k, int64_t n) {
  int64_t total = round_up(n, NR) * k;
  // The skinny dispatch depends on m (unknown at pack time), so any B narrow
  // enough to qualify also carries the skinny-path row image.
  if (n <= kSkinnyN) total += k * ((n + 15) / 16 * 16);
  return total;
}

void pack_a_full(bool trans_a, int64_t m, int64_t k, const float* A, int64_t lda, float* out) {
  const int64_t mr_rows = round_up(m, MR);
  for (int64_t pc = 0; pc < k; pc += KC) {
    const int64_t kc = std::min(KC, k - pc);
    // The per-call path packs each MC row block separately, but the blocks
    // are MR-aligned and pack_a's layout is micro-panel-major, so one full-m
    // pack per KC panel produces the same bytes at ic * kc offsets.
    pack_a(A, lda, trans_a, 0, pc, m, kc, out + mr_rows * pc);
  }
}

void pack_b_full(bool trans_b, int64_t k, int64_t n, const float* B, int64_t ldb, float* out) {
  const int64_t nr_cols = round_up(n, NR);
  for (int64_t pc = 0; pc < k; pc += KC) {
    const int64_t kc = std::min(KC, k - pc);
    for (int64_t jc = 0; jc < n; jc += NC) {
      const int64_t nc = std::min(NC, n - jc);
      // Every full NC block contributes NC * kc floats, so block jc of this
      // KC panel starts exactly where the per-call pack would place it.
      pack_b(B, ldb, trans_b, pc, jc, kc, nc, out + nr_cols * pc + jc * kc);
    }
  }
  if (n <= kSkinnyN) {
    // Skinny-path row image: each k-row zero-padded to the 16-lane width —
    // the same rows sgemm_skinny builds per call (or streams in place when
    // n is already a lane multiple).
    const int64_t nv16 = (n + 15) / 16 * 16;
    float* img = out + nr_cols * k;
    for (int64_t p = 0; p < k; ++p) {
      float* row = img + p * nv16;
      int64_t j = 0;
      for (; j < n; ++j) row[j] = load_b(B, ldb, trans_b, p, j);
      for (; j < nv16; ++j) row[j] = 0.0f;
    }
  }
}

void sgemm_prepacked(int64_t m, const float* A, int64_t lda, const PrepackedB& B, float* C,
                     int64_t ldc, bool accumulate, const Epilogue* epilogue) {
  if (B.image == nullptr || B.k < 0 || B.n < 0)
    throw std::invalid_argument("sgemm_prepacked: invalid PrepackedB view");
  PrepackedViews pre;
  pre.b_panels = B.image;
  pre.b_skinny = B.n <= kSkinnyN ? B.image + round_up(B.n, NR) * B.k : nullptr;
  // Raw B is never dereferenced: the blocked path reads the panel image and
  // the skinny path reads the row image.
  sgemm_impl(false, false, m, B.n, B.k, A, lda, nullptr, B.n, C, ldc, accumulate, epilogue, pre);
}

void sgemm_prepacked(const PrepackedA& A, int64_t n, const float* B, int64_t ldb, float* C,
                     int64_t ldc, bool accumulate, const Epilogue* epilogue) {
  if (A.panels == nullptr || A.raw == nullptr || A.m < 0 || A.k < 0)
    throw std::invalid_argument("sgemm_prepacked: invalid PrepackedA view");
  PrepackedViews pre;
  pre.a_panels = A.panels;
  // The skinny path streams row-major A directly, so it reads A.raw.
  sgemm_impl(false, false, A.m, n, A.k, A.raw, A.k, B, ldb, C, ldc, accumulate, epilogue, pre);
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
