// Cache-blocked, register-tiled single-precision GEMM — the one kernel every
// dense FLOP in deepfusion (Dense, GatedGraphConv, vol2col Conv3d) lowers
// onto. Row-major storage with explicit leading dimensions, BLIS-style
// packed panels (MR x NR micro-tiles), and optional ThreadPool parallelism
// over row panels via core::compute_thread_pool().
//
// An optional fused epilogue applies a bias broadcast and/or a pointwise
// activation to each C micro-tile while it is still hot from the k-loop,
// replacing the separate elementwise passes the layers used to run over the
// whole output. The fused result is bitwise identical to the unfused
// sequence (gemm, then bias, then activation): the bias is added after the
// final k-panel accumulation, exactly where the separate pass would add it,
// and the activation is the same scalar function applied per element.
//
// The naive triple-loop variant is retained as the correctness reference for
// equivalence tests and the speedup benchmark; it must never be called from
// model code.
#pragma once

#include <cstdint>

namespace df::core {

/// Pointwise epilogue activations. The transcendental variants evaluate the
/// shared core/simd_math.h polynomials — the same functions the standalone
/// activation layers and the voxel splatter use (never raw std::exp), which
/// is what keeps fused == unfused and batched == per-pose bitwise.
enum class EpilogueAct : uint8_t { kNone, kReLU, kLeakyReLU, kSELU, kSigmoid, kTanh };

/// Fused tail of a GEMM: C[i][j] = act(C[i][j] + bias_col[j] + bias_row[i]).
/// Either bias may be null (skipped). Applied once, after the last k-panel.
struct Epilogue {
  EpilogueAct act = EpilogueAct::kNone;
  const float* bias_col = nullptr;  // length n: per-output-column (Dense bias)
  const float* bias_row = nullptr;  // length m: per-output-row (Conv3d bias)
  float leaky_slope = 0.01f;        // kLeakyReLU only
};

/// Depth of sgemm's k-panels. On every path an element of C sums
/// p = 0..k-1 in order within each panel of this many terms and adds each
/// panel's sum to C (the first panel overwrites it unless accumulating), so
/// a kernel that must match sgemm bit for bit splits k the same way.
inline constexpr int64_t kSgemmPanelK = 192;

/// C (m x n, ldc) = op(A) * op(B), overwriting C — or accumulating into C
/// when `accumulate` is true. When `epilogue` is non-null its bias/activation
/// are applied to the final C (after accumulation) on the hot micro-tile.
///   op(A) is m x k: stored as (m x k, lda >= k) when !trans_a,
///                   or as its transpose (k x m, lda >= m) when trans_a.
///   op(B) is k x n: stored as (k x n, ldb >= n) when !trans_b,
///                   or as its transpose (n x k, ldb >= k) when trans_b.
void sgemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
           const float* A, int64_t lda, const float* B, int64_t ldb,
           float* C, int64_t ldc, bool accumulate = false,
           const Epilogue* epilogue = nullptr);

/// Unblocked reference implementation with identical semantics.
void sgemm_naive(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                 const float* A, int64_t lda, const float* B, int64_t ldb,
                 float* C, int64_t ldc, bool accumulate = false,
                 const Epilogue* epilogue = nullptr);

// ---- prepacked operands --------------------------------------------------
//
// A weight matrix that is multiplied repeatedly (every Dense layer on the
// serving path, every per-sample Conv3d GEMM) pays pack_a/pack_b on every
// sgemm call even though the packed bytes never change. pack_a_full /
// pack_b_full produce, once, exactly the panel images the blocked kernel
// would have packed per call — same micro-panel layout, same zero padding,
// same (pc, jc/ic) traversal order — so sgemm_prepacked streams them
// directly and its result is bitwise identical to sgemm on the raw operand,
// on every dispatch path including the skinny-RHS fast path.
//
// The images are position-independent float blobs: the ahead-of-time model
// compiler serializes them into compiled artifacts and serving replicas
// point PrepackedA/PrepackedB views straight into the mmap'd file.

/// Floats pack_a_full writes for an (m x k) op(A): round_up(m, MR) * k.
int64_t packed_a_floats(int64_t m, int64_t k);
/// Floats pack_b_full writes for a (k x n) op(B): round_up(n, NR) * k
/// panels, plus a k * round_up(n, 16) skinny-path row image when n is
/// within the skinny-RHS dispatch width.
int64_t packed_b_floats(int64_t k, int64_t n);

/// Pack all KC-panels of op(A) (m x k) into micro-panels of MR rows, the
/// exact per-row-block layout sgemm's pack_a produces (KC-panel major).
void pack_a_full(bool trans_a, int64_t m, int64_t k, const float* A, int64_t lda, float* out);
/// Pack all (KC, NC) blocks of op(B) (k x n) into micro-panels of NR
/// columns (KC-panel major, NC-block minor), followed by the zero-padded
/// 16-lane row image the skinny-RHS path streams (when n qualifies).
void pack_b_full(bool trans_b, int64_t k, int64_t n, const float* B, int64_t ldb, float* out);

/// Non-owning view of a pack_a_full image. `raw` must point at the
/// row-major (m x k, lda = k) operand — the skinny-RHS path streams A
/// unpacked, so prepacking A keeps the raw bytes reachable.
struct PrepackedA {
  int64_t m = 0, k = 0;
  const float* panels = nullptr;  // packed_a_floats(m, k) floats
  const float* raw = nullptr;     // (m x k) row-major, leading dimension k
};

/// Non-owning view of a pack_b_full image (panels + optional skinny image).
struct PrepackedB {
  int64_t k = 0, n = 0;
  const float* image = nullptr;  // packed_b_floats(k, n) floats
};

/// C (m x B.n) = A (m x B.k) * B with B prepacked — bitwise identical to
/// sgemm(false, false, m, B.n, B.k, A, lda, raw_B, B.n, ...) but without the
/// per-call pack_b (and without the skinny-path row-image build).
void sgemm_prepacked(int64_t m, const float* A, int64_t lda, const PrepackedB& B, float* C,
                     int64_t ldc, bool accumulate = false, const Epilogue* epilogue = nullptr);

/// C (A.m x n) = A * B (A.k x n) with A prepacked — bitwise identical to
/// sgemm(false, false, A.m, n, A.k, A.raw, A.k, B, ldb, ...) but without the
/// per-call pack_a in the blocked path.
void sgemm_prepacked(const PrepackedA& A, int64_t n, const float* B, int64_t ldb, float* C,
                     int64_t ldc, bool accumulate = false, const Epilogue* epilogue = nullptr);

}  // namespace df::core
