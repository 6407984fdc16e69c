// Register-blocked single-precision GEMM — the one kernel that Dense, Conv3d,
// GatedGraphConv's whole-matrix gates and every training backward lower
// onto; the SG-CNN's fused eval step keeps its own tile GEMM
// (graph/gated_graph_conv.cpp). Row-major storage with explicit leading
// dimensions.
// One row pass runs every call: R rows of C at a time hold up to six 16-lane
// accumulator chunks per row in registers, each A element broadcast straight
// from memory, against B read as k rows of round_up(n, 16) lanes on 64-byte
// lines. Wider C runs in even column blocks of at most 96 lanes. A row-major
// B whose n is a multiple of 16 and whose rows start on lines (a layer's
// weight tensor) is read in place; any other B is first copied into that
// row image, and a transposed A is read through its stride. Every call runs
// on its calling thread; a caller that wants more cores splits its work
// above the kernel (serve/scorer.h runs whole pose sub-batches per lane).
//
// sgemm_indirect runs the same row pass over an indirect A (Dukhan,
// arXiv:1907.02129): element (i, p) is an offset into one buffer, so
// Conv3d's forward multiplies straight from its zero-padded input with no
// column matrix, bit for bit what sgemm gives on the materialized A.
//
// An optional fused epilogue applies a bias broadcast and/or a pointwise
// activation to each C row while it is still hot from the k-loop,
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
/// are applied to the final C (after accumulation) on the hot row.
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

/// C (m x n, ldc) = A * B for an indirect (m x k) A: element (i, p) of A is
/// X[row_off[i] + k_off[p]]. B is (k x n) row-major with ldb >=
/// round_up(n, 16): the row pass loads whole 16-lane chunks, so each of
/// B's k rows must hold that many readable floats, and the lanes past n
/// never reach C. k runs in kSgemmPanelK panels whose sums are added to C
/// in order, the last through `epilogue`, so the result is bitwise identical
/// to sgemm(false, false, m, n, k, A, k, B, ldb, C, ldc, false, epilogue)
/// on the materialized A.
void sgemm_indirect(int64_t m, int64_t n, int64_t k, const float* X, const int32_t* row_off,
                    const int32_t* k_off, const float* B, int64_t ldb, float* C, int64_t ldc,
                    const Epilogue* epilogue = nullptr);

}  // namespace df::core
