#include "graph/gated_graph_conv.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/gemm.h"
#include "core/simd_math.h"

namespace df::graph {

namespace {

// to[to_idx[e]] += from[from_idx[e]] per edge, rows of width `dim`. Whole
// 16-lane chunks run at once and the tail lanes BLEND through unchanged
// (never adding 0.0f, which would flip a -0.0f), so every lane gets exactly
// the per-element sums; the one-lane-past-the-row traffic lands in the
// slack every Tensor/Workspace allocation reserves.
void scatter_add_rows(const std::vector<int32_t>& from_idx, const std::vector<int32_t>& to_idx,
                      const float* from, float* to, int64_t dim) {
  using core::simd::vf16;
  using core::simd::vi16;
  for (int64_t c0 = 0; c0 < dim; c0 += 16) {
    const int32_t valid = static_cast<int32_t>(std::min<int64_t>(16, dim - c0));
    const vi16 mask = core::simd::iota16i() < (vi16{} + valid);
    for (size_t e = 0; e < from_idx.size(); ++e) {
      const float* src = from + from_idx[e] * dim + c0;
      float* dst = to + to_idx[e] * dim + c0;
      vf16 s, d;
      std::memcpy(&s, src, sizeof(s));
      std::memcpy(&d, dst, sizeof(d));
      const vf16 sum = d + s;
      d = mask ? sum : d;
      std::memcpy(dst, &d, sizeof(d));
    }
  }
}

// Row i of `out` (stride ldo) = the sum, in CSR order, of the rows of `h`
// (stride ldh) that feed node v0 + i, over `cols` lanes; a node without
// in-edges gets zeros. Every lane starts at +0.0f and adds its sources one
// at a time, exactly the scalar loop over a zeroed row, so any chunking
// agrees bitwise. Whole 16-lane chunks are loaded, so a source row may be
// read up to 15 floats past `cols` (into the next row, or the 32-float
// slack every Tensor/Workspace allocation reserves); only `cols` lanes of
// a row are stored.
template <int NV>
void aggregate_chunks(const int32_t* start, const int32_t* src, const float* h, int64_t ldh,
                      int64_t v0, int64_t rows, int64_t c0, int64_t cols, float* out,
                      int64_t ldo) {
  using core::simd::vf16;
  for (int64_t i = 0; i < rows; ++i) {
    vf16 acc[NV] = {};
    for (int32_t e = start[v0 + i]; e < start[v0 + i + 1]; ++e) {
      const float* s = h + src[e] * ldh + c0;
      for (int v = 0; v < NV; ++v) {
        vf16 x;
        std::memcpy(&x, s + 16 * v, sizeof(x));
        acc[v] += x;
      }
    }
    float* dst = out + i * ldo + c0;
    for (int v = 0; v < NV; ++v) {
      const int64_t lanes = std::min<int64_t>(16, cols - c0 - 16 * v);
      std::memcpy(dst + 16 * v, &acc[v], static_cast<size_t>(lanes) * sizeof(float));
    }
  }
}

void aggregate(const std::vector<int32_t>& start, const std::vector<int32_t>& src, const float* h,
               int64_t ldh, int64_t v0, int64_t rows, int64_t cols, float* out, int64_t ldo) {
  // Up to four chunks per pass over a node's edges, one register
  // accumulator each.
  for (int64_t c0 = 0; c0 < cols; c0 += 64) {
    switch (std::min<int64_t>(4, (cols - c0 + 15) / 16)) {
      case 1: aggregate_chunks<1>(start.data(), src.data(), h, ldh, v0, rows, c0, cols, out, ldo); break;
      case 2: aggregate_chunks<2>(start.data(), src.data(), h, ldh, v0, rows, c0, cols, out, ldo); break;
      case 3: aggregate_chunks<3>(start.data(), src.data(), h, ldh, v0, rows, c0, cols, out, ldo); break;
      default: aggregate_chunks<4>(start.data(), src.data(), h, ldh, v0, rows, c0, cols, out, ldo); break;
    }
  }
}

// ---- the fused eval step ----------------------------------------------------
//
// Every GEMM of the step keeps sgemm's arithmetic: an element sums
// a[p] * b[p] for p = 0..k-1 in order, one multiply-add at a time, within
// k-panels of core::kSgemmPanelK terms, and adds each panel's sum to C.
// Like sgemm's row pass, the step broadcasts each A element straight from
// memory, which folds into the load.

// (N, cols) rows copied into (N, lanes) rows, zero past cols.
Tensor pad_lanes(const Tensor& t, int64_t lanes) {
  const int64_t rows = t.dim(0), cols = t.dim(1);
  Tensor out({rows, lanes});
  for (int64_t i = 0; i < rows; ++i) {
    std::memcpy(out.data() + i * lanes, t.data() + i * cols,
                static_cast<size_t>(cols) * sizeof(float));
  }
  return out;
}

// The first `cols` lanes of every (N, lanes) row.
Tensor unpad_lanes(const Tensor& t, int64_t cols) {
  const int64_t rows = t.dim(0), lanes = t.dim(1);
  Tensor out = Tensor::uninit({rows, cols});
  for (int64_t i = 0; i < rows; ++i) {
    std::memcpy(out.data() + i * cols, t.data() + i * lanes,
                static_cast<size_t>(cols) * sizeof(float));
  }
  return out;
}

// The step's weights as lane-padded row images, zero past each block's
// valid columns, with L = round_up(d, 16) and ZR = round_up(2d, 16): the
// x-side [Wz|Wr] (ZR lanes) and Wc (L lanes) side by side, the h-side
// [Uz|Ur], Uc, W_msg, then the biases [bz|br] and bc. Packed once per
// forward; nothing is cached, so optimizer steps and checkpoint loads need
// no invalidation.
struct StepWeights {
  int64_t d = 0, L = 0, ZR = 0;
  Tensor image;
  float* wx = nullptr;    // (d, ZR + L)
  float* uzr = nullptr;   // (d, ZR)
  float* uc = nullptr;    // (d, L)
  float* wmsg = nullptr;  // (d, L)
  float* bzr = nullptr;   // (ZR)
  float* bc = nullptr;    // (L)
};

StepWeights pack_step_weights(const GRUCell::Gates& gru, const Tensor& w_msg) {
  StepWeights w;
  const int64_t d = w_msg.dim(0), L = (d + 15) / 16 * 16, ZR = (2 * d + 15) / 16 * 16;
  const int64_t G = ZR + L;
  w.d = d;
  w.L = L;
  w.ZR = ZR;
  w.image = Tensor({d * (G + ZR + 2 * L) + G});
  w.wx = w.image.data();
  w.uzr = w.wx + d * G;
  w.uc = w.uzr + d * ZR;
  w.wmsg = w.uc + d * L;
  w.bzr = w.wmsg + d * L;
  w.bc = w.bzr + ZR;
  const size_t row = static_cast<size_t>(d) * sizeof(float);
  for (int64_t p = 0; p < d; ++p) {
    std::memcpy(w.wx + p * G, gru.wz.data() + p * d, row);
    std::memcpy(w.wx + p * G + d, gru.wr.data() + p * d, row);
    std::memcpy(w.wx + p * G + ZR, gru.wc.data() + p * d, row);
    std::memcpy(w.uzr + p * ZR, gru.uz.data() + p * d, row);
    std::memcpy(w.uzr + p * ZR + d, gru.ur.data() + p * d, row);
    std::memcpy(w.uc + p * L, gru.uc.data() + p * d, row);
    std::memcpy(w.wmsg + p * L, w_msg.data() + p * d, row);
  }
  std::memcpy(w.bzr, gru.bz.data(), row);
  std::memcpy(w.bzr + d, gru.br.data(), row);
  std::memcpy(w.bc, gru.bc.data(), row);
  return w;
}

using core::simd::vf16;

inline vf16 broadcast(float v) { return vf16{v, v, v, v, v, v, v, v, v, v, v, v, v, v, v, v}; }

// Rows and 16-lane chunks per register-blocked pass: the rows x chunks
// accumulators, one k-step's B vectors and the broadcast fit AVX-512's 32
// vector registers; narrower ISAs split each vf16 over two or four
// registers and keep two rows of at most two chunks.
#if defined(__AVX512F__)
constexpr int kPassRows = 8, kPassChunks = 3;
#else
constexpr int kPassRows = 2, kPassChunks = 2;
#endif

// C rows [0, R) x chunks [0, CB) = (first ? 0 : C) + sum_p a[r][p] * b[p].
template <int R, int CB>
inline void gemm_pass(const float* a, int64_t lda, const float* b, int64_t ldb, int64_t k,
                      float* c, int64_t ldc, bool first) {
  vf16 acc[R][CB] = {};
  for (int64_t p = 0; p < k; ++p) {
    vf16 bv[CB];
    for (int j = 0; j < CB; ++j) std::memcpy(&bv[j], b + p * ldb + 16 * j, sizeof(vf16));
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const vf16 av = broadcast(a[r * lda + p]);
      for (int j = 0; j < CB; ++j) acc[r][j] += av * bv[j];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (int j = 0; j < CB; ++j) {
      float* dst = c + r * ldc + 16 * j;
      vf16 v = acc[r][j];
      if (!first) {
        vf16 prior;
        std::memcpy(&prior, dst, sizeof(prior));
        v += prior;
      }
      std::memcpy(dst, &v, sizeof(v));
    }
  }
}

template <int CB>
void gemm_rows(int64_t rows, const float* a, int64_t lda, const float* b, int64_t ldb, int64_t k,
               float* c, int64_t ldc, bool first) {
  int64_t i = 0;
  for (; i + kPassRows <= rows; i += kPassRows)
    gemm_pass<kPassRows, CB>(a + i * lda, lda, b, ldb, k, c + i * ldc, ldc, first);
  for (; i < rows; ++i) gemm_pass<1, CB>(a + i * lda, lda, b, ldb, k, c + i * ldc, ldc, first);
}

// C (rows x n) = A (rows x k) B, or C += A B when accumulating, for n a
// multiple of 16.
void tile_gemm(int64_t rows, int64_t n, int64_t k, const float* a, int64_t lda, const float* b,
               int64_t ldb, float* c, int64_t ldc, bool accumulate) {
  for (int64_t p0 = 0; p0 < k; p0 += core::kSgemmPanelK) {
    const int64_t kc = std::min(core::kSgemmPanelK, k - p0);
    const bool first = p0 == 0 && !accumulate;
    // Widest passes first, but never a lone one-chunk pass after them
    // (5 chunks run as 3 + 2, 4 as 2 + 2).
    for (int64_t j = 0; j < n;) {
      const int64_t left = (n - j) / 16;
      const float* bj = b + p0 * ldb + j;
      if (left >= kPassChunks && left != kPassChunks + 1) {
        gemm_rows<kPassChunks>(rows, a + p0, lda, bj, ldb, kc, c + j, ldc, first);
        j += 16 * kPassChunks;
      } else if (left >= 2) {
        gemm_rows<2>(rows, a + p0, lda, bj, ldb, kc, c + j, ldc, first);
        j += 32;
      } else {
        gemm_rows<1>(rows, a + p0, lda, bj, ldb, kc, c + j, ldc, first);
        j += 16;
      }
    }
  }
}

// Scratch floats of one step_tile call.
int64_t step_scratch_floats(const StepWeights& w) {
  return GatedGraphConv::kTileRows * (4 * w.L + w.ZR);
}

// One propagation step over node rows [r0, r0 + n), n <= kTileRows, of the
// lane-padded states `cur` into `next`: gather, W_msg, then the GRU exactly
// as GRUCell::forward computes it.
void step_tile(const StepWeights& w, const std::vector<int32_t>& csr_start,
               const std::vector<int32_t>& csr_src, const float* cur, float* next, int64_t r0,
               int64_t n, float* scratch) {
  const int64_t d = w.d, L = w.L, ZR = w.ZR, G = ZR + L, T = GatedGraphConv::kTileRows;
  float* agg = scratch;    // (n, L) summed neighbour states
  float* m = agg + T * L;  // (n, L) messages
  float* g = m + T * L;    // (n, G) gates: z | r | pad, then c
  float* rh = g + T * G;   // (n, L) r * h
  const float* h = cur + r0 * L;
  float* h_new = next + r0 * L;
  aggregate(csr_start, csr_src, cur, L, r0, n, L, agg, L);
  tile_gemm(n, L, d, agg, L, w.wmsg, L, m, L, /*accumulate=*/false);
  // Each gate is act((h-side sum + x-side sum) + bias), the order of the
  // two sgemm calls in GRUCell's gate().
  tile_gemm(n, G, d, m, L, w.wx, G, g, G, /*accumulate=*/false);
  tile_gemm(n, ZR, d, h, L, w.uzr, ZR, g, G, /*accumulate=*/true);
  for (int64_t i = 0; i < n; ++i) {
    float* gi = g + i * G;
    for (int64_t j = 0; j < ZR; j += 16) {
      vf16 v, b;
      std::memcpy(&v, gi + j, sizeof(v));
      std::memcpy(&b, w.bzr + j, sizeof(b));
      v = core::simd::vsigmoid16(v + b);
      std::memcpy(gi + j, &v, sizeof(v));
    }
    // r starts at lane d; the lanes past d of a row read z|r padding or
    // c, finite values that only ever meet the zero lanes of h.
    for (int64_t j = 0; j < L; j += 16) {
      vf16 r, hv;
      std::memcpy(&r, gi + d + j, sizeof(r));
      std::memcpy(&hv, h + i * L + j, sizeof(hv));
      r *= hv;
      std::memcpy(rh + i * L + j, &r, sizeof(r));
    }
  }
  tile_gemm(n, L, d, rh, L, w.uc, L, g + ZR, G, /*accumulate=*/true);
  const vf16 one = core::simd::splat(1.0f);
  for (int64_t i = 0; i < n; ++i) {
    const float* gi = g + i * G;
    for (int64_t j = 0; j < L; j += 16) {
      vf16 z, c, b, hv;
      std::memcpy(&z, gi + j, sizeof(z));
      std::memcpy(&c, gi + ZR + j, sizeof(c));
      std::memcpy(&b, w.bc + j, sizeof(b));
      std::memcpy(&hv, h + i * L + j, sizeof(hv));
      c = core::simd::vtanh16(c + b);
      const vf16 out = (one - z) * hv + z * c;
      std::memcpy(h_new + i * L + j, &out, sizeof(out));
    }
  }
}

}  // namespace

GatedGraphConv::GatedGraphConv(int64_t dim, int64_t num_steps, core::Rng& rng)
    : dim_(dim), steps_(num_steps),
      w_msg_(Tensor::uniform({dim, dim}, rng, -1.0f / std::sqrt(static_cast<float>(dim)),
                             1.0f / std::sqrt(static_cast<float>(dim))),
             "ggc.w_msg"),
      gru_(dim, rng) {}

Tensor GatedGraphConv::message(const Tensor& h) const {
  // Aggregate neighbour states, then apply the edge-type transform. Doing
  // the (N,dim)x(dim,dim) matmul once after aggregation instead of per-edge
  // keeps the step O(E*dim + N*dim^2).
  const int64_t rows = h.dim(0);
  Tensor agg = Tensor::uninit({rows, dim_});
  aggregate(csr_start_, csr_src_, h.data(), dim_, 0, rows, dim_, agg.data(), dim_);
  return agg.matmul(w_msg_.value);
}

Tensor GatedGraphConv::propagate_eval(const Tensor& h0, const std::vector<int32_t>& csr_start,
                                      const std::vector<int32_t>& csr_src) const {
  const int64_t rows = h0.dim(0), d = dim_, L = (d + 15) / 16 * 16, T = kTileRows;
  const StepWeights w = pack_step_weights(gru_.gates(), w_msg_.value);
  Tensor scratch = Tensor::uninit({step_scratch_floats(w)});
  Tensor cur = pad_lanes(h0, L), next = Tensor::uninit({rows, L});
  for (int64_t k = 0; k < steps_; ++k) {
    for (int64_t r0 = 0; r0 < rows; r0 += T)
      step_tile(w, csr_start, csr_src, cur.data(), next.data(), r0, std::min(T, rows - r0),
                scratch.data());
    std::swap(cur, next);
  }
  return unpad_lanes(cur, d);
}

void GatedGraphConv::build_csr(const EdgeList& edges, int64_t num_nodes,
                               std::vector<int32_t>& start, std::vector<int32_t>& src) {
  if (edges.dst.size() != edges.src.size()) {
    throw std::invalid_argument("GatedGraphConv: edge list src/dst sizes differ");
  }
  start.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (size_t e = 0; e < edges.size(); ++e) {
    const int32_t s = edges.src[e], t = edges.dst[e];
    if (s < 0 || s >= num_nodes || t < 0 || t >= num_nodes) {
      throw std::invalid_argument("GatedGraphConv: edge " + std::to_string(s) + " -> " +
                                  std::to_string(t) + " outside [0, " +
                                  std::to_string(num_nodes) + ")");
    }
    ++start[static_cast<size_t>(t) + 1];
  }
  for (int64_t v = 0; v < num_nodes; ++v)
    start[static_cast<size_t>(v) + 1] += start[static_cast<size_t>(v)];
  src.resize(edges.size());
  static thread_local std::vector<int32_t> cursor;
  cursor.assign(start.begin(), start.end() - 1);
  for (size_t e = 0; e < edges.size(); ++e) {
    src[static_cast<size_t>(cursor[static_cast<size_t>(edges.dst[e])]++)] = edges.src[e];
  }
}

Tensor GatedGraphConv::forward(const Tensor& h0, const EdgeList& edges, bool training) {
  if (h0.ndim() != 2 || h0.dim(1) != dim_) {
    throw std::invalid_argument("GatedGraphConv: bad state shape " + h0.shape_str());
  }
  if (!training) {
    // Per-thread CSR: an eval forward writes nothing the layer owns.
    static thread_local std::vector<int32_t> start, src;
    build_csr(edges, h0.dim(0), start, src);
    return propagate_eval(h0, start, src);
  }
  build_csr(edges, h0.dim(0), csr_start_, csr_src_);
  h_states_.clear();
  edges_ = &edges;
  gru_.clear_frames();
  Tensor h = h0;
  for (int64_t k = 0; k < steps_; ++k) {
    h_states_.push_back(h);
    Tensor m = message(h);
    h = gru_.forward(m, h, /*training=*/true);
  }
  return h;
}

Tensor GatedGraphConv::backward(const Tensor& grad_h_final) {
  if (!edges_) throw std::runtime_error("GatedGraphConv::backward before forward");
  Tensor gh = grad_h_final;
  for (int64_t k = steps_ - 1; k >= 0; --k) {
    auto [gm, gh_prev] = gru_.backward(gh);
    // message backward: m = (scatter-sum h) W; dW += agg^T gm, d(agg) = gm W^T,
    // then un-scatter: dh_src += d(agg)_dst for every edge.
    const Tensor& h = h_states_[static_cast<size_t>(k)];
    // agg rebuilt via the same CSR the forward used (edges unchanged).
    Tensor agg({h.dim(0), dim_});
    scatter_add_rows(edges_->src, edges_->dst, h.data(), agg.data(), dim_);
    w_msg_.grad += agg.matmul_tn(gm);
    Tensor dagg = gm.matmul_nt(w_msg_.value);
    scatter_add_rows(edges_->dst, edges_->src, dagg.data(), gh_prev.data(), dim_);
    gh = std::move(gh_prev);
  }
  edges_ = nullptr;
  return gh;
}

void GatedGraphConv::collect_parameters(std::vector<nn::Parameter*>& out) {
  out.push_back(&w_msg_);
  gru_.collect_parameters(out);
}

}  // namespace df::graph
