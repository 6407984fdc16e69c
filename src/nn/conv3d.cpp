#include "nn/conv3d.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/gemm.h"
#include "core/workspace.h"

namespace df::nn {

namespace {

// Floats of one forward group's scratch (its padded images and its GEMM
// result): 512 KiB, so a group's working set stays in L2.
constexpr int64_t kGroupFloats = int64_t{1} << 17;

// Output channels rounded up to whole 16-lane chunks: the row width of the
// forward's Wᵀ image and of its GEMM result.
int64_t round_lanes(int64_t cout) { return (cout + 15) / 16 * 16; }

// row[n] = src[base[n]] for n < N: the branch-free gather of one column
// row. GCC's generic tuning emulates vector gathers with scalar loads, so
// AVX-512 builds issue the hardware gather (masked for the N % 16 tail);
// elsewhere the restrict-qualified loop is left to the vectorizer.
void gather_row(const float* __restrict src, const int32_t* __restrict base,
                float* __restrict row, int64_t N) {
#if defined(__AVX512F__)
  for (int64_t n = 0; n < N; n += 16) {
    const __mmask16 lanes =
        N - n >= 16 ? __mmask16{0xFFFF} : static_cast<__mmask16>((1u << (N - n)) - 1);
    const __m512i idx = _mm512_maskz_loadu_epi32(lanes, base + n);
    _mm512_mask_storeu_ps(row + n, lanes,
                          _mm512_mask_i32gather_ps(_mm512_setzero_ps(), lanes, idx, src, 4));
  }
#else
  for (int64_t n = 0; n < N; ++n) row[n] = src[base[n]];
#endif
}

// This thread's scratch: `images` zero-bordered channel images of
// `padded` floats for a (D, H, W) input at padding `pad`, then `extra`
// floats. pad_channel rewrites only an image's interior, so the borders are
// zeroed when the thread first needs that many images of this geometry and
// stay zero for every later call with the same geometry; the extra region
// may overwrite images past `images`, so those count as dirty again.
float* conv_scratch(int64_t D, int64_t H, int64_t W, int64_t pad, int64_t padded, int64_t images,
                    int64_t extra) {
  static thread_local std::vector<float> buf;
  static thread_local std::array<int64_t, 4> geometry{-1, -1, -1, -1};
  static thread_local int64_t zeroed = 0;  // leading images with zero borders
  const std::array<int64_t, 4> want{D, H, W, pad};
  if (geometry != want) {
    geometry = want;
    zeroed = 0;
  }
  const size_t need = static_cast<size_t>(images * padded + extra);
  if (buf.size() < need) buf.resize(need);
  if (zeroed < images)
    std::fill(buf.begin() + zeroed * padded, buf.begin() + images * padded, 0.0f);
  zeroed = images;
  return buf.data();
}

#if defined(__AVX512F__)
// Swap the off-diagonal S x S blocks of every 2S x 2S tile of a 16 x 16
// register block; S = 8, 4, 2, 1 in turn transpose it.
template <int S>
inline void swap_blocks(__m512 (&r)[16]) {
  alignas(64) int32_t lo[16], hi[16];
  for (int l = 0; l < 16; ++l) {
    const bool left = l % (2 * S) < S;
    lo[l] = left ? l : 16 + l - S;
    hi[l] = left ? l + S : 16 + l;
  }
  const __m512i ilo = _mm512_load_si512(lo), ihi = _mm512_load_si512(hi);
  for (int a = 0; a < 16; ++a) {
    if (a % (2 * S) >= S) continue;
    const __m512 x = r[a], y = r[a + S];
    r[a] = _mm512_permutex2var_ps(x, ilo, y);
    r[a + S] = _mm512_permutex2var_ps(x, ihi, y);
  }
}
#endif

// dst[j * ldd + i] = src[i * lds + j] for i < rows, j < cols (both <= 16),
// with zeros in lanes rows..store-1 of each dst row. AVX-512 builds
// transpose the block in registers; a scalar loop over these strided
// accesses is several times slower.
void transpose_block(const float* src, int64_t lds, int64_t rows, int64_t cols, float* dst,
                     int64_t ldd, int64_t store) {
#if defined(__AVX512F__)
  const auto in = static_cast<__mmask16>((1u << cols) - 1);
  const auto out = static_cast<__mmask16>((1u << store) - 1);
  __m512 r[16];
  for (int64_t i = 0; i < 16; ++i)
    r[i] = i < rows ? _mm512_maskz_loadu_ps(in, src + i * lds) : _mm512_setzero_ps();
  swap_blocks<8>(r);
  swap_blocks<4>(r);
  swap_blocks<2>(r);
  swap_blocks<1>(r);
  for (int64_t j = 0; j < cols; ++j) _mm512_mask_storeu_ps(dst + j * ldd, out, r[j]);
#else
  for (int64_t j = 0; j < cols; ++j) {
    for (int64_t i = 0; i < rows; ++i) dst[j * ldd + i] = src[i * lds + j];
    std::fill(dst + j * ldd + rows, dst + j * ldd + store, 0.0f);
  }
#endif
}

// Wᵀ of a (cout, K) weight as a (K, L) row image, zero past cout.
void pack_wt(const float* w, int64_t cout, int64_t K, int64_t L, float* out) {
  for (int64_t c0 = 0; c0 < L; c0 += 16)
    for (int64_t p0 = 0; p0 < K; p0 += 16)
      transpose_block(w + c0 * K + p0, K, std::min<int64_t>(16, cout - c0),
                      std::min<int64_t>(16, K - p0), out + p0 * L + c0, L, 16);
}

std::string dims_str(const std::vector<int64_t>& dims) {
  std::string s = "(";
  for (size_t i = 0; i < dims.size(); ++i) s += (i > 0 ? "," : "") + std::to_string(dims[i]);
  return s + ")";
}

}  // namespace

Conv3d::Conv3d(int64_t in_channels, int64_t out_channels, int64_t kernel, core::Rng& rng,
               int64_t stride, int64_t padding)
    : cin_(in_channels), cout_(out_channels), k_(kernel), stride_(stride), pad_(padding) {
  const float fan_in = static_cast<float>(cin_ * k_ * k_ * k_);
  const float bound = 1.0f / std::sqrt(fan_in);
  w_ = Parameter(Tensor::uniform({cout_, cin_, k_, k_, k_}, rng, -bound, bound), "conv3d.w");
  b_ = Parameter(Tensor::uniform({cout_}, rng, -bound, bound), "conv3d.b");
}

Tensor Conv3d::forward(const Tensor& x) { return forward_act(x, core::EpilogueAct::kNone); }

std::shared_ptr<const Conv3d::Lowering> Conv3d::lowering(int64_t D, int64_t H, int64_t W) {
  {
    std::lock_guard<std::mutex> lock(lowering_mu_);
    if (lowering_ != nullptr && lowering_->D == D && lowering_->H == H && lowering_->W == W)
      return lowering_;
  }
  if (D + 2 * pad_ < k_ || H + 2 * pad_ < k_ || W + 2 * pad_ < k_)
    throw std::invalid_argument("Conv3d: a " + std::to_string(k_) + "^3 window does not fit a " +
                                std::to_string(D) + "x" + std::to_string(H) + "x" +
                                std::to_string(W) + " input at padding " + std::to_string(pad_));
  const int64_t Dp = D + 2 * pad_, Hp = H + 2 * pad_, Wp = W + 2 * pad_;
  if (cin_ * Dp * Hp * Wp > std::numeric_limits<int32_t>::max())
    throw std::invalid_argument("Conv3d: input sample too large to lower");
  const int64_t Do = out_size(D, k_, stride_, pad_);
  const int64_t Ho = out_size(H, k_, stride_, pad_);
  const int64_t Wo = out_size(W, k_, stride_, pad_);
  auto built = std::make_shared<Lowering>();
  Lowering& l = *built;
  l.D = D;
  l.H = H;
  l.W = W;
  l.Hp = Hp;
  l.Wp = Wp;
  l.origin = (pad_ * Hp + pad_) * Wp + pad_;
  l.padded = Dp * Hp * Wp;
  l.N = Do * Ho * Wo;
  const int64_t sample = cin_ * l.padded;
  l.group = std::max<int64_t>(1, kGroupFloats / (sample + l.N * round_lanes(cout_)));
  for (int64_t s = 0; s < l.group; ++s)
    for (int64_t zo = 0; zo < Do; ++zo)
      for (int64_t yo = 0; yo < Ho; ++yo)
        for (int64_t xo = 0; xo < Wo; ++xo)
          l.row_off.push_back(
              static_cast<int32_t>(s * sample + ((zo * Hp + yo) * Wp + xo) * stride_));
  for (int64_t c = 0; c < cin_; ++c)
    for (int64_t kz = 0; kz < k_; ++kz)
      for (int64_t ky = 0; ky < k_; ++ky)
        for (int64_t kx = 0; kx < k_; ++kx)
          l.k_off.push_back(static_cast<int32_t>(c * l.padded + (kz * Hp + ky) * Wp + kx));
  std::lock_guard<std::mutex> lock(lowering_mu_);
  lowering_ = std::move(built);
  return lowering_;
}

void Conv3d::pad_channel(const Lowering& l, const float* x, float* xp) {
  for (int64_t z = 0; z < l.D; ++z)
    for (int64_t y = 0; y < l.H; ++y)
      std::memcpy(xp + l.origin + (z * l.Hp + y) * l.Wp, x + (z * l.H + y) * l.W,
                  static_cast<size_t>(l.W) * sizeof(float));
}

void Conv3d::lower_channel(const Lowering& l, const float* xp, float* cols, int64_t ld) const {
  for (int64_t t = 0; t < k_ * k_ * k_; ++t)
    gather_row(xp + l.k_off[static_cast<size_t>(t)], l.row_off.data(), cols + t * ld, l.N);
}

Tensor Conv3d::forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope) {
  if (x.ndim() != 5 || x.dim(1) != cin_) {
    throw std::invalid_argument("Conv3d: expected (B," + std::to_string(cin_) + ",D,H,W), got " +
                                x.shape_str());
  }
  if (training_) cached_input_ = x;
  const int64_t B = x.dim(0), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const std::shared_ptr<const Lowering> lp = lowering(D, H, W);
  const Lowering& l = *lp;
  Tensor out = Tensor::uninit({B, cout_, out_size(D, k_, stride_, pad_),
                               out_size(H, k_, stride_, pad_), out_size(W, k_, stride_, pad_)});
  if (B == 0) return out;

  // B operand: Wᵀ as a (K, L) row image, zero past cout, packed for this
  // forward (in the replica arena when one is bound, released when the
  // layer returns).
  const int64_t K = cin_ * k_ * k_ * k_, L = round_lanes(cout_);
  std::optional<core::Workspace::Scope> release;
  if (core::Workspace* ws = core::Workspace::current()) release.emplace(*ws);
  Tensor wt = Tensor::uninit({K * L});
  pack_wt(w_.value.data(), cout_, K, L, wt.data());
  // The GEMM's columns are the output channels, so the conv bias is a
  // column bias; it and the optional activation ride the fused epilogue.
  core::Epilogue ep;
  ep.act = act;
  ep.bias_col = b_.value.data();
  ep.leaky_slope = leaky_slope;

  // Samples run in groups of at most l.group, balanced over the batch. A
  // group's channels are padded into its images, the (g*N, K) indirect A
  // is multiplied by Wᵀ into (g*N, L) result rows, and those are
  // transposed into the samples' (cout, N) output planes. Each output
  // element's sum and epilogue are the same for any group, so grouping
  // changes no bit.
  const int64_t N = l.N, chan_in = D * H * W, sample = cin_ * l.padded;
  const int64_t groups = (B + l.group - 1) / l.group;
  const int64_t g = (B + groups - 1) / groups;
  const float* in = x.data();
  float* o = out.data();
  for (int64_t b0 = 0; b0 < B; b0 += g) {
    const int64_t gb = std::min(g, B - b0);
    float* xp = conv_scratch(D, H, W, pad_, l.padded, gb * cin_, gb * N * L);
    for (int64_t c = 0; c < gb * cin_; ++c)
      pad_channel(l, in + (b0 * cin_ + c) * chan_in, xp + c * l.padded);
    float* res = xp + gb * sample;
    core::sgemm_indirect(gb * N, cout_, K, xp, l.row_off.data(), l.k_off.data(), wt.data(), L,
                         res, L, &ep);
    for (int64_t s = 0; s < gb; ++s)
      for (int64_t c0 = 0; c0 < cout_; c0 += 16)
        for (int64_t n0 = 0; n0 < N; n0 += 16) {
          const int64_t nn = std::min<int64_t>(16, N - n0);
          transpose_block(res + (s * N + n0) * L + c0, L, nn, std::min<int64_t>(16, cout_ - c0),
                          o + ((b0 + s) * cout_ + c0) * N + n0, N, nn);
        }
  }
  return out;
}

Tensor Conv3d::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::runtime_error("Conv3d::backward before forward");
  const Tensor& x = cached_input_;
  const int64_t B = x.dim(0), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const std::vector<int64_t> want = {B, cout_, out_size(D, k_, stride_, pad_),
                                     out_size(H, k_, stride_, pad_),
                                     out_size(W, k_, stride_, pad_)};
  if (grad_out.shape() != want)
    throw std::invalid_argument("Conv3d::backward: gradient " + grad_out.shape_str() +
                                " is not the training forward's output shape " +
                                dims_str(want));
  const std::shared_ptr<const Lowering> lp = lowering(D, H, W);
  const Lowering& l = *lp;
  Tensor grad_in = Tensor::uninit(x.shape());

  const int64_t K = cin_ * k_ * k_ * k_;
  const int64_t N = l.N;
  const int64_t taps = k_ * k_ * k_;
  const int64_t chan_in = D * H * W;
  const int64_t chan_cols = taps * N;
  const float* in = x.data();
  const float* g = grad_out.data();
  const float* w = w_.value.data();
  float* gw = w_.grad.data();
  float* gb = b_.grad.data();
  float* gi = grad_in.data();

  // Serial over samples: grad_w/grad_b accumulate across the batch.
  std::vector<float> cols(static_cast<size_t>(K * N));
  std::vector<float> cols_grad(static_cast<size_t>(K * N));
  std::vector<float> gpad(static_cast<size_t>(l.padded));
  float* xp = conv_scratch(D, H, W, pad_, l.padded, 1, 0);
  for (int64_t b = 0; b < B; ++b) {
    const float* gbatch = g + b * cout_ * N;
    for (int64_t co = 0; co < cout_; ++co) {
      const float* row = gbatch + co * N;
      float acc = 0.0f;
      for (int64_t j = 0; j < N; ++j) acc += row[j];
      gb[co] += acc;
    }
    for (int64_t ci = 0; ci < cin_; ++ci) {
      pad_channel(l, in + (b * cin_ + ci) * chan_in, xp);
      lower_channel(l, xp, cols.data() + ci * chan_cols, N);
    }
    // dW (cout,K) += gOut (cout,N) x cols^T (N,K)
    core::sgemm(false, true, cout_, K, N, gbatch, N, cols.data(), N, gw, K, /*accumulate=*/true);
    // dCols (K,N) = W^T (K,cout) x gOut (cout,N), scattered back to dInput.
    core::sgemm(true, false, K, N, cout_, w, K, gbatch, N, cols_grad.data(), N);
    for (int64_t ci = 0; ci < cin_; ++ci) {
      // Tap row, then position: each input element's contributions are
      // summed in the order a plain col2im adds them. The padding border
      // collects the out-of-range taps and is dropped with the copy-out.
      std::fill(gpad.begin(), gpad.end(), 0.0f);
      const float* dc = cols_grad.data() + ci * chan_cols;
      for (int64_t t = 0; t < taps; ++t) {
        float* dst = gpad.data() + l.k_off[static_cast<size_t>(t)];
        const float* src = dc + t * N;
        for (int64_t n = 0; n < N; ++n) dst[l.row_off[static_cast<size_t>(n)]] += src[n];
      }
      float* gx = gi + (b * cin_ + ci) * chan_in;
      for (int64_t z = 0; z < D; ++z)
        for (int64_t y = 0; y < H; ++y)
          std::memcpy(gx + (z * H + y) * W, gpad.data() + l.origin + (z * l.Hp + y) * l.Wp,
                      static_cast<size_t>(W) * sizeof(float));
    }
  }
  return grad_in;
}

void Conv3d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  out.push_back(&b_);
}

Tensor conv3d_forward_naive(const Tensor& x, const Tensor& w, const Tensor& b, int64_t stride,
                            int64_t padding) {
  const int64_t B = x.dim(0), cin = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t Do = Conv3d::out_size(D, k, stride, padding);
  const int64_t Ho = Conv3d::out_size(H, k, stride, padding);
  const int64_t Wo = Conv3d::out_size(W, k, stride, padding);
  Tensor out({B, cout, Do, Ho, Wo});

  const float* in = x.data();
  float* o = out.data();
  const float* wd = w.data();
  const int64_t in_chan = D * H * W, out_chan = Do * Ho * Wo, wk = k * k * k;

  for (int64_t bb = 0; bb < B; ++bb) {
    for (int64_t co = 0; co < cout; ++co) {
      float* obase = o + (bb * cout + co) * out_chan;
      const float bias = b[co];
      for (int64_t zo = 0; zo < Do; ++zo) {
        for (int64_t yo = 0; yo < Ho; ++yo) {
          for (int64_t xo = 0; xo < Wo; ++xo) {
            float acc = bias;
            const int64_t z0 = zo * stride - padding;
            const int64_t y0 = yo * stride - padding;
            const int64_t x0 = xo * stride - padding;
            for (int64_t ci = 0; ci < cin; ++ci) {
              const float* ibase = in + (bb * cin + ci) * in_chan;
              const float* wbase = wd + (co * cin + ci) * wk;
              for (int64_t kz = 0; kz < k; ++kz) {
                const int64_t z = z0 + kz;
                if (z < 0 || z >= D) continue;
                for (int64_t ky = 0; ky < k; ++ky) {
                  const int64_t y = y0 + ky;
                  if (y < 0 || y >= H) continue;
                  const float* irow = ibase + (z * H + y) * W;
                  const float* wrow = wbase + (kz * k + ky) * k;
                  for (int64_t kx = 0; kx < k; ++kx) {
                    const int64_t xx = x0 + kx;
                    if (xx < 0 || xx >= W) continue;
                    acc += irow[xx] * wrow[kx];
                  }
                }
              }
            }
            obase[(zo * Ho + yo) * Wo + xo] = acc;
          }
        }
      }
    }
  }
  return out;
}

Tensor conv3d_backward_naive(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                             Tensor& grad_w, Tensor& grad_b, int64_t stride, int64_t padding) {
  const int64_t B = x.dim(0), cin = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  const int64_t cout = w.dim(0), k = w.dim(2);
  const int64_t Do = grad_out.dim(2), Ho = grad_out.dim(3), Wo = grad_out.dim(4);
  Tensor grad_in(x.shape());

  const float* in = x.data();
  const float* g = grad_out.data();
  const float* wd = w.data();
  float* gw = grad_w.data();
  float* gi = grad_in.data();
  const int64_t in_chan = D * H * W, out_chan = Do * Ho * Wo, wk = k * k * k;

  for (int64_t bb = 0; bb < B; ++bb) {
    for (int64_t co = 0; co < cout; ++co) {
      const float* gbase = g + (bb * cout + co) * out_chan;
      for (int64_t zo = 0; zo < Do; ++zo) {
        for (int64_t yo = 0; yo < Ho; ++yo) {
          for (int64_t xo = 0; xo < Wo; ++xo) {
            const float gv = gbase[(zo * Ho + yo) * Wo + xo];
            grad_b[co] += gv;
            const int64_t z0 = zo * stride - padding;
            const int64_t y0 = yo * stride - padding;
            const int64_t x0 = xo * stride - padding;
            for (int64_t ci = 0; ci < cin; ++ci) {
              const float* ibase = in + (bb * cin + ci) * in_chan;
              float* gibase = gi + (bb * cin + ci) * in_chan;
              const float* wbase = wd + (co * cin + ci) * wk;
              float* gwbase = gw + (co * cin + ci) * wk;
              for (int64_t kz = 0; kz < k; ++kz) {
                const int64_t z = z0 + kz;
                if (z < 0 || z >= D) continue;
                for (int64_t ky = 0; ky < k; ++ky) {
                  const int64_t y = y0 + ky;
                  if (y < 0 || y >= H) continue;
                  const int64_t irow = (z * H + y) * W;
                  const int64_t wrow = (kz * k + ky) * k;
                  for (int64_t kx = 0; kx < k; ++kx) {
                    const int64_t xx = x0 + kx;
                    if (xx < 0 || xx >= W) continue;
                    gwbase[wrow + kx] += gv * ibase[irow + xx];
                    gibase[irow + xx] += gv * wbase[wrow + kx];
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Tensor MaxPool3d::forward(const Tensor& x) {
  if (x.ndim() != 5) throw std::invalid_argument("MaxPool3d: expected 5-D, got " + x.shape_str());
  const int64_t B = x.dim(0), C = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  if (D < k_ || H < k_ || W < k_)
    throw std::invalid_argument("MaxPool3d: a " + std::to_string(k_) + "^3 window does not fit " +
                                x.shape_str());
  const int64_t Do = (D - k_) / stride_ + 1, Ho = (H - k_) / stride_ + 1, Wo = (W - k_) / stride_ + 1;
  Tensor out = Tensor::uninit({B, C, Do, Ho, Wo});
  // Only backward reads the argmax indices and shapes, so eval forwards
  // record nothing and leave the last training forward's in place.
  const bool track = training_;
  if (track) {
    in_shape_ = x.shape();
    out_shape_ = out.shape();
    argmax_.resize(static_cast<size_t>(out.numel()));
  }

  const float* in = x.data();
  float* o = out.data();
  const int64_t in_chan = D * H * W;
  const int64_t out_chan = Do * Ho * Wo;
  for (int64_t bc = 0; bc < B * C; ++bc) {
    const float* ibase = in + bc * in_chan;
    int64_t oi = bc * out_chan;
    for (int64_t zo = 0; zo < Do; ++zo)
      for (int64_t yo = 0; yo < Ho; ++yo)
        for (int64_t xo = 0; xo < Wo; ++xo, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          int64_t besti = 0;
          for (int64_t kz = 0; kz < k_; ++kz)
            for (int64_t ky = 0; ky < k_; ++ky)
              for (int64_t kx = 0; kx < k_; ++kx) {
                const int64_t idx = ((zo * stride_ + kz) * H + yo * stride_ + ky) * W +
                                    xo * stride_ + kx;
                if (ibase[idx] > best) {
                  best = ibase[idx];
                  besti = bc * in_chan + idx;
                }
              }
          o[oi] = best;
          if (track) argmax_[static_cast<size_t>(oi)] = besti;
        }
  }
  return out;
}

Tensor MaxPool3d::backward(const Tensor& grad_out) {
  if (in_shape_.empty()) throw std::runtime_error("MaxPool3d::backward before a training forward");
  if (grad_out.shape() != out_shape_)
    throw std::invalid_argument("MaxPool3d::backward: gradient " + grad_out.shape_str() +
                                " is not the training forward's output shape " +
                                dims_str(out_shape_));
  Tensor grad_in(in_shape_);
  for (int64_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[static_cast<size_t>(i)]] += grad_out[i];
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x) {
  if (training_) in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) { return grad_out.reshaped(in_shape_); }

}  // namespace df::nn
