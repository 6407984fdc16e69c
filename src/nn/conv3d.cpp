#include "nn/conv3d.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "core/gemm.h"
#include "core/gemm_s8.h"
#include "core/parallel.h"

namespace df::nn {

namespace {

// Samples lowered side by side into one column matrix when a layer's
// per-sample output has N positions. Below 32 columns the per-sample GEMM
// is too narrow to fill the micro-kernel's lanes, so ceil(32 / N) samples
// share one (K, g*N) GEMM; at N >= 32 each sample's GEMM stands alone.
int64_t group_size(int64_t N) { return N > 0 && N < 32 ? (32 + N - 1) / N : 1; }

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

// This thread's zero-bordered channel image for a (D, H, W) input at
// padding `pad`. pad_channel rewrites only the interior, so the border is
// zeroed when the thread last lowered another geometry and stays zero for
// every later (sample, channel) of this one.
float* padded_scratch(int64_t D, int64_t H, int64_t W, int64_t pad, int64_t floats) {
  static thread_local std::vector<float> image;
  static thread_local std::array<int64_t, 4> geometry{-1, -1, -1, -1};
  const std::array<int64_t, 4> want{D, H, W, pad};
  if (geometry != want) {
    image.assign(static_cast<size_t>(floats), 0.0f);
    geometry = want;
  }
  return image.data();
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

void Conv3d::build_lowering(int64_t D, int64_t H, int64_t W) {
  Lowering& l = lowering_;
  if (l.D == D && l.H == H && l.W == W) return;
  if (D + 2 * pad_ < k_ || H + 2 * pad_ < k_ || W + 2 * pad_ < k_)
    throw std::invalid_argument("Conv3d: a " + std::to_string(k_) + "^3 window does not fit a " +
                                std::to_string(D) + "x" + std::to_string(H) + "x" +
                                std::to_string(W) + " input at padding " + std::to_string(pad_));
  const int64_t Dp = D + 2 * pad_, Hp = H + 2 * pad_, Wp = W + 2 * pad_;
  if (Dp * Hp * Wp > std::numeric_limits<int32_t>::max())
    throw std::invalid_argument("Conv3d: input channel too large to lower");
  const int64_t Do = out_size(D, k_, stride_, pad_);
  const int64_t Ho = out_size(H, k_, stride_, pad_);
  const int64_t Wo = out_size(W, k_, stride_, pad_);
  l.D = D;
  l.H = H;
  l.W = W;
  l.Hp = Hp;
  l.Wp = Wp;
  l.origin = (pad_ * Hp + pad_) * Wp + pad_;
  l.padded = Dp * Hp * Wp;
  l.N = Do * Ho * Wo;
  l.base.clear();
  for (int64_t zo = 0; zo < Do; ++zo)
    for (int64_t yo = 0; yo < Ho; ++yo)
      for (int64_t xo = 0; xo < Wo; ++xo)
        l.base.push_back(static_cast<int32_t>(((zo * Hp + yo) * Wp + xo) * stride_));
  l.off.clear();
  for (int64_t kz = 0; kz < k_; ++kz)
    for (int64_t ky = 0; ky < k_; ++ky)
      for (int64_t kx = 0; kx < k_; ++kx)
        l.off.push_back(static_cast<int32_t>((kz * Hp + ky) * Wp + kx));
}

void Conv3d::pad_channel(const float* x, float* xp) const {
  const Lowering& l = lowering_;
  for (int64_t z = 0; z < l.D; ++z)
    for (int64_t y = 0; y < l.H; ++y)
      std::memcpy(xp + l.origin + (z * l.Hp + y) * l.Wp, x + (z * l.H + y) * l.W,
                  static_cast<size_t>(l.W) * sizeof(float));
}

void Conv3d::lower_channel(const float* xp, float* cols, int64_t ld) const {
  const Lowering& l = lowering_;
  for (size_t t = 0; t < l.off.size(); ++t)
    gather_row(xp + l.off[t], l.base.data(), cols + static_cast<int64_t>(t) * ld, l.N);
}

Tensor Conv3d::forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope) {
  if (x.ndim() != 5 || x.dim(1) != cin_) {
    throw std::invalid_argument("Conv3d: expected (B," + std::to_string(cin_) + ",D,H,W), got " +
                                x.shape_str());
  }
  if (training_) cached_input_ = x;
  if (!training_ && observer_ != nullptr) observer_->observe(x.data(), x.numel());
  const int64_t B = x.dim(0), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  build_lowering(D, H, W);
  const int64_t Do = out_size(D, k_, stride_, pad_);
  const int64_t Ho = out_size(H, k_, stride_, pad_);
  const int64_t Wo = out_size(W, k_, stride_, pad_);
  Tensor out = Tensor::uninit({B, cout_, Do, Ho, Wo});

  const int64_t K = cin_ * k_ * k_ * k_;
  const int64_t N = Do * Ho * Wo;
  const float* in = x.data();
  const float* w = w_.value.data();  // (cout, K) row-major as stored
  float* o = out.data();

  // The (cout x N) sample GEMM's row index is the output channel, so the
  // conv bias is a per-row broadcast; it and the optional activation ride
  // the fused epilogue instead of a second sweep over the output volume.
  core::Epilogue ep;
  ep.act = act;
  ep.bias_row = b_.value.data();
  ep.leaky_slope = leaky_slope;

  // One padded copy and gather per (sample, channel) and one GEMM per group
  // of g samples; groups fan out over the compute pool (sgemm detects it
  // runs on a worker and stays serial inside, and workers only read the
  // shared lowering). A group's samples sit side by side in one (K, g*N)
  // column matrix, so a small output grid still feeds the GEMM >= 32
  // columns; a large one keeps g = 1, whose column matrix stays
  // cache-resident across samples. Each output element's accumulation and
  // epilogue are the same for any GEMM width, so grouping changes no output
  // bit. The int8 path quantizes one sample's columns at a time and keeps
  // g = 1.
  const bool int8 = !training_ && eval_.kind == EvalWeights::Kind::kInt8;
  const int64_t g = int8 ? 1 : group_size(N);
  const int64_t ld = g * N;
  const int64_t chan_in = D * H * W;
  const int64_t chan_cols = k_ * k_ * k_ * ld;
  core::parallel_for_auto(static_cast<size_t>((B + g - 1) / g), 2, [&](size_t gi) {
    const int64_t b0 = static_cast<int64_t>(gi) * g;
    const int64_t gb = std::min(g, B - b0);
    const int64_t n = gb * N;
    static thread_local std::vector<float> cols;
    cols.resize(static_cast<size_t>(K * ld));
    float* xp = padded_scratch(D, H, W, pad_, lowering_.padded);
    for (int64_t s = 0; s < gb; ++s)
      for (int64_t ci = 0; ci < cin_; ++ci) {
        pad_channel(in + ((b0 + s) * cin_ + ci) * chan_in, xp);
        lower_channel(xp, cols.data() + ci * chan_cols + s * N, ld);
      }
    float* ob = o + b0 * cout_ * N;
    if (int8) {
      // Int8 path: quantize this sample's column matrix to packed s8 panels
      // (the GEMM's B operand) against the prequantized u8 weight image.
      // The compensation vector depends on the quantized columns, so it is
      // produced here per call, unlike Dense's static weight-side comp.
      static thread_local std::vector<int8_t> colsq;
      static thread_local std::vector<int32_t> comp;
      colsq.resize(static_cast<size_t>(core::packed_b_bytes_s8(K, N)));
      comp.resize(static_cast<size_t>(N));
      core::pack_quantize_b_s8(K, N, cols.data(), N, /*inv_scale_col=*/nullptr,
                               1.0f / eval_.act_scale, colsq.data(), comp.data());
      core::QuantEpilogue qep;
      qep.act = act;
      qep.leaky_slope = leaky_slope;
      qep.scale_row = eval_.scales;
      qep.bias_row = b_.value.data();
      qep.comp_col = comp.data();
      const int64_t k4 = (K + 3) & ~int64_t{3};
      core::gemm_u8s8f32(cout_, N, K, reinterpret_cast<const uint8_t*>(eval_.s8()), k4,
                         colsq.data(), ob, N, qep);
      return;
    }
    // A group's (cout, g*N) result lands in scratch and is then split into
    // its samples' (cout, N) output planes.
    static thread_local std::vector<float> res;
    float* c = ob;
    if (g > 1) {
      res.resize(static_cast<size_t>(cout_ * ld));
      c = res.data();
    }
    if (!training_ && eval_.kind == EvalWeights::Kind::kF32) {
      core::sgemm_prepacked({cout_, K, eval_.f32(), w}, n, cols.data(), ld, c, n,
                            /*accumulate=*/false, &ep);
    } else {
      core::sgemm(false, false, cout_, n, K, w, K, cols.data(), ld, c, n, /*accumulate=*/false,
                  &ep);
    }
    if (g > 1)
      for (int64_t s = 0; s < gb; ++s)
        for (int64_t co = 0; co < cout_; ++co)
          std::memcpy(ob + (s * cout_ + co) * N, c + co * n + s * N,
                      static_cast<size_t>(N) * sizeof(float));
  });
  return out;
}

EvalWeights Conv3d::packed_f32() const {
  const int64_t K = cin_ * k_ * k_ * k_;
  auto image = std::make_shared<std::vector<float>>(
      static_cast<size_t>(core::packed_a_floats(cout_, K)));
  core::pack_a_full(false, cout_, K, w_.value.data(), K, image->data());
  return {.kind = EvalWeights::Kind::kF32,
          .image = image->data(),
          .image_len = static_cast<int64_t>(image->size()),
          .keep_alive = image};
}

EvalWeights Conv3d::packed_int8(float act_scale) const {
  const int64_t K = cin_ * k_ * k_ * k_;
  const float* W = w_.value.data();  // (cout, K) row-major
  std::vector<float> wmax(static_cast<size_t>(cout_), 0.0f);
  for (int64_t co = 0; co < cout_; ++co) {
    const float* row = W + co * K;
    float m = 0.0f;
    for (int64_t p = 0; p < K; ++p) {
      const float a = std::fabs(row[p]);
      if (a > m) m = a;
    }
    wmax[static_cast<size_t>(co)] = m;
  }
  std::vector<float> wscale, winv;
  int8_weight_steps(wmax, wscale, winv);
  auto q = std::make_shared<Int8Image>();
  q->image.resize(static_cast<size_t>(core::quantized_a_bytes_s8(cout_, K)));
  core::quantize_a_u8(cout_, K, W, K, winv.data(), 0.0f,
                      reinterpret_cast<uint8_t*>(q->image.data()));
  q->scales.resize(static_cast<size_t>(cout_));
  for (int64_t co = 0; co < cout_; ++co)
    q->scales[static_cast<size_t>(co)] = act_scale * wscale[static_cast<size_t>(co)];
  return {.kind = EvalWeights::Kind::kInt8,
          .image = q->image.data(),
          .image_len = static_cast<int64_t>(q->image.size()),
          .scales = q->scales.data(),
          .scales_len = cout_,
          .act_scale = act_scale,
          .keep_alive = q};
}

void Conv3d::set_eval_weights(EvalWeights e) {
  const int64_t K = cin_ * k_ * k_ * k_;
  e.check_fits(core::packed_a_floats(cout_, K), core::quantized_a_bytes_s8(cout_, K), cout_, 0,
               "Conv3d(" + std::to_string(cin_) + "->" + std::to_string(cout_) + ", k" +
                   std::to_string(k_) + ")");
  eval_ = std::move(e);
}

Tensor Conv3d::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::runtime_error("Conv3d::backward before forward");
  const Tensor& x = cached_input_;
  const int64_t B = x.dim(0), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  build_lowering(D, H, W);
  const int64_t Do = grad_out.dim(2), Ho = grad_out.dim(3), Wo = grad_out.dim(4);
  Tensor grad_in = Tensor::uninit(x.shape());

  const int64_t K = cin_ * k_ * k_ * k_;
  const int64_t N = Do * Ho * Wo;
  const int64_t chan_in = D * H * W;
  const int64_t chan_cols = k_ * k_ * k_ * N;
  const float* in = x.data();
  const float* g = grad_out.data();
  const float* w = w_.value.data();
  float* gw = w_.grad.data();
  float* gb = b_.grad.data();
  float* gi = grad_in.data();
  const Lowering& l = lowering_;

  // Serial over samples: grad_w/grad_b accumulate across the batch, and the
  // per-sample gemms already use the pool when one is installed.
  std::vector<float> cols(static_cast<size_t>(K * N));
  std::vector<float> cols_grad(static_cast<size_t>(K * N));
  std::vector<float> gpad(static_cast<size_t>(l.padded));
  float* xp = padded_scratch(D, H, W, pad_, l.padded);
  for (int64_t b = 0; b < B; ++b) {
    const float* gbatch = g + b * cout_ * N;
    for (int64_t co = 0; co < cout_; ++co) {
      const float* row = gbatch + co * N;
      float acc = 0.0f;
      for (int64_t j = 0; j < N; ++j) acc += row[j];
      gb[co] += acc;
    }
    for (int64_t ci = 0; ci < cin_; ++ci) {
      pad_channel(in + (b * cin_ + ci) * chan_in, xp);
      lower_channel(xp, cols.data() + ci * chan_cols, N);
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
      for (size_t t = 0; t < l.off.size(); ++t) {
        float* dst = gpad.data() + l.off[t];
        const float* src = dc + static_cast<int64_t>(t) * N;
        for (int64_t n = 0; n < N; ++n) dst[l.base[static_cast<size_t>(n)]] += src[n];
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
  in_shape_ = x.shape();
  const int64_t B = x.dim(0), C = x.dim(1), D = x.dim(2), H = x.dim(3), W = x.dim(4);
  if (D < k_ || H < k_ || W < k_)
    throw std::invalid_argument("MaxPool3d: a " + std::to_string(k_) + "^3 window does not fit " +
                                x.shape_str());
  const int64_t Do = (D - k_) / stride_ + 1, Ho = (H - k_) / stride_ + 1, Wo = (W - k_) / stride_ + 1;
  Tensor out = Tensor::uninit({B, C, Do, Ho, Wo});
  // Only backward reads the argmax indices, so eval forwards skip them.
  const bool track = training_;
  if (track) argmax_.resize(static_cast<size_t>(out.numel()));

  const float* in = x.data();
  float* o = out.data();
  const int64_t in_chan = D * H * W;
  const int64_t out_chan = Do * Ho * Wo;
  // (batch, channel) planes are independent — fan out over the pool.
  core::parallel_for_auto(static_cast<size_t>(B * C), 4, [&](size_t bci) {
    const int64_t bc = static_cast<int64_t>(bci);
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
  });
  return out;
}

Tensor MaxPool3d::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_);
  for (int64_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[static_cast<size_t>(i)]] += grad_out[i];
  return grad_in;
}

Tensor Flatten::forward(const Tensor& x) {
  in_shape_ = x.shape();
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) { return grad_out.reshaped(in_shape_); }

}  // namespace df::nn
