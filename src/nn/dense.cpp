#include "nn/dense.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/gemm_s8.h"

namespace df::nn {

Dense::Dense(int64_t in_features, int64_t out_features, core::Rng& rng, bool bias)
    : in_(in_features), out_(out_features), has_bias_(bias) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_features));
  w_ = Parameter(Tensor::uniform({in_, out_}, rng, -bound, bound), "dense.w");
  b_ = Parameter(bias ? Tensor::uniform({out_}, rng, -bound, bound) : Tensor({0}), "dense.b");
}

Tensor Dense::forward(const Tensor& x) { return forward_act(x, core::EpilogueAct::kNone); }

Tensor Dense::forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope) {
  if (x.ndim() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("Dense: expected (B," + std::to_string(in_) + "), got " +
                                x.shape_str());
  }
  if (training_) cached_input_ = x;
  const int64_t batch = x.dim(0);
  Tensor y = Tensor::uninit({batch, out_});
  if (!training_ && eval_.kind == EvalWeights::Kind::kInt8) {
    // Dynamic per-row activation quantization: each batch row (one pose)
    // gets its own runtime quant step from its own |x| range. Pooled graph
    // activations scale with ligand size, so a single static step
    // either clips large poses or starves small ones of levels; a per-row
    // step is exact for whatever range the row actually has. Serial and
    // data-dependent only on this row's bytes — thread-count invariant.
    const int64_t k4 = (in_ + 3) & ~int64_t{3};
    thread_local std::vector<uint8_t> xq;
    thread_local std::vector<float> row_scale, row_inv;
    xq.resize(static_cast<size_t>(core::quantized_a_bytes_s8(batch, in_)));
    row_scale.resize(static_cast<size_t>(batch));
    row_inv.resize(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
      const float* row = x.data() + i * in_;
      float amax = 0.0f;
      for (int64_t p = 0; p < in_; ++p) amax = std::max(amax, std::fabs(row[p]));
      const float s = amax > 0.0f ? amax / 127.0f : 1.0f;
      row_scale[static_cast<size_t>(i)] = s;
      row_inv[static_cast<size_t>(i)] = 1.0f / s;
    }
    core::quantize_a_u8(batch, in_, x.data(), in_, row_inv.data(), 1.0f, xq.data());
    core::QuantEpilogue qep;
    qep.act = act;
    qep.leaky_slope = leaky_slope;
    qep.scale_col = eval_.scales;
    qep.scale_row = row_scale.data();
    qep.bias_col = has_bias_ ? b_.value.data() : nullptr;
    qep.comp_col = eval_.comp;
    core::gemm_u8s8f32(batch, out_, in_, xq.data(), k4, eval_.s8(), y.data(), out_, qep);
    return y;
  }
  core::Epilogue ep;
  ep.act = act;
  ep.bias_col = has_bias_ ? b_.value.data() : nullptr;
  ep.leaky_slope = leaky_slope;
  const bool fused = has_bias_ || act != core::EpilogueAct::kNone;
  if (!training_ && eval_.kind == EvalWeights::Kind::kF32) {
    core::sgemm_prepacked(batch, x.data(), in_, {in_, out_, eval_.f32()}, y.data(), out_,
                          /*accumulate=*/false, fused ? &ep : nullptr);
  } else {
    core::sgemm(false, false, batch, out_, in_, x.data(), in_, w_.value.data(), out_, y.data(),
                out_, /*accumulate=*/false, fused ? &ep : nullptr);
  }
  return y;
}

EvalWeights Dense::packed_f32() const {
  auto image = std::make_shared<std::vector<float>>(
      static_cast<size_t>(core::packed_b_floats(in_, out_)));
  core::pack_b_full(false, in_, out_, w_.value.data(), out_, image->data());
  return {.kind = EvalWeights::Kind::kF32,
          .image = image->data(),
          .image_len = static_cast<int64_t>(image->size()),
          .keep_alive = image};
}

EvalWeights Dense::packed_int8() const {
  const float* W = w_.value.data();  // (in, out)
  std::vector<float> wmax(static_cast<size_t>(out_), 0.0f);
  for (int64_t i = 0; i < in_; ++i) {
    const float* row = W + i * out_;
    for (int64_t j = 0; j < out_; ++j) {
      const float a = std::fabs(row[j]);
      if (a > wmax[static_cast<size_t>(j)]) wmax[static_cast<size_t>(j)] = a;
    }
  }
  // Per-output symmetric steps wmax / 127, or 1 for an all-zero output
  // (which quantizes to zeros under any step). The activations are
  // quantized per batch row at run time, so the dequant scales carry the
  // weight factor only.
  struct Image {
    std::vector<int8_t> image;
    std::vector<float> scales;
    std::vector<int32_t> comp;
  };
  auto q = std::make_shared<Image>();
  q->scales.resize(static_cast<size_t>(out_));
  std::vector<float> inv(static_cast<size_t>(out_));
  for (size_t j = 0; j < wmax.size(); ++j) {
    q->scales[j] = wmax[j] > 0.0f ? wmax[j] / 127.0f : 1.0f;
    inv[j] = 1.0f / q->scales[j];
  }
  q->image.resize(static_cast<size_t>(core::packed_b_bytes_s8(in_, out_)));
  q->comp.resize(static_cast<size_t>(out_));
  core::pack_quantize_b_s8(in_, out_, W, out_, inv.data(), 0.0f, q->image.data(), q->comp.data());
  return {.kind = EvalWeights::Kind::kInt8,
          .image = q->image.data(),
          .image_len = static_cast<int64_t>(q->image.size()),
          .scales = q->scales.data(),
          .scales_len = out_,
          .comp = q->comp.data(),
          .comp_len = out_,
          .keep_alive = q};
}

void Dense::set_eval_weights(EvalWeights e) {
  e.check_fits(core::packed_b_floats(in_, out_), core::packed_b_bytes_s8(in_, out_), out_,
               "Dense(" + std::to_string(in_) + "," + std::to_string(out_) + ")");
  eval_ = std::move(e);
}

Tensor Dense::backward(const Tensor& grad_out) {
  if (cached_input_.empty()) throw std::runtime_error("Dense::backward before forward");
  // dW = x^T g, db = colsum g, dx = g W^T
  w_.grad += cached_input_.matmul_tn(grad_out);
  if (has_bias_) {
    const int64_t batch = grad_out.dim(0);
    for (int64_t i = 0; i < batch; ++i)
      for (int64_t j = 0; j < out_; ++j) b_.grad[j] += grad_out.at(i, j);
  }
  return grad_out.matmul_nt(w_.value);
}

void Dense::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&w_);
  if (has_bias_) out.push_back(&b_);
}

}  // namespace df::nn
