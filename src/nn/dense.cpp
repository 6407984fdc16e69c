#include "nn/dense.h"

#include <cmath>
#include <stdexcept>

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
  core::Epilogue ep;
  ep.act = act;
  ep.bias_col = has_bias_ ? b_.value.data() : nullptr;
  ep.leaky_slope = leaky_slope;
  const bool fused = has_bias_ || act != core::EpilogueAct::kNone;
  core::sgemm(false, false, batch, out_, in_, x.data(), in_, w_.value.data(), out_, y.data(), out_,
              /*accumulate=*/false, fused ? &ep : nullptr);
  return y;
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
