#include "nn/norm.h"

#include <cmath>
#include <stdexcept>

namespace df::nn {

BatchNorm3d::BatchNorm3d(int64_t channels, float momentum, float eps)
    : c_(channels), momentum_(momentum), eps_(eps),
      gamma_(Tensor::ones({channels}), "bn3d.gamma"),
      beta_(Tensor::zeros({channels}), "bn3d.beta"),
      running_mean_(Tensor::zeros({channels})), running_var_(Tensor::ones({channels})) {}

Tensor BatchNorm3d::forward(const Tensor& x) {
  if (x.ndim() != 5 || x.dim(1) != c_) {
    throw std::invalid_argument("BatchNorm3d: bad input " + x.shape_str());
  }
  const int64_t B = x.dim(0), spatial = x.dim(2) * x.dim(3) * x.dim(4);
  const int64_t n = B * spatial;
  Tensor out = Tensor::uninit(x.shape());
  const float* in = x.data();
  float* o = out.data();
  if (training_) {
    xhat_ = Tensor(x.shape());
    invstd_.assign(static_cast<size_t>(c_), 0.0f);
    for (int64_t c = 0; c < c_; ++c) {
      double mean = 0.0, var = 0.0;
      for (int64_t b = 0; b < B; ++b) {
        const float* p = in + (b * c_ + c) * spatial;
        for (int64_t s = 0; s < spatial; ++s) mean += p[s];
      }
      mean /= n;
      for (int64_t b = 0; b < B; ++b) {
        const float* p = in + (b * c_ + c) * spatial;
        for (int64_t s = 0; s < spatial; ++s) {
          const double d = p[s] - mean;
          var += d * d;
        }
      }
      var /= n;
      const float is = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      invstd_[static_cast<size_t>(c)] = is;
      for (int64_t b = 0; b < B; ++b) {
        const float* p = in + (b * c_ + c) * spatial;
        float* xh = xhat_.data() + (b * c_ + c) * spatial;
        float* op = o + (b * c_ + c) * spatial;
        for (int64_t s = 0; s < spatial; ++s) {
          xh[s] = (p[s] - static_cast<float>(mean)) * is;
          op[s] = gamma_.value[c] * xh[s] + beta_.value[c];
        }
      }
      running_mean_[c] = (1 - momentum_) * running_mean_[c] + momentum_ * static_cast<float>(mean);
      running_var_[c] = (1 - momentum_) * running_var_[c] + momentum_ * static_cast<float>(var);
    }
  } else {
    for (int64_t c = 0; c < c_; ++c) {
      const float is = 1.0f / std::sqrt(running_var_[c] + eps_);
      for (int64_t b = 0; b < B; ++b) {
        const float* p = in + (b * c_ + c) * spatial;
        float* op = o + (b * c_ + c) * spatial;
        for (int64_t s = 0; s < spatial; ++s) {
          op[s] = gamma_.value[c] * (p[s] - running_mean_[c]) * is + beta_.value[c];
        }
      }
    }
  }
  return out;
}

Tensor BatchNorm3d::backward(const Tensor& grad_out) {
  const int64_t B = grad_out.dim(0), spatial = grad_out.dim(2) * grad_out.dim(3) * grad_out.dim(4);
  const int64_t n = B * spatial;
  Tensor grad_in(grad_out.shape());
  const float* g = grad_out.data();
  float* gi = grad_in.data();
  for (int64_t c = 0; c < c_; ++c) {
    double sum_g = 0.0, sum_gx = 0.0;
    for (int64_t b = 0; b < B; ++b) {
      const float* gp = g + (b * c_ + c) * spatial;
      const float* xh = xhat_.data() + (b * c_ + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        sum_g += gp[s];
        sum_gx += gp[s] * xh[s];
      }
    }
    gamma_.grad[c] += static_cast<float>(sum_gx);
    beta_.grad[c] += static_cast<float>(sum_g);
    const float gm = gamma_.value[c], is = invstd_[static_cast<size_t>(c)];
    for (int64_t b = 0; b < B; ++b) {
      const float* gp = g + (b * c_ + c) * spatial;
      const float* xh = xhat_.data() + (b * c_ + c) * spatial;
      float* gip = gi + (b * c_ + c) * spatial;
      for (int64_t s = 0; s < spatial; ++s) {
        gip[s] = gm * is / static_cast<float>(n) *
                 (static_cast<float>(n) * gp[s] - static_cast<float>(sum_g) -
                  xh[s] * static_cast<float>(sum_gx));
      }
    }
  }
  return grad_in;
}

void BatchNorm3d::collect_parameters(std::vector<Parameter*>& out) {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm3d::collect_statistics(std::vector<Tensor*>& out) {
  out.push_back(&running_mean_);
  out.push_back(&running_var_);
}

}  // namespace df::nn
