#include "graph/gru_cell.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/gemm.h"
#include "nn/activations.h"

namespace df::graph {

namespace {
// Gate pre-activation + nonlinearity in two GEMMs: out = act(x W + h U + b).
// The second GEMM accumulates into the first and carries the bias broadcast
// and activation as a fused epilogue, so the gate never takes a separate
// elementwise pass over (N, dim).
Tensor gate(const Tensor& x, const Tensor& w, const Tensor& h, const Tensor& u, const Tensor& b,
            core::EpilogueAct act) {
  const int64_t rows = x.dim(0), dim = x.dim(1);
  Tensor out = Tensor::uninit({rows, dim});
  core::sgemm(false, false, rows, dim, dim, x.data(), dim, w.data(), dim, out.data(), dim);
  core::Epilogue ep;
  ep.act = act;
  ep.bias_col = b.data();
  core::sgemm(false, false, rows, dim, dim, h.data(), dim, u.data(), dim, out.data(), dim,
              /*accumulate=*/true, &ep);
  return out;
}

// db[j] += colsum(g) with contiguous row pointers.
void add_colsum(const Tensor& g, Tensor& db) {
  const int64_t rows = g.dim(0), cols = g.dim(1);
  float* acc = db.data();
  for (int64_t i = 0; i < rows; ++i) {
    const float* row = g.data() + i * cols;
    for (int64_t j = 0; j < cols; ++j) acc[j] += row[j];
  }
}
}  // namespace

GRUCell::GRUCell(int64_t dim, core::Rng& rng) : dim_(dim) {
  const float bound = 1.0f / std::sqrt(static_cast<float>(dim));
  auto mk = [&](const char* n) {
    return Parameter(Tensor::uniform({dim_, dim_}, rng, -bound, bound), n);
  };
  auto mkb = [&](const char* n) {
    return Parameter(Tensor::uniform({dim_}, rng, -bound, bound), n);
  };
  wz_ = mk("gru.wz"); uz_ = mk("gru.uz"); bz_ = mkb("gru.bz");
  wr_ = mk("gru.wr"); ur_ = mk("gru.ur"); br_ = mkb("gru.br");
  wc_ = mk("gru.wc"); uc_ = mk("gru.uc"); bc_ = mkb("gru.bc");
}

Tensor GRUCell::forward(const Tensor& x, const Tensor& h, bool training) {
  core::check_same_shape(x, h, "GRUCell");
  if (x.ndim() != 2 || x.dim(1) != dim_) {
    throw std::invalid_argument("GRUCell: input " + x.shape_str() + " is not (N, " +
                                std::to_string(dim_) + ")");
  }
  Tensor z = gate(x, wz_.value, h, uz_.value, bz_.value, core::EpilogueAct::kSigmoid);
  Tensor r = gate(x, wr_.value, h, ur_.value, br_.value, core::EpilogueAct::kSigmoid);
  Tensor rh = Tensor::uninit(h.shape());
  for (int64_t i = 0; i < h.numel(); ++i) rh[i] = r[i] * h[i];
  Tensor c = gate(x, wc_.value, rh, uc_.value, bc_.value, core::EpilogueAct::kTanh);
  Tensor h_new = Tensor::uninit(h.shape());
  for (int64_t i = 0; i < h.numel(); ++i) h_new[i] = (1.0f - z[i]) * h[i] + z[i] * c[i];
  if (training) frames_.push_back(Frame{x, h, std::move(z), std::move(r), std::move(c)});
  return h_new;
}

std::pair<Tensor, Tensor> GRUCell::backward(const Tensor& grad_h_new) {
  if (frames_.empty()) throw std::runtime_error("GRUCell::backward with no cached frame");
  Frame f = std::move(frames_.back());
  frames_.pop_back();

  const int64_t n = grad_h_new.numel();
  Tensor dz = Tensor::uninit(f.z.shape()), dc = Tensor::uninit(f.c.shape()),
         dh = Tensor::uninit(f.h.shape());
  for (int64_t i = 0; i < n; ++i) {
    dc[i] = grad_h_new[i] * f.z[i];
    dz[i] = grad_h_new[i] * (f.c[i] - f.h[i]);
    dh[i] = grad_h_new[i] * (1.0f - f.z[i]);
  }

  // Candidate: c = tanh(x Wc + (r*h) Uc + bc)
  Tensor dac = Tensor::uninit(dc.shape());
  for (int64_t i = 0; i < n; ++i) dac[i] = dc[i] * nn::dtanh_from_y(f.c[i]);
  Tensor rh = Tensor::uninit(f.h.shape());
  for (int64_t i = 0; i < n; ++i) rh[i] = f.r[i] * f.h[i];
  wc_.grad += f.x.matmul_tn(dac);
  uc_.grad += rh.matmul_tn(dac);
  add_colsum(dac, bc_.grad);
  Tensor dx = dac.matmul_nt(wc_.value);
  Tensor drh = dac.matmul_nt(uc_.value);
  Tensor dr = Tensor::uninit(f.r.shape());
  for (int64_t i = 0; i < n; ++i) {
    dr[i] = drh[i] * f.h[i];
    dh[i] += drh[i] * f.r[i];
  }

  // Update gate: z = sigmoid(x Wz + h Uz + bz)
  Tensor daz = Tensor::uninit(dz.shape());
  for (int64_t i = 0; i < n; ++i) daz[i] = dz[i] * nn::dsigmoid_from_y(f.z[i]);
  wz_.grad += f.x.matmul_tn(daz);
  uz_.grad += f.h.matmul_tn(daz);
  add_colsum(daz, bz_.grad);
  dx += daz.matmul_nt(wz_.value);
  dh += daz.matmul_nt(uz_.value);

  // Reset gate: r = sigmoid(x Wr + h Ur + br)
  Tensor dar = Tensor::uninit(dr.shape());
  for (int64_t i = 0; i < n; ++i) dar[i] = dr[i] * nn::dsigmoid_from_y(f.r[i]);
  wr_.grad += f.x.matmul_tn(dar);
  ur_.grad += f.h.matmul_tn(dar);
  add_colsum(dar, br_.grad);
  dx += dar.matmul_nt(wr_.value);
  dh += dar.matmul_nt(ur_.value);

  return {std::move(dx), std::move(dh)};
}

void GRUCell::collect_parameters(std::vector<Parameter*>& out) {
  for (Parameter* p : {&wz_, &uz_, &bz_, &wr_, &ur_, &br_, &wc_, &uc_, &bc_}) out.push_back(p);
}

}  // namespace df::graph
