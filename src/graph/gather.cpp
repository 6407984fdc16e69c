#include "graph/gather.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "nn/activations.h"

namespace df::graph {

Gather::Gather(int64_t in_h, int64_t in_x, int64_t width, core::Rng& rng)
    : in_h_(in_h), in_x_(in_x), width_(width), gate_(in_h + in_x, width, rng),
      value_(in_h + in_x, width, rng) {}

Tensor Gather::concat(const Tensor& h, const Tensor& x, const std::vector<RowRange>& ranges) const {
  if (h.dim(0) != x.dim(0)) throw std::invalid_argument("Gather: node count mismatch");
  int64_t rows = 0;
  for (const RowRange& r : ranges) rows += r.count;
  Tensor cat = Tensor::uninit({rows, in_h_ + in_x_});
  float* dst = cat.data();
  for (const RowRange& r : ranges)
    for (int64_t i = r.first; i < r.first + r.count; ++i, dst += in_h_ + in_x_) {
      std::memcpy(dst, h.data() + i * in_h_, static_cast<size_t>(in_h_) * sizeof(float));
      std::memcpy(dst + in_h_, x.data() + i * in_x_, static_cast<size_t>(in_x_) * sizeof(float));
    }
  return cat;
}

Tensor Gather::gated(const Tensor& cat, bool training) {
  gate_.set_training(training);
  value_.set_training(training);
  // out = sigmoid(a_g) * v; the sigmoid rides the gate GEMM's epilogue.
  Tensor g = gate_.forward_act(cat, core::EpilogueAct::kSigmoid);
  Tensor v = value_.forward(cat);
  if (training) {
    cat_ = cat;
    gate_out_ = g;
    value_out_ = v;
    n_nodes_ = cat.dim(0);
  }
  Tensor out = Tensor::uninit(g.shape());
  for (int64_t i = 0; i < g.numel(); ++i) out[i] = g[i] * v[i];
  return out;
}

Tensor Gather::forward_nodes(const Tensor& h, const Tensor& x, bool training) {
  return gated(concat(h, x, {{0, h.dim(0)}}), training);
}

std::pair<Tensor, Tensor> Gather::backward_nodes(const Tensor& grad_out) {
  if (cat_.empty()) throw std::runtime_error("Gather::backward before forward");
  // out = sigmoid(a_g) * v
  Tensor dv = grad_out * gate_out_;
  Tensor dag = Tensor::uninit(grad_out.shape());
  for (int64_t i = 0; i < grad_out.numel(); ++i) {
    dag[i] = grad_out[i] * value_out_[i] * nn::dsigmoid_from_y(gate_out_[i]);
  }
  Tensor dcat = value_.backward(dv);
  dcat += gate_.backward(dag);
  // split the concat gradient with contiguous row copies
  Tensor dh = Tensor::uninit({n_nodes_, in_h_}), dx = Tensor::uninit({n_nodes_, in_x_});
  for (int64_t i = 0; i < n_nodes_; ++i) {
    const float* src = dcat.data() + i * (in_h_ + in_x_);
    std::memcpy(dh.data() + i * in_h_, src, static_cast<size_t>(in_h_) * sizeof(float));
    std::memcpy(dx.data() + i * in_x_, src + in_h_, static_cast<size_t>(in_x_) * sizeof(float));
  }
  cat_ = Tensor();
  return {std::move(dh), std::move(dx)};
}

Tensor Gather::forward_sum(const Tensor& h, const Tensor& x, int64_t n_sum, bool training) {
  if (!training) return forward_segments(h, x, {0, h.dim(0)}, {n_sum});
  // Training runs every node: backward_nodes needs the full per-node caches.
  Tensor per_node = forward_nodes(h, x, training);
  n_sum_ = std::min<int64_t>(n_sum, per_node.dim(0));
  Tensor out({1, width_});
  float* acc = out.data();
  for (int64_t i = 0; i < n_sum_; ++i) {
    const float* row = per_node.data() + i * width_;
    for (int64_t j = 0; j < width_; ++j) acc[j] += row[j];
  }
  return out;
}

Tensor Gather::forward_segments(const Tensor& h, const Tensor& x,
                                const std::vector<int64_t>& node_offset,
                                const std::vector<int64_t>& sum_counts) {
  if (node_offset.empty() || node_offset.size() != sum_counts.size() + 1) {
    throw std::invalid_argument("Gather::forward_segments: bad segment layout");
  }
  // Only the summed (ligand) rows go through the gate/value GEMMs. Each
  // output row depends on its own input row alone, so the sums are bitwise
  // those of the full per-node forward, added in the same node order as the
  // per-pose forward_sum.
  const size_t num_graphs = sum_counts.size();
  std::vector<RowRange> ranges(num_graphs);
  for (size_t g = 0; g < num_graphs; ++g) {
    const int64_t base = node_offset[g];
    ranges[g] = {base, std::clamp<int64_t>(sum_counts[g], 0, node_offset[g + 1] - base)};
  }
  Tensor cat = concat(h, x, ranges);
  Tensor out({static_cast<int64_t>(num_graphs), width_});
  if (cat.dim(0) == 0) return out;
  const Tensor per_row = gated(cat, /*training=*/false);
  const float* row = per_row.data();
  for (size_t g = 0; g < num_graphs; ++g) {
    float* acc = out.data() + static_cast<int64_t>(g) * width_;
    for (int64_t i = 0; i < ranges[g].count; ++i, row += width_)
      for (int64_t j = 0; j < width_; ++j) acc[j] += row[j];
  }
  return out;
}

std::pair<Tensor, Tensor> Gather::backward_sum(const Tensor& grad_graph) {
  // Broadcast the graph-level gradient to the summed nodes; zero elsewhere.
  Tensor gnodes({n_nodes_, width_});
  for (int64_t i = 0; i < n_sum_; ++i) {
    std::memcpy(gnodes.data() + i * width_, grad_graph.data(),
                static_cast<size_t>(width_) * sizeof(float));
  }
  return backward_nodes(gnodes);
}

void Gather::collect_parameters(std::vector<nn::Parameter*>& out) {
  gate_.collect_parameters(out);
  value_.collect_parameters(out);
}

}  // namespace df::graph
