// PotentialNet gather: turns per-node states into a fixed-width vector via a
// learned soft attention gate,
//     out_v = sigmoid(i([h_v, x_v])) * j([h_v, x_v]),
// optionally summed over the ligand nodes to produce the graph embedding.
// The output width is the paper's "gather width" hyper-parameter.
#pragma once

#include "core/rng.h"
#include "graph/graph.h"
#include "nn/dense.h"

namespace df::graph {

class Gather {
 public:
  /// in_h: node-state dim; in_x: original-feature dim; width: output dim.
  Gather(int64_t in_h, int64_t in_x, int64_t width, core::Rng& rng);

  /// Per-node gather: (N, in_h) + (N, in_x) -> (N, width).
  Tensor forward_nodes(const Tensor& h, const Tensor& x, bool training);
  /// Backward of forward_nodes; returns {dL/dh, dL/dx}.
  std::pair<Tensor, Tensor> backward_nodes(const Tensor& grad_out);

  /// Graph-level gather: sum per-node output over nodes [0, n_sum).
  /// Matches PotentialNet summing over ligand atoms only. Eval forwards run
  /// the gate/value networks on the summed nodes alone.
  Tensor forward_sum(const Tensor& h, const Tensor& x, int64_t n_sum, bool training);
  std::pair<Tensor, Tensor> backward_sum(const Tensor& grad_graph);

  /// Batched graph-level gather over a packed block-diagonal batch
  /// (graph::PackedGraphBatch layout): graph g sums per-node output rows
  /// [node_offset[g], node_offset[g] + sum_counts[g]) into row g of the
  /// (num_graphs, width) result. Bitwise identical to running forward_sum
  /// per graph. Inference path: only the summed rows are computed, and
  /// per-graph backward is not supported.
  Tensor forward_segments(const Tensor& h, const Tensor& x,
                          const std::vector<int64_t>& node_offset,
                          const std::vector<int64_t>& sum_counts);

  void collect_parameters(std::vector<nn::Parameter*>& out);
  int64_t width() const { return width_; }

 private:
  struct RowRange {
    int64_t first, count;
  };
  // The listed node rows of [h, x], concatenated per row.
  Tensor concat(const Tensor& h, const Tensor& x, const std::vector<RowRange>& ranges) const;
  // sigmoid(i(cat)) * j(cat) per row; training keeps the backward caches.
  Tensor gated(const Tensor& cat, bool training);

  int64_t in_h_, in_x_, width_;
  nn::Dense gate_;   // "i" network -> sigmoid
  nn::Dense value_;  // "j" network
  // caches
  Tensor cat_, gate_out_, value_out_;
  int64_t n_sum_ = 0;
  int64_t n_nodes_ = 0;
};

}  // namespace df::graph
