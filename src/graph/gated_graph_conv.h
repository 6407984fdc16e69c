// Gated graph convolution: K steps of message passing with a GRU node
// update, over one edge type. The SG-CNN runs one instance over covalent
// edges and another over non-covalent edges, with per-stage K and hidden
// widths chosen by the hyper-parameter search (paper Table 1/2).
//
// Training runs each step over the whole (N, dim) matrix: aggregate, the
// W_msg matmul, then GRUCell::forward, two sgemm calls per gate. Eval runs
// one fused step per tile of kTileRows node rows: gather the neighbour
// states through the CSR, multiply by W_msg, run the gate GEMMs
// register-blocked over several rows per pass, then sigmoid/tanh, the reset
// product and the update while the tile is in L1, storing only the new
// state. The states alternate between two lane-padded
// (N, round_up(dim, 16)) buffers taken once per forward, the weights are
// packed per forward (nothing is cached between forwards), and the tiles
// run one after another on the calling thread. An eval forward writes no
// layer state, so threads may run them on one layer at once. Every element
// keeps training's arithmetic and order, so eval is bitwise equal to
// training.
#pragma once

#include <vector>

#include "core/rng.h"
#include "graph/graph.h"
#include "graph/gru_cell.h"
#include "nn/module.h"

namespace df::graph {

class GatedGraphConv {
 public:
  /// Node rows per eval tile: the tile's gate block and operands stay in L1.
  static constexpr int64_t kTileRows = 32;

  GatedGraphConv(int64_t dim, int64_t num_steps, core::Rng& rng);

  /// Propagate node states (N, dim) over `edges` for K steps. Throws
  /// std::invalid_argument on an edge endpoint outside [0, N).
  Tensor forward(const Tensor& h0, const EdgeList& edges, bool training);
  /// Backward for the most recent forward; returns dL/dh0.
  Tensor backward(const Tensor& grad_h_final);

  void collect_parameters(std::vector<nn::Parameter*>& out);
  int64_t dim() const { return dim_; }
  int64_t num_steps() const { return steps_; }

 private:
  /// m_v = sum_{(u,v) in E} h_u W_msg  (aggregate-then-transform).
  Tensor message(const Tensor& h) const;
  /// The K fused eval steps (see the header comment) over a CSR.
  Tensor propagate_eval(const Tensor& h0, const std::vector<int32_t>& csr_start,
                        const std::vector<int32_t>& csr_src) const;
  /// Group edge sources by destination (stable within a destination).
  static void build_csr(const EdgeList& edges, int64_t num_nodes, std::vector<int32_t>& start,
                        std::vector<int32_t>& src);

  int64_t dim_, steps_;
  nn::Parameter w_msg_;  // (dim, dim)
  GRUCell gru_;
  // Edge sources grouped by destination (CSR; edge order preserved within a
  // destination, so accumulation order matches the flat edge list). Built
  // once per training forward and read by every step's message(); an eval
  // forward builds its own in per-thread scratch.
  std::vector<int32_t> csr_start_;  // size num_nodes+1
  std::vector<int32_t> csr_src_;
  // Caches for backward (training only).
  std::vector<Tensor> h_states_;  // h_0 .. h_{K-1} (inputs to each step)
  const EdgeList* edges_ = nullptr;
};

}  // namespace df::graph
