// GRU update used inside the gated graph convolution (Li et al. 2015,
// "Gated Graph Sequence Neural Networks", the recurrence PotentialNet and
// hence the paper's SG-CNN are built on).
//
// One cell instance is invoked K times per propagation; each training
// invocation pushes a cache frame so backward() can be called K times in
// reverse order (stack discipline), accumulating weight gradients across
// steps. forward() runs every gate as two sgemm calls over the whole
// (N, dim) matrix, in eval too; that is the bitwise reference for
// GatedGraphConv's fused eval step, which reads the weights through
// gates().
#pragma once

#include "core/rng.h"
#include "nn/module.h"

namespace df::graph {

using core::Tensor;
using nn::Parameter;

class GRUCell {
 public:
  /// `dim` is both input (message) and hidden size — square recurrence, as
  /// in GGNN where messages live in the hidden space.
  GRUCell(int64_t dim, core::Rng& rng);

  /// h' = GRU(x, h) for (N, dim) x and h (std::invalid_argument otherwise);
  /// caches a frame when training.
  Tensor forward(const Tensor& x, const Tensor& h, bool training);
  /// Pops the most recent frame. Returns {dL/dx, dL/dh}.
  std::pair<Tensor, Tensor> backward(const Tensor& grad_h_new);

  /// The gate parameters, read-only: W* (dim x dim) act on x, U* on h, b*
  /// (dim) are biases; z is the update gate, r the reset gate, c the
  /// candidate.
  struct Gates {
    const Tensor &wz, &uz, &bz, &wr, &ur, &br, &wc, &uc, &bc;
  };
  Gates gates() const {
    return {wz_.value, uz_.value, bz_.value, wr_.value, ur_.value,
            br_.value, wc_.value, uc_.value, bc_.value};
  }

  void collect_parameters(std::vector<Parameter*>& out);
  int64_t dim() const { return dim_; }
  bool has_frames() const { return !frames_.empty(); }
  void clear_frames() { frames_.clear(); }

 private:
  struct Frame {
    Tensor x, h, z, r, c;  // inputs and gate activations
  };

  int64_t dim_;
  // Update gate z, reset gate r, candidate c. W* act on x, U* on h.
  Parameter wz_, uz_, bz_;
  Parameter wr_, ur_, br_;
  Parameter wc_, uc_, bc_;
  std::vector<Frame> frames_;
};

}  // namespace df::graph
