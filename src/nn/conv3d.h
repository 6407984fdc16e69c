// 3-D convolution and max-pooling over voxelized protein–ligand complexes.
// Input layout is (batch, channels, depth, height, width), matching the
// voxelizer's output. Conv3d's fp32 forward is an indirect GEMM (Dukhan,
// arXiv:1907.02129): each group of samples is copied into zero-bordered
// channel images, and core::sgemm_indirect multiplies the (samples x
// positions, cin*k³) A, whose elements it reads from those images through
// per-geometry offsets, by Wᵀ — no column matrix is written. Backward and
// the int8 forward still lower each sample to a (cin*k³, Do*Ho*Wo) column
// matrix through the same offsets; backward scatters the column gradients
// back through a zero-padded gradient image. The original direct 7-loop
// implementation is retained below as the equivalence reference for tests
// and the speedup benchmark.
#pragma once

#include <vector>

#include "core/gemm.h"
#include "core/rng.h"
#include "nn/eval_weights.h"
#include "nn/module.h"
#include "nn/observer.h"

namespace df::nn {

class Conv3d : public Module {
 public:
  Conv3d(int64_t in_channels, int64_t out_channels, int64_t kernel, core::Rng& rng,
         int64_t stride = 1, int64_t padding = 0);

  /// Throws std::invalid_argument when a k^3 window does not fit the
  /// padded input (some extent + 2 * padding < kernel).
  Tensor forward(const Tensor& x) override;
  /// Forward with a fused activation epilogue (bias + act applied on the
  /// GEMM's hot register tiles); bitwise identical to forward() followed by
  /// the elementwise activation. Inference-path only — training needs the
  /// pre-activation output cached by the activation layer.
  Tensor forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope = 0.01f);
  /// Throws std::runtime_error before a training forward and
  /// std::invalid_argument unless grad_out has that forward's output shape.
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  /// Spatial output size for one dimension: the number of windows that
  /// fit, 0 when the padded input is shorter than the kernel.
  static int64_t out_size(int64_t in, int64_t kernel, int64_t stride, int64_t padding) {
    return in + 2 * padding < kernel ? 0 : (in + 2 * padding - kernel) / stride + 1;
  }

  int64_t in_channels() const { return cin_; }
  int64_t out_channels() const { return cout_; }
  int64_t kernel() const { return k_; }
  int64_t stride() const { return stride_; }
  int64_t padding() const { return pad_; }
  Parameter& weight() { return w_; }
  Parameter& bias() { return b_; }

  // -- serving form (eval_weights.h) -------------------------------------
  // Same contract as Dense: eval forwards run the GEMM the handle names,
  // training forwards always use w_.

  /// Wᵀ as a (cin*k^3, round_up(cout, 16)) row image, zero past cout: the
  /// B operand of the fp32 forward's indirect GEMM, which otherwise packs it
  /// on every forward.
  EvalWeights packed_f32() const;
  /// w quantized to per-output-channel symmetric int8: a row-major
  /// (cout, round_up(cin*k^3, 4)) image of offset-128 bytes, the u8 A
  /// operand of the per-sample int8 GEMM. Eval forwards quantize each
  /// sample's columns with the static calibrated step `act_scale`, and the
  /// per-channel scales fold it in; the compensation vector depends on the
  /// activations, so it is computed per call and the handle carries none.
  EvalWeights packed_int8(float act_scale) const;
  const EvalWeights& eval_weights() const { return eval_; }
  /// Install a handle; throws std::invalid_argument unless its kind and
  /// lengths fit this layer's (cout, cin*k^3).
  void set_eval_weights(EvalWeights e);

  /// Calibration hook: when set, eval forwards report their input to the
  /// observer before computing. Not used in training mode.
  void set_observer(ActivationObserver* obs) { observer_ = obs; }

 private:
  // Offsets into zero-padded channel images of a (D, H, W) input. Each
  // channel is copied into the interior of a zero-bordered (D+2p, H+2p,
  // W+2p) image, and a group's images sit back to back, `cin * padded`
  // floats per sample, so tap t of channel c at output position n of group
  // sample s reads the element row_off[s * N + n] + k_off[c * k^3 + t], with
  // no bounds test: that is the forward's indirect A. The first N row
  // offsets and k^3 tap offsets are one channel's lowering, which backward
  // and the int8 forward gather column rows through. It depends only on the
  // input geometry, so it is built once per shape. Replica state (the layer
  // is single-threaded per replica; pool workers only read it).
  struct Lowering {
    int64_t D = -1, H = -1, W = -1;  // geometry it was built for
    int64_t Hp = 0, Wp = 0;          // padded extents (rows, row length)
    int64_t origin = 0;              // padded offset of input voxel (0, 0, 0)
    int64_t padded = 0;              // floats in one padded channel image
    int64_t N = 0;                   // output positions per sample
    int64_t group = 0;               // most samples per forward GEMM
    std::vector<int32_t> row_off;    // group * N: offset of (s, n)'s window origin
    std::vector<int32_t> k_off;      // cin * k^3: offset of tap t of channel c
  };
  // Check that the window fits the input, then build lowering_ for a
  // (D, H, W) input; a no-op when it is already built for it.
  void build_lowering(int64_t D, int64_t H, int64_t W);
  // Copy one (D, H, W) channel into the interior of its padded image `xp`.
  void pad_channel(const float* x, float* xp) const;
  // Write one padded channel's k^3 column rows, `ld` floats apart.
  void lower_channel(const float* xp, float* cols, int64_t ld) const;
  // The int8 eval forward: each sample lowered to columns, quantized, and
  // multiplied by the int8 weight image into its (cout, N) planes.
  void forward_int8(const Tensor& x, Tensor& out, core::EpilogueAct act, float leaky_slope) const;

  int64_t cin_, cout_, k_, stride_, pad_;
  Parameter w_;  // (cout, cin, k, k, k)
  Parameter b_;  // (cout)
  Tensor cached_input_;
  Lowering lowering_;
  EvalWeights eval_;
  ActivationObserver* observer_ = nullptr;
};

class MaxPool3d : public Module {
 public:
  explicit MaxPool3d(int64_t kernel = 2, int64_t stride = 2) : k_(kernel), stride_(stride) {}

  /// Throws std::invalid_argument when a window does not fit the input.
  Tensor forward(const Tensor& x) override;
  /// Routes grad_out through the last training forward's argmax indices.
  /// Throws std::runtime_error before a training forward and
  /// std::invalid_argument unless grad_out has that forward's output shape.
  Tensor backward(const Tensor& grad_out) override;

 private:
  int64_t k_, stride_;
  // Recorded by training forwards only (eval forwards leave them alone).
  std::vector<int64_t> argmax_;  // flat input index per output element
  std::vector<int64_t> in_shape_, out_shape_;
};

/// Direct 7-loop reference convolution (the pre-GEMM implementation).
/// Retained for equivalence tests and the speedup benchmark only — model
/// code must go through Conv3d.
Tensor conv3d_forward_naive(const Tensor& x, const Tensor& w, const Tensor& b, int64_t stride,
                            int64_t padding);
/// Reference backward: returns grad_in and accumulates into grad_w/grad_b.
Tensor conv3d_backward_naive(const Tensor& x, const Tensor& w, const Tensor& grad_out,
                             Tensor& grad_w, Tensor& grad_b, int64_t stride, int64_t padding);

/// Flatten (B, ...) -> (B, features); the bridge from conv stack to dense head.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  std::vector<int64_t> in_shape_;
};

}  // namespace df::nn
