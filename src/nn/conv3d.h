// 3-D convolution and max-pooling over voxelized protein–ligand complexes.
// Input layout is (batch, channels, depth, height, width), matching the
// voxelizer's output. Conv3d lowers each sample to a (cin*k³, Do*Ho*Wo)
// column matrix by replaying a per-geometry lowering table, then runs one
// blocked sgemm per sample (or per group of samples when the output grid is
// small); backward scatters the column gradients back through the same
// table. The original direct 7-loop implementation is retained below as the
// equivalence reference for tests and the speedup benchmark.
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

  Tensor forward(const Tensor& x) override;
  /// Forward with a fused activation epilogue (bias + act applied on the
  /// per-sample GEMM's hot micro-tiles); bitwise identical to forward()
  /// followed by the elementwise activation. Inference-path only — training
  /// needs the pre-activation output cached by the activation layer.
  Tensor forward_act(const Tensor& x, core::EpilogueAct act, float leaky_slope = 0.01f);
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;

  /// Spatial output size for one dimension.
  static int64_t out_size(int64_t in, int64_t kernel, int64_t stride, int64_t padding) {
    return (in + 2 * padding - kernel) / stride + 1;
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

  /// w packed once into the A-panel image sgemm would build per call (the
  /// raw weight stays the skinny path's operand).
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
  // Lowering table for one input channel of a (D, H, W) input. Column row
  // t = (kz, ky, kx) of the (k^3, N) lowering is cut into 16-position
  // blocks, and each block is all padding, one contiguous source run, or an
  // index gather (-1 = padding). It depends only on the input geometry, so
  // it is built once per shape and replayed for every (sample, channel) and
  // by backward's scatter-add. Replica state (the layer is single-threaded
  // per replica; pool workers only read it).
  struct LoweringTable {
    enum Kind : uint8_t { kZero, kCopy, kGather };
    struct Block {
      Kind kind;
      int32_t src;  // kCopy: first source element; kGather: offset into `index`
    };
    int64_t D = -1, H = -1, W = -1;  // geometry the table was built for
    int64_t N = 0;                   // output positions per sample
    std::vector<Block> blocks;       // (k^3, ceil(N / 16)) row-major
    std::vector<int32_t> index;      // 16 source elements per gather block
  };
  // Build table_ for a (D, H, W) input; a no-op when it is already built for it.
  void build_table(int64_t D, int64_t H, int64_t W);
  // Write one (sample, channel)'s k^3 column rows, `ld` floats apart.
  void lower_channel(const float* x, float* cols, int64_t ld) const;
  // Add one channel's (k^3, N) column gradients back into its input gradient.
  void scatter_channel(const float* cols, float* gx) const;

  int64_t cin_, cout_, k_, stride_, pad_;
  Parameter w_;  // (cout, cin, k, k, k)
  Parameter b_;  // (cout)
  Tensor cached_input_;
  LoweringTable table_;
  EvalWeights eval_;
  ActivationObserver* observer_ = nullptr;
};

class MaxPool3d : public Module {
 public:
  explicit MaxPool3d(int64_t kernel = 2, int64_t stride = 2) : k_(kernel), stride_(stride) {}

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  int64_t k_, stride_;
  std::vector<int64_t> argmax_;  // flat input index per output element
  std::vector<int64_t> in_shape_;
};

/// Direct 7-loop reference convolution (the pre-vol2col implementation).
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
