// Post-training int8 quantization pass (the tentpole of the quant
// subsystem). quantize_model calibrates activation ranges by replaying a
// calibration set through the eval forward (quant/calibrator.h), decides
// which layers go int8, and gives each of them the int8 serving handle its
// own packed_int8(act_scale) produces (per-output-channel symmetric weight
// scales, core/gemm_s8.h images) — after which the layers' eval forwards
// run the int8 GEMM automatically. Calibration and policy live here; the
// weight layouts live in the layers.
//
// Activation quantization is hybrid:
//   * Conv3d uses the static calibrated step — voxel-derived inputs are
//     range-stable across poses, and the weight operand is prequantized;
//   * Dense quantizes dynamically, one runtime step per batch row —
//     pooled graph activations scale with ligand size, so a static step
//     would clip large poses or starve small ones of levels. The
//     calibrated dense ranges are still recorded (diagnostics, artifact
//     stability), just not read on the hot path.
//
// What stays fp32, by design:
//   * final regression heads (Dense with out_features() == 1): one GEMM
//     row of work, and the last place to spend accuracy budget;
//   * the SG-CNN graph convolutions (GatedGraphConv / Gather) — their
//     operand shapes depend on the per-request graph, so there is no
//     weight image to prequantize (same reason they are never prepacked);
//   * everything in training mode — quantization is serving-only.
//
// Call after compile::compile_model (BatchNorm must be folded so the
// observed ranges match the weights actually used for inference).
#pragma once

#include <vector>

#include "data/dataset.h"
#include "models/regressor.h"
#include "quant/calibrator.h"

namespace df::quant {

struct QuantizeOptions {
  bool quantize_conv = true;
  /// Compile-time cost model: skip Conv3d layers with fewer output
  /// channels than this. The int8 conv lowers each sample to a column
  /// matrix and quantizes it, a pass that does not shrink with the output
  /// channels the int8 GEMM saving grows with. 24 quantizes every
  /// Table-3-scale layer (32/64/128 filters) and leaves tiny bench/test
  /// sub-models fp32. Against the fp32 forward's indirect GEMM, which
  /// writes no column matrix, int8 convs measure slower at the Table-3
  /// widths too (docs/PERF.md int8 section); the default stands until
  /// that is decided. 0 disables the model (quantize every conv).
  int min_conv_out_channels_for_int8 = 24;
  CalibConfig calib;
};

struct QuantizeReport {
  int quantized_dense = 0;
  int quantized_conv = 0;
  int kept_fp32 = 0;  // eligible GEMM layers deliberately left fp32
  /// Conv3d layers the cost model skipped (counted in kept_fp32 too);
  /// indices are positions in the model's structure-walk conv order.
  int skipped_conv = 0;
  std::vector<int> skipped_conv_layers;
  int64_t calibration_samples = 0;
};

/// Quantize `model` in place. `calib` is the calibration set, evaluated
/// twice through predict_batch (max-abs pass, then histogram pass). An
/// empty calibration set leaves every activation scale at the 1.0 default
/// — legal but inaccurate; pass real samples. Int8 layers are reset to
/// fp32 handles first, so a re-quantize calibrates against the fp32
/// forward and replaces every previous int8 handle. Deterministic: same
/// model, samples and config produce bitwise-identical scales and images
/// at any thread count.
QuantizeReport quantize_model(models::Regressor& model,
                              const std::vector<const data::Sample*>& calib,
                              const QuantizeOptions& opts = {});

}  // namespace df::quant
