// Post-training int8 quantization pass. quantize_model gives every eligible
// Dense layer the int8 serving handle its own packed_int8() produces
// (per-output-channel symmetric weight scales, a core/gemm_s8.h panel
// image), after which the layer's eval forward runs the int8 GEMM. The
// policy lives here; the weight layout lives in the layer.
//
// Activations are quantized dynamically, one runtime step per batch row:
// pooled graph activations scale with ligand size, so a static step would
// clip large poses or starve small ones of levels. Nothing is calibrated.
//
// What stays fp32, by design:
//   * every Conv3d — its fp32 forward is an indirect GEMM that writes no
//     column matrix, and an int8 conv that quantizes one per sample ran at
//     about half its speed (docs/PERF.md int8 section);
//   * final regression heads (Dense with out_features() == 1): one GEMM
//     row of work, and the last place to spend accuracy budget;
//   * the SG-CNN graph convolutions (GatedGraphConv / Gather) — their
//     operand shapes depend on the per-request graph, so there is no
//     weight image to prequantize (same reason they are never prepacked);
//   * everything in training mode — quantization is serving-only.
//
// Call after compile::compile_model (BatchNorm must be folded so the
// quantized weights are the ones actually used for inference).
#pragma once

#include "models/regressor.h"

namespace df::quant {

struct QuantizeReport {
  int quantized_dense = 0;
  int kept_fp32 = 0;  // regression heads left fp32
};

/// Quantize `model` in place. Deterministic: a pure function of the
/// weights, so the same model yields bitwise-identical images at any thread
/// count, and a re-quantize replaces every int8 handle with the same one.
QuantizeReport quantize_model(models::Regressor& model);

}  // namespace df::quant
