#include "quant/quantize.h"

#include <vector>

#include "nn/conv3d.h"
#include "nn/dense.h"

namespace df::quant {

namespace {

float act_scale_of(const RangeObserver& obs) {
  const float cm = obs.clipped_max();
  return cm > 0.0f ? cm / 127.0f : 1.0f;
}

// Calibration must observe the fp32 forward: int8 layers go back to fp32.
template <class Layer>
void reset_int8(const std::vector<Layer*>& layers) {
  for (Layer* l : layers)
    if (l->eval_weights().kind == nn::EvalWeights::Kind::kInt8)
      l->set_eval_weights(l->packed_f32());
}

}  // namespace

QuantizeReport quantize_model(models::Regressor& model,
                              const std::vector<const data::Sample*>& calib,
                              const QuantizeOptions& opts) {
  model.set_training(false);
  compile::StructureWalk w = compile::walk_structure(model);
  reset_int8(w.dense);
  reset_int8(w.conv);

  Calibrator cal(opts.calib);
  cal.attach(model);
  if (!calib.empty()) {
    (void)model.predict_batch(calib);
    cal.begin_histogram();
    (void)model.predict_batch(calib);
  }
  cal.detach();

  QuantizeReport rep;
  rep.calibration_samples = static_cast<int64_t>(calib.size());
  for (size_t i = 0; i < w.dense.size(); ++i) {
    nn::Dense* d = w.dense[i];
    // Regression heads stay fp32: one GEMM row of work, and the last place
    // to spend accuracy budget.
    if (d->out_features() == 1) {
      ++rep.kept_fp32;
      continue;
    }
    d->set_eval_weights(d->packed_int8(act_scale_of(cal.dense_observer(i))));
    ++rep.quantized_dense;
  }
  for (size_t i = 0; i < w.conv.size(); ++i) {
    nn::Conv3d* c = w.conv[i];
    if (!opts.quantize_conv) {
      ++rep.kept_fp32;
      continue;
    }
    // Cost model: a conv's int8 win scales with output channels (GEMM
    // rows per vol2col column), but the per-sample B-operand quantization
    // cost does not — too-narrow layers lose net. Leave them fp32.
    if (opts.min_conv_out_channels_for_int8 > 0 &&
        c->out_channels() < opts.min_conv_out_channels_for_int8) {
      ++rep.kept_fp32;
      ++rep.skipped_conv;
      rep.skipped_conv_layers.push_back(static_cast<int>(i));
      continue;
    }
    c->set_eval_weights(c->packed_int8(act_scale_of(cal.conv_observer(i))));
    ++rep.quantized_conv;
  }
  return rep;
}

}  // namespace df::quant
