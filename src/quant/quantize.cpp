#include "quant/quantize.h"

#include "compile/model_compiler.h"
#include "nn/dense.h"

namespace df::quant {

QuantizeReport quantize_model(models::Regressor& model) {
  model.set_training(false);
  QuantizeReport rep;
  for (nn::Dense* d : compile::walk_structure(model).dense) {
    // Regression heads stay fp32: one GEMM row of work, and the last place
    // to spend accuracy budget.
    if (d->out_features() == 1) {
      ++rep.kept_fp32;
      continue;
    }
    d->set_eval_weights(d->packed_int8());
    ++rep.quantized_dense;
  }
  return rep;
}

}  // namespace df::quant
