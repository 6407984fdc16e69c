#include "nn/sequential.h"

#include "nn/activations.h"
#include "nn/conv3d.h"
#include "nn/dense.h"

namespace df::nn {

std::unique_ptr<Module> Sequential::remove(size_t i) {
  std::unique_ptr<Module> m = std::move(layers_.at(i));
  layers_.erase(layers_.begin() + static_cast<ptrdiff_t>(i));
  build_program();
  return m;
}

void Sequential::build_program() {
  program_.clear();
  program_.reserve(layers_.size());
  for (size_t i = 0; i < layers_.size(); ++i) {
    EvalStep step;
    // Inference-path layer fusion: a Dense/Conv3d directly followed by a
    // pointwise activation collapses into one GEMM with a fused epilogue
    // (bitwise identical, one less sweep over the activations). Training
    // keeps the layers separate — the activation layer caches its input
    // for backward.
    if (i + 1 < layers_.size() &&
        epilogue_act_of(layers_[i + 1].get(), &step.act, &step.slope)) {
      if ((step.dense = dynamic_cast<Dense*>(layers_[i].get())) != nullptr ||
          (step.conv = dynamic_cast<Conv3d*>(layers_[i].get())) != nullptr) {
        program_.push_back(step);
        ++i;
        continue;
      }
      step.act = core::EpilogueAct::kNone;
      step.slope = 0.01f;
    }
    step.plain = layers_[i].get();
    program_.push_back(step);
  }
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  if (training_) {
    for (auto& l : layers_) h = l->forward(h);
    return h;
  }
  for (const EvalStep& s : program_) {
    if (s.dense != nullptr) h = s.dense->forward_act(h, s.act, s.slope);
    else if (s.conv != nullptr) h = s.conv->forward_act(h, s.act, s.slope);
    else h = s.plain->forward(h);
  }
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
  return g;
}

void Sequential::collect_parameters(std::vector<Parameter*>& out) {
  for (auto& l : layers_) l->collect_parameters(out);
}

void Sequential::collect_statistics(std::vector<Tensor*>& out) {
  for (auto& l : layers_) l->collect_statistics(out);
}

void Sequential::set_training(bool t) {
  Module::set_training(t);
  for (auto& l : layers_) l->set_training(t);
}

}  // namespace df::nn
