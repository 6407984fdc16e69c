// Ordered container of Modules; forward chains, backward unwinds in reverse.
// The conv stacks and dense heads of both individual models are Sequentials;
// the fusion models compose Sequentials with hand-routed gradient joins.
// Eval forwards run one program built from the layer types whenever the
// layer list changes: a Dense/Conv3d followed by a pointwise activation is
// one GEMM step with the activation fused into its epilogue.
#pragma once

#include <memory>
#include <vector>

#include "core/gemm.h"
#include "nn/module.h"

namespace df::nn {

class Dense;
class Conv3d;

class Sequential : public Module {
 public:
  Sequential() = default;

  Sequential& add(std::unique_ptr<Module> m) {
    layers_.push_back(std::move(m));
    build_program();
    return *this;
  }
  template <typename M, typename... Args>
  Sequential& emplace(Args&&... args) {
    return add(std::make_unique<M>(std::forward<Args>(args)...));
  }
  /// Detach and return layer i (model compiler: folded BatchNorms and
  /// eval-inert Dropouts leave the chain).
  std::unique_ptr<Module> remove(size_t i);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  void collect_parameters(std::vector<Parameter*>& out) override;
  void set_training(bool t) override;

  size_t size() const { return layers_.size(); }
  Module& layer(size_t i) { return *layers_.at(i); }

 private:
  // One step of the eval dispatch: exactly one of dense/conv is set for a
  // fused GEMM step (act/slope baked in), otherwise `plain` runs through
  // the virtual forward.
  struct EvalStep {
    Module* plain = nullptr;
    Dense* dense = nullptr;
    Conv3d* conv = nullptr;
    core::EpilogueAct act = core::EpilogueAct::kNone;
    float slope = 0.01f;
  };

  // Rebuild program_ from the layer types; every change to layers_ calls it.
  void build_program();

  std::vector<std::unique_ptr<Module>> layers_;
  std::vector<EvalStep> program_;
};

}  // namespace df::nn
