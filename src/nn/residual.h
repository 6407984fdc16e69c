// Residual wrapper: y = x + inner(x). The paper's 3D-CNN exposes two
// optional residual connections to the hyper-parameter search (Fig. 1,
// "Residual Option 1/2"); wrapping the inner block keeps that a one-line
// architecture toggle.
#pragma once

#include <memory>

#include "nn/module.h"

namespace df::nn {

class Residual : public Module {
 public:
  explicit Residual(std::unique_ptr<Module> inner) : inner_(std::move(inner)) {}

  Tensor forward(const Tensor& x) override {
    Tensor y = inner_->forward(x);
    core::check_same_shape(x, y, "Residual");
    y += x;
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    Tensor g = inner_->backward(grad_out);
    g += grad_out;
    return g;
  }

  void collect_parameters(std::vector<Parameter*>& out) override {
    inner_->collect_parameters(out);
  }
  void collect_statistics(std::vector<Tensor*>& out) override {
    inner_->collect_statistics(out);
  }
  /// The wrapped block — the model compiler recurses through it.
  Module& inner() { return *inner_; }
  void set_training(bool t) override {
    Module::set_training(t);
    inner_->set_training(t);
  }

 private:
  std::unique_ptr<Module> inner_;
};

}  // namespace df::nn
