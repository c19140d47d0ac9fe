#include "nn/activations.h"

#include <stdexcept>

#include "tensor/ops.h"

namespace meanet::nn {

Tensor ReLU::forward(const Tensor& input, Mode mode) {
  Tensor output(input.shape());
  ops::bias_activate(input.data(), output.data(), input.numel(), nullptr, ops::Activation::kReLU);
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  Tensor grad_input(grad_output.shape());
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    grad_input[i] = cached_input_[i] > 0.0f ? grad_output[i] : 0.0f;
  }
  return grad_input;
}

LayerStats ReLU::stats(const Shape& input) const {
  LayerStats s;
  s.activation_elems = input.numel() / input.dim(0);
  return s;
}

Tensor ReLU6::forward(const Tensor& input, Mode mode) {
  Tensor output(input.shape());
  ops::bias_activate(input.data(), output.data(), input.numel(), nullptr,
                     ops::Activation::kReLU6);
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

Tensor ReLU6::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  Tensor grad_input(grad_output.shape());
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    const float v = cached_input_[i];
    grad_input[i] = (v > 0.0f && v < 6.0f) ? grad_output[i] : 0.0f;
  }
  return grad_input;
}

LayerStats ReLU6::stats(const Shape& input) const {
  LayerStats s;
  s.activation_elems = input.numel() / input.dim(0);
  return s;
}

}  // namespace meanet::nn
