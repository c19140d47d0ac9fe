#include "nn/inverted_residual.h"

#include <stdexcept>

#include "nn/fuse.h"

namespace meanet::nn {

InvertedResidual::InvertedResidual(int in_channels, int out_channels, int stride, int expansion,
                                   util::Rng& rng, std::string name)
    : name_(std::move(name)),
      use_skip_(stride == 1 && in_channels == out_channels),
      dw_conv_(in_channels * expansion, 3, stride, 1, rng, name_ + ".dwconv"),
      dw_bn_(in_channels * expansion, 0.1f, 1e-5f, name_ + ".dwbn"),
      dw_relu_(name_ + ".dwrelu"),
      project_conv_(in_channels * expansion, out_channels, 1, 1, 0, /*bias=*/false, rng,
                    name_ + ".project"),
      project_bn_(out_channels, 0.1f, 1e-5f, name_ + ".projectbn") {
  if (expansion < 1) throw std::invalid_argument("InvertedResidual: expansion must be >= 1");
  if (expansion > 1) {
    expand_conv_ = std::make_unique<Conv2d>(in_channels, in_channels * expansion, 1, 1, 0,
                                            /*bias=*/false, rng, name_ + ".expand");
    expand_bn_ = std::make_unique<BatchNorm2d>(in_channels * expansion, 0.1f, 1e-5f,
                                               name_ + ".expandbn");
    expand_relu_ = std::make_unique<ReLU6>(name_ + ".expandrelu");
  }
}

std::vector<Layer*> InvertedResidual::main_layers() {
  std::vector<Layer*> out;
  if (expand_conv_) {
    out.push_back(expand_conv_.get());
    out.push_back(expand_bn_.get());
    out.push_back(expand_relu_.get());
  }
  out.push_back(&dw_conv_);
  out.push_back(&dw_bn_);
  out.push_back(&dw_relu_);
  out.push_back(&project_conv_);
  out.push_back(&project_bn_);
  return out;
}

std::vector<const Layer*> InvertedResidual::main_layers() const {
  auto layers = const_cast<InvertedResidual*>(this)->main_layers();
  return {layers.begin(), layers.end()};
}

Shape InvertedResidual::output_shape(const Shape& input) const {
  Shape s = input;
  for (const Layer* l : main_layers()) s = l->output_shape(s);
  return s;
}

Tensor InvertedResidual::forward(const Tensor& input, Mode mode) {
  // Eval folds each Conv+BN pair (expand, depthwise, project) and the
  // ReLU6 after it into one kernel via forward_chain; train is the
  // plain caching chain.
  Tensor x = forward_chain(main_layers(), input, mode);
  if (use_skip_) x.add_(input);
  return x;
}

Tensor InvertedResidual::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  auto layers = main_layers();
  for (auto it = layers.rbegin(); it != layers.rend(); ++it) g = (*it)->backward(g);
  if (use_skip_) g.add_(grad_output);
  return g;
}

std::vector<Parameter*> InvertedResidual::parameters() {
  std::vector<Parameter*> out;
  for (Layer* l : main_layers()) {
    for (Parameter* p : l->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<NamedTensor> InvertedResidual::state() {
  std::vector<NamedTensor> out;
  for (Layer* l : main_layers()) {
    for (const NamedTensor& s : l->state()) out.push_back(s);
  }
  return out;
}

LayerStats InvertedResidual::stats(const Shape& input) const {
  LayerStats total;
  Shape s = input;
  for (const Layer* l : main_layers()) {
    const LayerStats ls = l->stats(s);
    total.params += ls.params;
    total.macs += ls.macs;
    total.activation_elems += ls.activation_elems;
    s = l->output_shape(s);
  }
  return total;
}

std::int64_t InvertedResidual::activation_cache_elems() const {
  std::int64_t total = 0;
  for (const Layer* l : main_layers()) total += l->activation_cache_elems();
  return total;
}

void InvertedResidual::set_frozen(bool frozen) {
  frozen_ = frozen;
  for (Layer* l : main_layers()) l->set_frozen(frozen);
}

}  // namespace meanet::nn
