// Eval-mode Conv+BatchNorm(+ReLU) folding.
//
// In eval mode a BatchNorm is a per-channel affine map with constant
// coefficients, so it folds into the preceding convolution's weights:
//   BN(W * x + b) = (scale ⊙ W) * x + (scale ⊙ b + shift)
// The fold is computed on the fly from the BN's current running
// statistics into per-thread workspace scratch — nothing is cached on
// the layers, so there is no invalidation problem when training resumes
// and the fused path stays const-safe for shared-net serving. The fold
// itself is O(params), noise next to the convolution it saves. A
// ReLU/ReLU6 right after the BN rides along as the kernel's output
// epilogue (ops::Activation), so the triple writes its tensor once.
#pragma once

#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"

namespace meanet::nn {

/// Conv2d then BatchNorm2d (then `act`) as one cache-free eval kernel.
Tensor fused_conv_bn_eval(const Conv2d& conv, const BatchNorm2d& bn, const Tensor& input,
                          ops::Activation act = ops::Activation::kNone);

/// DepthwiseConv2d then BatchNorm2d (then `act`) as one cache-free eval
/// kernel (the folded BN supplies the bias the depthwise layer doesn't
/// have).
Tensor fused_conv_bn_eval(const DepthwiseConv2d& conv, const BatchNorm2d& bn, const Tensor& input,
                          ops::Activation act = ops::Activation::kNone);

/// The epilogue a layer following a Conv+BN pair folds into, or kNone
/// when it is not a ReLU / ReLU6.
inline ops::Activation fusable_activation(const Layer& layer) {
  if (dynamic_cast<const ReLU*>(&layer) != nullptr) return ops::Activation::kReLU;
  if (dynamic_cast<const ReLU6*>(&layer) != nullptr) return ops::Activation::kReLU6;
  return ops::Activation::kNone;
}

/// Runs `layers` in order with `mode`. In eval mode, each adjacent
/// (Conv2d | DepthwiseConv2d, BatchNorm2d) pair with matching channel
/// counts runs as a single folded kernel, and a ReLU / ReLU6 right
/// after the pair joins it as the kernel's activation epilogue — the
/// same output, bit for bit, as running that activation layer after
/// the folded pair. Train mode is a plain chain — bit-identical to
/// calling forward() layer by layer.
///
/// Templated over the sequence so both Sequential's vector<LayerPtr>
/// and the blocks' vector<Layer*> pass through without an adapter
/// allocation on the forward hot path.
template <typename LayerSeq>
Tensor forward_chain(const LayerSeq& layers, const Tensor& input, Mode mode) {
  Tensor x = input;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    Layer* layer = &*layers[i];
    if (mode == Mode::kEval && i + 1 < layers.size()) {
      if (const auto* bn = dynamic_cast<const BatchNorm2d*>(&*layers[i + 1])) {
        const ops::Activation act = i + 2 < layers.size() ? fusable_activation(*layers[i + 2])
                                                          : ops::Activation::kNone;
        const std::size_t folded = act == ops::Activation::kNone ? 1 : 2;
        if (const auto* conv = dynamic_cast<const Conv2d*>(layer);
            conv != nullptr && conv->out_channels() == bn->channels()) {
          x = fused_conv_bn_eval(*conv, *bn, x, act);
          i += folded;
          continue;
        }
        if (const auto* dw = dynamic_cast<const DepthwiseConv2d*>(layer);
            dw != nullptr && dw->channels() == bn->channels()) {
          x = fused_conv_bn_eval(*dw, *bn, x, act);
          i += folded;
          continue;
        }
      }
    }
    x = layer->forward(x, mode);
  }
  return x;
}

}  // namespace meanet::nn
