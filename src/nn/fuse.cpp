#include "nn/fuse.h"

#include "tensor/workspace.h"

namespace meanet::nn {

namespace {

/// Scale/shift scratch layout in the kFoldedBias slot: [scale | bias].
struct FoldedAffine {
  float* scale = nullptr;
  float* bias = nullptr;
};

FoldedAffine fold_affine(const BatchNorm2d& bn, const float* conv_bias) {
  const int channels = bn.channels();
  float* buffer = ops::Workspace::tls().buffer(ops::Workspace::kFoldedBias,
                                               2 * static_cast<std::size_t>(channels));
  FoldedAffine affine{buffer, buffer + channels};
  bn.fold_scale_shift(affine.scale, affine.bias);
  if (conv_bias != nullptr) {
    for (int c = 0; c < channels; ++c) affine.bias[c] += affine.scale[c] * conv_bias[c];
  }
  return affine;
}

float* fold_weights(const Tensor& weight, int out_channels, const float* scale) {
  const std::int64_t per_channel = weight.numel() / out_channels;
  float* folded = ops::Workspace::tls().buffer(ops::Workspace::kFoldedWeights,
                                               static_cast<std::size_t>(weight.numel()));
  for (int c = 0; c < out_channels; ++c) {
    const float s = scale[c];
    const float* src = weight.data() + c * per_channel;
    float* dst = folded + c * per_channel;
    for (std::int64_t i = 0; i < per_channel; ++i) dst[i] = s * src[i];
  }
  return folded;
}

}  // namespace

Tensor fused_conv_bn_eval(const Conv2d& conv, const BatchNorm2d& bn, const Tensor& input,
                          ops::Activation act) {
  const FoldedAffine affine =
      fold_affine(bn, conv.has_bias() ? conv.bias().value.data() : nullptr);
  const float* weight = fold_weights(conv.weight().value, conv.out_channels(), affine.scale);
  return conv.forward_with(input, weight, affine.bias, act);
}

Tensor fused_conv_bn_eval(const DepthwiseConv2d& conv, const BatchNorm2d& bn, const Tensor& input,
                          ops::Activation act) {
  const FoldedAffine affine = fold_affine(bn, nullptr);
  const float* weight = fold_weights(conv.weight().value, conv.channels(), affine.scale);
  return conv.forward_with(input, weight, affine.bias, act);
}

}  // namespace meanet::nn
