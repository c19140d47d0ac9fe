#include "nn/conv2d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "tensor/pool.h"
#include "tensor/qgemm.h"
#include "tensor/workspace.h"

namespace meanet::nn {

namespace {

Tensor he_normal(Shape shape, int fan_in, util::Rng& rng) {
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  return Tensor::normal(std::move(shape), rng, 0.0f, stddev);
}

/// Reference direct convolution (the MEANET_NAIVE_KERNELS path): one
/// guarded dot product per output pixel, no im2col, no blocking.
void naive_conv_forward(const Tensor& input, const ops::ConvGeometry& g, int out_channels,
                        const float* weight, const float* bias, ops::Activation act,
                        Tensor& output) {
  const int batch = input.shape().batch();
  const int out_h = g.out_height(), out_w = g.out_width();
  for (int n = 0; n < batch; ++n) {
    for (int oc = 0; oc < out_channels; ++oc) {
      const float* w_oc = weight + static_cast<std::int64_t>(oc) * g.patch_size();
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          float acc = bias != nullptr ? bias[oc] : 0.0f;
          for (int ic = 0; ic < g.in_channels; ++ic) {
            for (int kh = 0; kh < g.kernel; ++kh) {
              const int ih = oh * g.stride - g.padding + kh;
              if (ih < 0 || ih >= g.in_height) continue;
              for (int kw = 0; kw < g.kernel; ++kw) {
                const int iw = ow * g.stride - g.padding + kw;
                if (iw < 0 || iw >= g.in_width) continue;
                acc += w_oc[(ic * g.kernel + kh) * g.kernel + kw] * input.at(n, ic, ih, iw);
              }
            }
          }
          output.at(n, oc, oh, ow) = ops::activate(acc, act);
        }
      }
    }
  }
}

/// Guarded single-tap accumulation for the depthwise fringe pixels.
inline float dw_tap_guarded(const float* channel, const float* filt, int kernel, int stride,
                            int padding, int in_h, int in_w, int oh, int ow) {
  float acc = 0.0f;
  for (int kh = 0; kh < kernel; ++kh) {
    const int ih = oh * stride - padding + kh;
    if (ih < 0 || ih >= in_h) continue;
    const float* in_row = channel + static_cast<std::ptrdiff_t>(ih) * in_w;
    for (int kw = 0; kw < kernel; ++kw) {
      const int iw = ow * stride - padding + kw;
      if (iw < 0 || iw >= in_w) continue;
      acc += filt[kh * kernel + kw] * in_row[iw];
    }
  }
  return acc;
}

/// Stride-specialized unrolled 3x3 depthwise channel: interior rows and
/// columns (no bounds checks possible) run the fully unrolled 9-tap
/// kernel on three streaming row pointers; the fringe falls back to the
/// guarded tap. The accumulation order (kh, then kw) matches the naive
/// loop exactly, so the two paths are bit-identical.
template <int kStride>
void dw_channel_3x3(const float* channel, const float* filt, int padding, int in_h, int in_w,
                    int out_h, int out_w, float* out) {
  const float f00 = filt[0], f01 = filt[1], f02 = filt[2];
  const float f10 = filt[3], f11 = filt[4], f12 = filt[5];
  const float f20 = filt[6], f21 = filt[7], f22 = filt[8];
  // Interior output columns: every iw = ow*stride - padding + {0,1,2}
  // lands in [0, in_w). When the image is narrower than the kernel the
  // numerator goes negative and C++ division truncates toward zero, so
  // guard it explicitly — no interior exists then.
  const int ow_lo = std::min(out_w, (padding + kStride - 1) / kStride);
  const int interior_last = in_w - 3 + padding;  // largest ow*stride with all taps in bounds
  const int ow_hi = interior_last < 0
                        ? ow_lo
                        : std::max(ow_lo, std::min(out_w, interior_last / kStride + 1));
  for (int oh = 0; oh < out_h; ++oh) {
    const int ih0 = oh * kStride - padding;
    float* dst = out + static_cast<std::ptrdiff_t>(oh) * out_w;
    if (ih0 < 0 || ih0 + 2 >= in_h) {
      for (int ow = 0; ow < out_w; ++ow) {
        dst[ow] = dw_tap_guarded(channel, filt, 3, kStride, padding, in_h, in_w, oh, ow);
      }
      continue;
    }
    const float* r0 = channel + static_cast<std::ptrdiff_t>(ih0) * in_w;
    const float* r1 = r0 + in_w;
    const float* r2 = r1 + in_w;
    for (int ow = 0; ow < ow_lo; ++ow) {
      dst[ow] = dw_tap_guarded(channel, filt, 3, kStride, padding, in_h, in_w, oh, ow);
    }
    for (int ow = ow_lo; ow < ow_hi; ++ow) {
      const int iw = ow * kStride - padding;
      dst[ow] = f00 * r0[iw] + f01 * r0[iw + 1] + f02 * r0[iw + 2] +
                f10 * r1[iw] + f11 * r1[iw + 1] + f12 * r1[iw + 2] +
                f20 * r2[iw] + f21 * r2[iw + 1] + f22 * r2[iw + 2];
    }
    for (int ow = ow_hi; ow < out_w; ++ow) {
      dst[ow] = dw_tap_guarded(channel, filt, 3, kStride, padding, in_h, in_w, oh, ow);
    }
  }
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride, int padding, bool bias,
               util::Rng& rng, std::string name)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      name_(std::move(name)),
      weight_(name_ + ".weight",
              he_normal(Shape{out_channels, in_channels * kernel * kernel},
                        in_channels * kernel * kernel, rng)),
      bias_(name_ + ".bias", Tensor::zeros(Shape{out_channels})) {
  if (in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 || padding < 0) {
    throw std::invalid_argument("Conv2d: invalid geometry");
  }
}

ops::ConvGeometry Conv2d::geometry(const Shape& input) const {
  if (input.channels() != in_channels_) {
    throw std::invalid_argument(name_ + ": expected " + std::to_string(in_channels_) +
                                " input channels, got " + input.to_string());
  }
  ops::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_height = input.height();
  g.in_width = input.width();
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  return g;
}

Shape Conv2d::output_shape(const Shape& input) const {
  const ops::ConvGeometry g = geometry(input);
  return Shape{input.batch(), out_channels_, g.out_height(), g.out_width()};
}

Tensor Conv2d::forward_with(const Tensor& input, const float* weight, const float* bias,
                            ops::Activation act) const {
  const ops::ConvGeometry g = geometry(input.shape());
  const int batch = input.shape().batch();
  const int out_h = g.out_height(), out_w = g.out_width();
  const int out_hw = out_h * out_w;
  const int patch = g.patch_size();
  Tensor output(Shape{batch, out_channels_, out_h, out_w});
  if (ops::naive_kernels()) {
    naive_conv_forward(input, g, out_channels_, weight, bias, act, output);
    return output;
  }
  // One image per GEMM: each image is one im2col into a [patch, out_hw]
  // column matrix and one GEMM writing straight into its NCHW block.
  // Scratch is one image's columns from the per-thread workspace, so
  // this stays const-safe and cache-free at a footprint that does not
  // grow with the batch.
  ops::Workspace& workspace = ops::Workspace::tls();
  const std::int64_t in_stride = static_cast<std::int64_t>(in_channels_) * g.in_height * g.in_width;
  const std::int64_t out_stride = static_cast<std::int64_t>(out_channels_) * out_hw;
  if (!ops::quantized_inference()) {
    float* columns =
        workspace.buffer(ops::Workspace::kIm2col, static_cast<std::size_t>(patch) * out_hw);
    for (int n = 0; n < batch; ++n) {
      float* out = output.data() + n * out_stride;
      ops::im2col(input.data() + n * in_stride, g, columns);
      ops::gemm(false, false, out_channels_, out_hw, patch, 1.0f, weight, patch, columns, out_hw,
                0.0f, out, out_hw);
      // Bias + activation is a post-GEMM epilogue over the image just
      // written (still cache-warm): gemm with beta = 0 overwrites its
      // output, so the bias can't be prefilled into C.
      for (int oc = 0; oc < out_channels_; ++oc) {
        float* dst = out + static_cast<std::int64_t>(oc) * out_hw;
        ops::bias_activate(dst, dst, out_hw, bias != nullptr ? bias + oc : nullptr, act);
      }
    }
    return output;
  }
  // int8 serving path: quantize the (possibly BN-folded) weights per
  // row once per call, and the activations with ONE per-tensor scale
  // over the whole batch (max|x|/127, computed once before the image
  // loop; it makes the codes slightly coarser than per-image scales for
  // images quieter than the batch peak, the usual per-tensor batching
  // tradeoff). Each image is quantized to bytes and expanded with the
  // byte-domain im2col; the bias lands in the requantization epilogue
  // and the activation in one pass over the image's output block.
  const int k_padded = ops::quantized_k_padded(patch);
  auto* wq = reinterpret_cast<std::int8_t*>(workspace.byte_buffer(
      ops::Workspace::kQuantWeights, static_cast<std::size_t>(out_channels_) * k_padded));
  float* scales =
      workspace.buffer(ops::Workspace::kQuantScales, static_cast<std::size_t>(out_channels_));
  auto* row_sums = reinterpret_cast<std::int32_t*>(workspace.byte_buffer(
      ops::Workspace::kQuantRowSums,
      static_cast<std::size_t>(out_channels_) * sizeof(std::int32_t)));
  ops::quantize_weight_rows(weight, out_channels_, patch, wq, scales, row_sums);
  const float a_scale =
      ops::activation_scale(input.data(), static_cast<std::size_t>(batch) * in_stride);
  std::uint8_t* tile =
      workspace.byte_buffer(ops::Workspace::kQuantTile, static_cast<std::size_t>(in_stride));
  std::uint8_t* act_codes = workspace.byte_buffer(ops::Workspace::kQuantAct,
                                                  static_cast<std::size_t>(patch) * out_hw);
  for (int n = 0; n < batch; ++n) {
    float* out = output.data() + n * out_stride;
    ops::quantize_activations_u8(input.data() + n * in_stride, static_cast<std::size_t>(in_stride),
                                 a_scale, tile);
    ops::im2col_u8(tile, g, act_codes);
    ops::qgemm_u8s8(out_channels_, out_hw, patch, k_padded, wq, scales, row_sums, act_codes,
                    a_scale, bias, out, out_hw);
    ops::bias_activate(out, out, out_stride, nullptr, act);
  }
  return output;
}

Tensor Conv2d::forward(const Tensor& input, Mode mode) {
  Tensor output =
      forward_with(input, weight_.value.data(), has_bias_ ? bias_.value.data() : nullptr);
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const ops::ConvGeometry g = geometry(cached_input_.shape());
  const int batch = cached_input_.shape().batch();
  const int out_hw = g.out_height() * g.out_width();
  const int patch = g.patch_size();
  const std::int64_t in_stride = static_cast<std::int64_t>(in_channels_) * g.in_height * g.in_width;
  const std::int64_t out_stride = static_cast<std::int64_t>(out_channels_) * out_hw;

  Tensor grad_input(cached_input_.shape());
  std::vector<float> columns(static_cast<std::size_t>(patch) * out_hw);
  std::vector<float> grad_columns(static_cast<std::size_t>(patch) * out_hw);

  for (int n = 0; n < batch; ++n) {
    const float* gout = grad_output.data() + n * out_stride;
    if (!frozen_) {
      // dW += gout [out_c, out_hw] * columns^T [out_hw, patch]
      ops::im2col(cached_input_.data() + n * in_stride, g, columns.data());
      ops::gemm(false, true, out_channels_, patch, out_hw, 1.0f, gout, out_hw, columns.data(),
                out_hw, 1.0f, weight_.grad.data(), patch);
      if (has_bias_) {
        for (int oc = 0; oc < out_channels_; ++oc) {
          const float* go = gout + static_cast<std::int64_t>(oc) * out_hw;
          float acc = 0.0f;
          for (int i = 0; i < out_hw; ++i) acc += go[i];
          bias_.grad[oc] += acc;
        }
      }
    }
    // grad_columns = W^T [patch, out_c] * gout [out_c, out_hw]
    ops::gemm(true, false, patch, out_hw, out_channels_, 1.0f, weight_.value.data(), patch, gout,
              out_hw, 0.0f, grad_columns.data(), out_hw);
    ops::col2im(grad_columns.data(), g, grad_input.data() + n * in_stride);
  }
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  std::vector<Parameter*> out{&weight_};
  if (has_bias_) out.push_back(&bias_);
  return out;
}

LayerStats Conv2d::stats(const Shape& input) const {
  const ops::ConvGeometry g = geometry(input);
  LayerStats s;
  s.params = weight_.numel() + (has_bias_ ? bias_.numel() : 0);
  s.macs = static_cast<std::int64_t>(out_channels_) * g.patch_size() * g.out_height() *
           g.out_width();
  s.activation_elems =
      static_cast<std::int64_t>(in_channels_) * g.in_height * g.in_width;  // cached input
  return s;
}

DepthwiseConv2d::DepthwiseConv2d(int channels, int kernel, int stride, int padding, util::Rng& rng,
                                 std::string name)
    : channels_(channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      name_(std::move(name)),
      weight_(name_ + ".weight", he_normal(Shape{channels, kernel * kernel}, kernel * kernel, rng)) {
  if (channels <= 0 || kernel <= 0 || stride <= 0 || padding < 0) {
    throw std::invalid_argument("DepthwiseConv2d: invalid geometry");
  }
}

Shape DepthwiseConv2d::output_shape(const Shape& input) const {
  if (input.channels() != channels_) {
    throw std::invalid_argument(name_ + ": channel mismatch, got " + input.to_string());
  }
  const int out_h = (input.height() + 2 * padding_ - kernel_) / stride_ + 1;
  const int out_w = (input.width() + 2 * padding_ - kernel_) / stride_ + 1;
  return Shape{input.batch(), channels_, out_h, out_w};
}

Tensor DepthwiseConv2d::forward_with(const Tensor& input, const float* weight,
                                     const float* bias, ops::Activation act) const {
  const Shape out_shape = output_shape(input.shape());
  const int batch = input.shape().batch();
  const int in_h = input.shape().height(), in_w = input.shape().width();
  const int out_h = out_shape.height(), out_w = out_shape.width();
  const std::int64_t in_hw = static_cast<std::int64_t>(in_h) * in_w;
  const std::int64_t out_hw = static_cast<std::int64_t>(out_h) * out_w;
  // Per-call invariants, hoisted out of the (n, c) loop: the fast-path
  // predicate, the filter size, and the base pointers are identical for
  // every channel of every image.
  const bool fast = !ops::naive_kernels() && kernel_ == 3 && (stride_ == 1 || stride_ == 2);
  const int kk = kernel_ * kernel_;
  Tensor output(out_shape);
  const float* in_base = input.data();
  float* out_base = output.data();
  // One work item per (image, channel) pair — the natural grain: every
  // item reads and writes disjoint channel planes, so any partition of
  // the flat domain is race-free and bit-identical to the serial loop.
  const int jobs = batch * channels_;
  auto run_item = [&](int item) {
    const int c = item % channels_;
    const float* channel = in_base + static_cast<std::int64_t>(item) * in_hw;
    const float* filt = weight + static_cast<std::int64_t>(c) * kk;
    float* out = out_base + static_cast<std::int64_t>(item) * out_hw;
    if (fast) {
      if (stride_ == 1) {
        dw_channel_3x3<1>(channel, filt, padding_, in_h, in_w, out_h, out_w, out);
      } else {
        dw_channel_3x3<2>(channel, filt, padding_, in_h, in_w, out_h, out_w, out);
      }
    } else {
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          out[static_cast<std::ptrdiff_t>(oh) * out_w + ow] =
              dw_tap_guarded(channel, filt, kernel_, stride_, padding_, in_h, in_w, oh, ow);
        }
      }
    }
    ops::bias_activate(out, out, out_hw, bias != nullptr ? bias + c : nullptr, act);
  };
  // Row-striped fan-out on the GemmPool: contiguous fixed-order stripes
  // of the (channels × batch) domain, same min-work gate philosophy as
  // the striped GEMM (threading a sub-millisecond layer just buys
  // wake-up latency).
  int threads = std::min(ops::gemm_threads(), jobs);
  if (static_cast<std::int64_t>(jobs) * out_hw * kk < (1 << 20)) threads = 1;
  if (threads <= 1) {
    for (int item = 0; item < jobs; ++item) run_item(item);
  } else {
    ops::GemmPool::instance().run(threads, [&](int slot) {
      const int begin = static_cast<int>(static_cast<std::int64_t>(jobs) * slot / threads);
      const int end = static_cast<int>(static_cast<std::int64_t>(jobs) * (slot + 1) / threads);
      for (int item = begin; item < end; ++item) run_item(item);
    });
  }
  return output;
}

Tensor DepthwiseConv2d::forward(const Tensor& input, Mode mode) {
  Tensor output = forward_with(input, weight_.value.data(), nullptr);
  if (mode == Mode::kTrain) cached_input_ = input;
  return output;
}

Tensor DepthwiseConv2d::backward(const Tensor& grad_output) {
  if (cached_input_.empty()) throw std::logic_error(name_ + ": backward before forward");
  const Shape& in_shape = cached_input_.shape();
  const int batch = in_shape.batch();
  const int in_h = in_shape.height(), in_w = in_shape.width();
  const int out_h = grad_output.shape().height(), out_w = grad_output.shape().width();
  Tensor grad_input(in_shape);
  for (int n = 0; n < batch; ++n) {
    for (int c = 0; c < channels_; ++c) {
      const float* filt = weight_.value.data() + static_cast<std::int64_t>(c) * kernel_ * kernel_;
      float* gfilt = weight_.grad.data() + static_cast<std::int64_t>(c) * kernel_ * kernel_;
      for (int oh = 0; oh < out_h; ++oh) {
        for (int ow = 0; ow < out_w; ++ow) {
          const float go = grad_output.at(n, c, oh, ow);
          if (go == 0.0f) continue;
          for (int kh = 0; kh < kernel_; ++kh) {
            const int ih = oh * stride_ - padding_ + kh;
            if (ih < 0 || ih >= in_h) continue;
            for (int kw = 0; kw < kernel_; ++kw) {
              const int iw = ow * stride_ - padding_ + kw;
              if (iw < 0 || iw >= in_w) continue;
              if (!frozen_) gfilt[kh * kernel_ + kw] += go * cached_input_.at(n, c, ih, iw);
              grad_input.at(n, c, ih, iw) += go * filt[kh * kernel_ + kw];
            }
          }
        }
      }
    }
  }
  return grad_input;
}

std::vector<Parameter*> DepthwiseConv2d::parameters() { return {&weight_}; }

LayerStats DepthwiseConv2d::stats(const Shape& input) const {
  const Shape out = output_shape(input);
  LayerStats s;
  s.params = weight_.numel();
  s.macs = static_cast<std::int64_t>(channels_) * kernel_ * kernel_ * out.height() * out.width();
  s.activation_elems = static_cast<std::int64_t>(input.channels()) * input.height() * input.width();
  return s;
}

}  // namespace meanet::nn
