#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace meanet::ops {

namespace {

/// Shared im2col writer over floats (fill 0) or u8 codes (fill the
/// activation zero point) into one image's [patch, out_hw] matrix.
template <typename T>
void im2col_into(const T* image, const ConvGeometry& g, T* columns, T fill) {
  const int out_h = g.out_height();
  const int out_w = g.out_width();
  const std::ptrdiff_t col_ld = static_cast<std::ptrdiff_t>(out_h) * out_w;
  if (g.kernel == 1 && g.stride == 1 && g.padding == 0) {
    // Pointwise conv: each column row is its input channel plane
    // verbatim — one copy per plane instead of one per output row.
    const std::size_t plane = static_cast<std::size_t>(g.in_height) * g.in_width;
    for (int c = 0; c < g.in_channels; ++c) {
      std::memcpy(columns + static_cast<std::ptrdiff_t>(c) * col_ld,
                  image + static_cast<std::ptrdiff_t>(c) * plane, sizeof(T) * plane);
    }
    return;
  }
  for (int c = 0; c < g.in_channels; ++c) {
    const T* channel = image + static_cast<std::ptrdiff_t>(c) * g.in_height * g.in_width;
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw) {
        T* out_row =
            columns + static_cast<std::ptrdiff_t>((c * g.kernel + kh) * g.kernel + kw) * col_ld;
        for (int oh = 0; oh < out_h; ++oh) {
          const int ih = oh * g.stride - g.padding + kh;
          T* dst = out_row + static_cast<std::ptrdiff_t>(oh) * out_w;
          if (ih < 0 || ih >= g.in_height) {
            std::fill(dst, dst + out_w, fill);
            continue;
          }
          const T* in_row = channel + static_cast<std::ptrdiff_t>(ih) * g.in_width;
          if (g.stride == 1) {
            // Contiguous tap: dst[ow] = in_row[ow + kw - padding] where
            // in bounds — one memcpy between two fill-padded fringes.
            const int shift = kw - g.padding;
            const int begin = std::max(0, -shift);
            const int end = std::min(out_w, g.in_width - shift);
            if (begin > 0) std::fill(dst, dst + begin, fill);
            if (end > begin) {
              std::memcpy(dst + begin, in_row + begin + shift,
                          sizeof(T) * static_cast<std::size_t>(end - begin));
            }
            if (end < out_w) std::fill(dst + std::max(begin, end), dst + out_w, fill);
            continue;
          }
          for (int ow = 0; ow < out_w; ++ow) {
            const int iw = ow * g.stride - g.padding + kw;
            dst[ow] = (iw >= 0 && iw < g.in_width) ? in_row[iw] : fill;
          }
        }
      }
    }
  }
}

/// The zero-point fill of the byte-domain paths (qgemm.h
/// kActivationZeroPoint): a float 0 quantizes to code
/// round(0 * inv) + 128 = 128, so padding bytes match what quantizing
/// a zero-padded float matrix would have produced.
constexpr std::uint8_t kU8ZeroPoint = 128;

template <Activation kAct>
void bias_activate_as(const float* src, float* dst, std::int64_t n, const float* bias) {
  if (bias != nullptr) {
    const float b = *bias;
    for (std::int64_t i = 0; i < n; ++i) dst[i] = activate(src[i] + b, kAct);
  } else {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = activate(src[i], kAct);
  }
}

}  // namespace

void bias_activate(const float* src, float* dst, std::int64_t n, const float* bias,
                   Activation act) {
  switch (act) {
    case Activation::kNone:
      if (bias != nullptr) {
        bias_activate_as<Activation::kNone>(src, dst, n, bias);
      } else if (src != dst) {
        std::memcpy(dst, src, sizeof(float) * static_cast<std::size_t>(n));
      }
      return;
    case Activation::kReLU:
      bias_activate_as<Activation::kReLU>(src, dst, n, bias);
      return;
    case Activation::kReLU6:
      bias_activate_as<Activation::kReLU6>(src, dst, n, bias);
      return;
  }
}

void im2col(const float* image, const ConvGeometry& g, float* columns) {
  im2col_into<float>(image, g, columns, 0.0f);
}

void im2col_u8(const std::uint8_t* image, const ConvGeometry& g, std::uint8_t* columns) {
  im2col_into<std::uint8_t>(image, g, columns, kU8ZeroPoint);
}

void col2im(const float* columns, const ConvGeometry& g, float* image) {
  const int out_h = g.out_height();
  const int out_w = g.out_width();
  const int out_hw = out_h * out_w;
  for (int c = 0; c < g.in_channels; ++c) {
    float* channel = image + static_cast<std::ptrdiff_t>(c) * g.in_height * g.in_width;
    for (int kh = 0; kh < g.kernel; ++kh) {
      for (int kw = 0; kw < g.kernel; ++kw) {
        const float* col_row =
            columns + static_cast<std::ptrdiff_t>((c * g.kernel + kh) * g.kernel + kw) * out_hw;
        for (int oh = 0; oh < out_h; ++oh) {
          const int ih = oh * g.stride - g.padding + kh;
          if (ih < 0 || ih >= g.in_height) continue;
          float* in_row = channel + static_cast<std::ptrdiff_t>(ih) * g.in_width;
          const float* src = col_row + static_cast<std::ptrdiff_t>(oh) * out_w;
          for (int ow = 0; ow < out_w; ++ow) {
            const int iw = ow * g.stride - g.padding + kw;
            if (iw >= 0 && iw < g.in_width) in_row[iw] += src[ow];
          }
        }
      }
    }
  }
}

void softmax_into(const Tensor& logits, Tensor& out) {
  if (logits.shape().rank() != 2) throw std::invalid_argument("softmax expects [rows, cols]");
  const int rows = logits.shape().dim(0), cols = logits.shape().dim(1);
  if (&out != &logits && out.shape() != logits.shape()) out = Tensor(logits.shape());
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float* o = out.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    float total = 0.0f;
    for (int c = 0; c < cols; ++c) {
      o[c] = std::exp(in[c] - mx);
      total += o[c];
    }
    const float inv = 1.0f / total;
    for (int c = 0; c < cols; ++c) o[c] *= inv;
  }
}

Tensor softmax(const Tensor& logits) {
  Tensor out;
  softmax_into(logits, out);
  return out;
}

Tensor log_softmax(const Tensor& logits) {
  if (logits.shape().rank() != 2) throw std::invalid_argument("log_softmax expects [rows, cols]");
  const int rows = logits.shape().dim(0), cols = logits.shape().dim(1);
  Tensor out(logits.shape());
  for (int r = 0; r < rows; ++r) {
    const float* in = logits.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float* o = out.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float mx = in[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, in[c]);
    float total = 0.0f;
    for (int c = 0; c < cols; ++c) total += std::exp(in[c] - mx);
    const float log_z = mx + std::log(total);
    for (int c = 0; c < cols; ++c) o[c] = in[c] - log_z;
  }
  return out;
}

void row_entropy_into(const Tensor& probabilities, std::vector<float>& out) {
  if (probabilities.shape().rank() != 2) {
    throw std::invalid_argument("row_entropy expects [rows, cols]");
  }
  const int rows = probabilities.shape().dim(0), cols = probabilities.shape().dim(1);
  out.assign(static_cast<std::size_t>(rows), 0.0f);
  for (int r = 0; r < rows; ++r) {
    const float* p = probabilities.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float h = 0.0f;
    for (int c = 0; c < cols; ++c) {
      if (p[c] > 0.0f) h -= p[c] * std::log(p[c]);
    }
    out[static_cast<std::size_t>(r)] = h;
  }
}

std::vector<float> row_entropy(const Tensor& probabilities) {
  std::vector<float> entropy;
  row_entropy_into(probabilities, entropy);
  return entropy;
}

void row_argmax_into(const Tensor& values, std::vector<int>& out) {
  if (values.shape().rank() != 2) throw std::invalid_argument("row_argmax expects [rows, cols]");
  const int rows = values.shape().dim(0), cols = values.shape().dim(1);
  out.assign(static_cast<std::size_t>(rows), 0);
  for (int r = 0; r < rows; ++r) {
    const float* v = values.data() + static_cast<std::ptrdiff_t>(r) * cols;
    int best = 0;
    for (int c = 1; c < cols; ++c) {
      if (v[c] > v[best]) best = c;
    }
    out[static_cast<std::size_t>(r)] = best;
  }
}

std::vector<int> row_argmax(const Tensor& values) {
  std::vector<int> idx;
  row_argmax_into(values, idx);
  return idx;
}

void row_max_into(const Tensor& values, std::vector<float>& out) {
  if (values.shape().rank() != 2) throw std::invalid_argument("row_max expects [rows, cols]");
  const int rows = values.shape().dim(0), cols = values.shape().dim(1);
  out.assign(static_cast<std::size_t>(rows), 0.0f);
  for (int r = 0; r < rows; ++r) {
    const float* v = values.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float mx = v[0];
    for (int c = 1; c < cols; ++c) mx = std::max(mx, v[c]);
    out[static_cast<std::size_t>(r)] = mx;
  }
}

std::vector<float> row_max(const Tensor& values) {
  std::vector<float> out;
  row_max_into(values, out);
  return out;
}

void row_margin_into(const Tensor& values, std::vector<float>& out) {
  if (values.shape().rank() != 2) throw std::invalid_argument("row_margin expects [rows, cols]");
  const int rows = values.shape().dim(0), cols = values.shape().dim(1);
  out.assign(static_cast<std::size_t>(rows), 0.0f);
  for (int r = 0; r < rows; ++r) {
    const float* v = values.data() + static_cast<std::ptrdiff_t>(r) * cols;
    float top1 = v[0];
    float top2 = -std::numeric_limits<float>::infinity();
    for (int c = 1; c < cols; ++c) {
      if (v[c] > top1) {
        top2 = top1;
        top1 = v[c];
      } else if (v[c] > top2) {
        top2 = v[c];
      }
    }
    out[static_cast<std::size_t>(r)] = cols == 1 ? top1 : top1 - top2;
  }
}

std::vector<float> row_margin(const Tensor& values) {
  std::vector<float> out;
  row_margin_into(values, out);
  return out;
}

Tensor gather_rows(const Tensor& source, const std::vector<int>& rows) {
  if (source.shape().rank() < 1 || source.shape().dim(0) <= 0) {
    throw std::invalid_argument("gather_rows: source needs a non-empty batch dimension");
  }
  const int batch = source.shape().dim(0);
  std::vector<int> dims = source.shape().dims();
  dims[0] = static_cast<int>(rows.size());
  Tensor out{Shape(dims)};
  const std::int64_t stride = source.numel() / batch;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] < 0 || rows[i] >= batch) {
      throw std::invalid_argument("gather_rows: row index out of range");
    }
    const float* src = source.data() + rows[i] * stride;
    std::copy(src, src + stride, out.data() + static_cast<std::int64_t>(i) * stride);
  }
  return out;
}

}  // namespace meanet::ops
