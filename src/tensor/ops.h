// Numeric kernels: GEMM, im2col/col2im, softmax-family ops.
//
// All convolution in the library is im2col + GEMM. The GEMM is a
// blocked, register-tiled kernel with packed operands (scratch from the
// per-thread ops::Workspace, reused across calls), a runtime-dispatched
// microkernel (tensor/simd.h: AVX2/NEON 6x16 or the portable 4x16),
// and can fan the row range out over ops::gemm_threads() slots of the
// persistent ops::GemmPool; the partition is by output rows and the
// accumulation order is fixed, so results are bit-identical for every
// thread count under a fixed kernel. Backward passes use the
// transposed variants. The int8 quantized serving path lives in
// tensor/qgemm.h.
//
// The pre-GEMM reference kernels (simple triple loops, per-pixel direct
// convolution) stay available behind the runtime naive-kernels flag —
// set MEANET_NAIVE_KERNELS=1 in the environment or call
// set_naive_kernels(true). They are the parity oracle for the tests and
// the comparison column in bench/perf_forward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace meanet::ops {

// ----- Kernel selection ------------------------------------------------

/// True while the reference (naive) kernels serve gemm() and the conv
/// forwards. Initialized from the MEANET_NAIVE_KERNELS environment
/// variable; toggled at runtime by the parity tests and benches.
bool naive_kernels();
void set_naive_kernels(bool naive);

/// GemmPool slots the blocked GEMM may fan out over (1 = run on the
/// calling thread). Initialized from MEANET_GEMM_THREADS — parsed
/// strictly; 0 means "auto" (hardware concurrency); invalid or
/// out-of-range values warn on stderr and are clamped — defaulting to
/// 1: serving already parallelizes over session workers, so per-call
/// GEMM threading is an opt-in for single-stream callers.
/// set_gemm_threads(0) is the same "auto". Small problems always stay
/// on the calling thread regardless.
int gemm_threads();
void set_gemm_threads(int threads);

// ----- Activation epilogue ---------------------------------------------

/// Pointwise activation a conv kernel applies as it writes its output,
/// so an eval-mode Conv+BN+ReLU(6) triple costs no extra tensor pass.
enum class Activation { kNone, kReLU, kReLU6 };

/// The one definition of each activation's forward value: nn::ReLU /
/// nn::ReLU6 and every fused conv epilogue call it, so the fused and
/// standalone paths agree bit for bit (ReLU maps NaN and -0 to +0;
/// ReLU6 passes NaN through).
inline float activate(float v, Activation act) {
  switch (act) {
    case Activation::kReLU:
      return v > 0.0f ? v : 0.0f;
    case Activation::kReLU6:
      return v <= 0.0f ? 0.0f : (v >= 6.0f ? 6.0f : v);
    case Activation::kNone:
      break;
  }
  return v;
}

/// dst[i] = activate(src[i] + *bias, act) for i < n; the add is skipped
/// when `bias` is null. `src` may equal `dst` (then a null bias with
/// kNone touches nothing). The switch on `act` is hoisted out of the
/// loop.
void bias_activate(const float* src, float* dst, std::int64_t n, const float* bias,
                   Activation act);

// ----- GEMM ------------------------------------------------------------

/// C = alpha * op(A) * op(B) + beta * C.
/// A is [M, K] after optional transpose, B is [K, N] after optional
/// transpose, C is [M, N]. C must be pre-sized; beta = 0 overwrites.
void gemm(bool transpose_a, bool transpose_b, int m, int n, int k, float alpha,
          const float* a, int lda, const float* b, int ldb, float beta, float* c, int ldc);

/// Convenience wrapper on rank-2 tensors: returns op(A)*op(B).
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

/// Geometry of a convolution; shared by conv layers and the stats counter.
struct ConvGeometry {
  int in_channels = 0;
  int in_height = 0;
  int in_width = 0;
  int kernel = 1;
  int stride = 1;
  int padding = 0;

  int out_height() const { return (in_height + 2 * padding - kernel) / stride + 1; }
  int out_width() const { return (in_width + 2 * padding - kernel) / stride + 1; }
  /// Rows of the im2col matrix (= in_channels * kernel^2).
  int patch_size() const { return in_channels * kernel * kernel; }
};

/// Expands one image [C, H, W] into a patch matrix
/// [C*k*k, out_h*out_w] (column-major over output positions).
/// `columns` must have patch_size() * out_h * out_w elements.
void im2col(const float* image, const ConvGeometry& g, float* columns);

/// Byte-domain twin of im2col for the int8 serving path. Padding
/// positions are filled with qgemm.h's activation zero point (the code
/// a float 0 quantizes to), so quantize-then-im2col produces exactly
/// the byte matrix im2col-then-quantize would, at a quarter of the
/// memory traffic and without the float scratch.
void im2col_u8(const std::uint8_t* image, const ConvGeometry& g, std::uint8_t* columns);

/// Inverse scatter-add of im2col: accumulates patch-matrix gradients back
/// into an image gradient buffer of size C*H*W (which must be zeroed by
/// the caller if accumulation from zero is desired).
void col2im(const float* columns, const ConvGeometry& g, float* image);

// ----- Row-wise reductions --------------------------------------------
//
// Each reduction has an _into variant writing a caller-owned buffer —
// the serving engines keep those buffers across calls so the per-batch
// routing signals allocate nothing — plus the allocating convenience
// wrapper.

/// Row-wise softmax of a [rows, cols] tensor (numerically stabilized).
/// `out` is resized to match `logits`; in-place (&out == &logits) is
/// allowed.
void softmax_into(const Tensor& logits, Tensor& out);
Tensor softmax(const Tensor& logits);

/// Row-wise log-softmax of a [rows, cols] tensor.
Tensor log_softmax(const Tensor& logits);

/// Shannon entropy (natural log) of each row of a probability matrix.
void row_entropy_into(const Tensor& probabilities, std::vector<float>& out);
std::vector<float> row_entropy(const Tensor& probabilities);

/// Index of the max element in each row of a [rows, cols] tensor.
void row_argmax_into(const Tensor& values, std::vector<int>& out);
std::vector<int> row_argmax(const Tensor& values);

/// Max element of each row of a [rows, cols] tensor.
void row_max_into(const Tensor& values, std::vector<float>& out);
std::vector<float> row_max(const Tensor& values);

/// Top-1 minus top-2 element of each row of a [rows, cols] tensor (the
/// confidence margin when applied to softmax scores). Rows with a single
/// column have margin equal to their only element.
void row_margin_into(const Tensor& values, std::vector<float>& out);
std::vector<float> row_margin(const Tensor& values);

/// Copies the listed batch rows of `source` (any rank >= 1) into a new
/// tensor of shape [rows.size(), ...]. Used to route instance subsets
/// (extension batches, offload payloads).
Tensor gather_rows(const Tensor& source, const std::vector<int>& rows);

}  // namespace meanet::ops
