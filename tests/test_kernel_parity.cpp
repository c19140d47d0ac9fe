// Parity and concurrency guarantees of the GEMM-backed inference hot
// path:
//  - the blocked, packed GEMM matches the naive reference loops across
//    seeded shapes and all four transpose cases;
//  - Conv2d / DepthwiseConv2d forwards match the naive per-pixel loop
//    nests (MEANET_NAIVE_KERNELS path) within 1e-5 across odd sizes,
//    stride 2, padding, and batch > 1;
//  - eval-mode Conv+BN folding matches the unfused pair, and a
//    ReLU/ReLU6 folded into the kernel epilogue is bit-identical to
//    running it as its own layer after the pair (float and int8, every
//    batch, pool width and kernel tier);
//  - eval-mode forwards are cache-free (activation_cache_elems == 0)
//    and thread-safe: four workers share ONE net and reproduce the
//    single-threaded logits bit-identically (run this binary under
//    TSAN to verify the absence of data races mechanically);
//  - the row-striped GemmPool threading is bit-identical to
//    single-thread at every pool width;
//  - a batched conv forward is bit-identical to forwarding each image
//    alone at every pool width (float) and bit-identical across pool
//    widths (int8), and its column scratch is one image wide;
//  - the runtime-dispatched SIMD microkernel matches the portable
//    4x16 within float-rounding tolerance, and each fixed kernel is
//    bit-identical across thread counts;
//  - the int8 quantized path (tensor/qgemm.h) round-trips weights
//    within half a quantization step, tracks the float forward within
//    the documented tolerance at 1/2/4 pool threads, and its scalar
//    and VNNI kernels produce bit-identical results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/batchnorm2d.h"
#include "nn/conv2d.h"
#include "nn/fuse.h"
#include "nn/quantize.h"
#include "nn/sequential.h"
#include "tensor/ops.h"
#include "tensor/qgemm.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"
#include "tiny_models.h"

namespace meanet {
namespace {

using meanet::testing::tiny_meanet_b;

/// Runs `fn` once with the naive kernels and once with the optimized
/// ones, restoring the previous selection afterwards.
template <typename Fn>
std::pair<Tensor, Tensor> both_kernel_paths(Fn fn) {
  const bool before = ops::naive_kernels();
  ops::set_naive_kernels(true);
  Tensor naive = fn();
  ops::set_naive_kernels(false);
  Tensor fast = fn();
  ops::set_naive_kernels(before);
  return {std::move(naive), std::move(fast)};
}

TEST(GemmParity, BlockedMatchesNaiveAcrossShapesAndTransposes) {
  util::Rng rng(7);
  // Odd sizes, tile-boundary sizes, degenerate rows/cols.
  const int sizes[][3] = {{1, 1, 1},   {3, 5, 7},    {4, 16, 256}, {17, 33, 9},
                          {64, 64, 64}, {5, 130, 31}, {130, 17, 300}};
  for (const auto& s : sizes) {
    const int m = s[0], n = s[1], k = s[2];
    const Tensor a = Tensor::normal(Shape{m, k}, rng);
    const Tensor b = Tensor::normal(Shape{k, n}, rng);
    const Tensor at = Tensor::normal(Shape{k, m}, rng);
    const Tensor bt = Tensor::normal(Shape{n, k}, rng);
    for (int ta = 0; ta < 2; ++ta) {
      for (int tb = 0; tb < 2; ++tb) {
        auto [naive, fast] = both_kernel_paths([&] {
          return ops::matmul(ta ? at : a, tb ? bt : b, ta != 0, tb != 0);
        });
        ASSERT_EQ(naive.shape(), fast.shape());
        for (std::int64_t i = 0; i < naive.numel(); ++i) {
          ASSERT_NEAR(naive[i], fast[i], 1e-4f * std::max(1.0f, std::fabs(naive[i])))
              << "m=" << m << " n=" << n << " k=" << k << " ta=" << ta << " tb=" << tb
              << " i=" << i;
        }
      }
    }
  }
}

TEST(GemmParity, AlphaBetaAccumulationMatches) {
  util::Rng rng(11);
  const int m = 19, n = 37, k = 23;
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  const Tensor c0 = Tensor::normal(Shape{m, n}, rng);
  auto run = [&] {
    Tensor c = c0;
    ops::gemm(false, false, m, n, k, 0.5f, a.data(), k, b.data(), n, 2.0f, c.data(), n);
    return c;
  };
  auto [naive, fast] = both_kernel_paths(run);
  for (std::int64_t i = 0; i < naive.numel(); ++i) {
    ASSERT_NEAR(naive[i], fast[i], 1e-4f * std::max(1.0f, std::fabs(naive[i])));
  }
}

TEST(GemmParity, RowStripedThreadingIsBitIdentical) {
  util::Rng rng(13);
  const int m = 160, n = 160, k = 160;  // big enough to cross the spawn threshold
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  const int before = ops::gemm_threads();
  ops::set_gemm_threads(1);
  const Tensor single = ops::matmul(a, b);
  ops::set_gemm_threads(3);
  const Tensor threaded = ops::matmul(a, b);
  ops::set_gemm_threads(before);
  EXPECT_TRUE(allclose(single, threaded, 0.0f));  // same row, same k-order
}

TEST(GemmParity, PoolThreadingIsBitIdenticalAtOneTwoAndFourThreads) {
  util::Rng rng(17);
  const int m = 192, n = 176, k = 144;  // crosses the small-problem threshold
  const Tensor a = Tensor::normal(Shape{m, k}, rng);
  const Tensor b = Tensor::normal(Shape{k, n}, rng);
  const int before = ops::gemm_threads();
  ops::set_gemm_threads(1);
  const Tensor single = ops::matmul(a, b);
  for (const int threads : {2, 4}) {
    ops::set_gemm_threads(threads);
    const Tensor pooled = ops::matmul(a, b);
    EXPECT_TRUE(allclose(single, pooled, 0.0f)) << "threads=" << threads;
  }
  ops::set_gemm_threads(before);
}

TEST(GemmParity, PersistentPoolSurvivesRepeatedWidthChanges) {
  // The pool's workers live for the process and the pool grows
  // monotonically; alternate widths across calls to exercise the
  // generation handshake rather than a fresh spawn/join per call.
  util::Rng rng(19);
  const Tensor a = Tensor::normal(Shape{160, 160}, rng);
  const Tensor b = Tensor::normal(Shape{160, 160}, rng);
  const int before = ops::gemm_threads();
  ops::set_gemm_threads(1);
  const Tensor expected = ops::matmul(a, b);
  for (int i = 0; i < 12; ++i) {
    ops::set_gemm_threads(1 + i % 4);
    EXPECT_TRUE(allclose(expected, ops::matmul(a, b), 0.0f)) << "iter=" << i;
  }
  ops::set_gemm_threads(before);
}

/// RAII set/restore of the float microkernel selection.
class SimdLevelScope {
 public:
  explicit SimdLevelScope(ops::SimdLevel level) : previous_(ops::simd_level()) {
    ops::set_simd_level(level);
  }
  ~SimdLevelScope() { ops::set_simd_level(previous_); }

 private:
  ops::SimdLevel previous_;
};

TEST(SimdParity, VectorMicrokernelMatchesPortableWithinTolerance) {
  if (ops::max_simd_level() == ops::SimdLevel::kPortable) {
    GTEST_SKIP() << "no vector microkernel on this host";
  }
  util::Rng rng(43);
  // Full tiles, ragged tiles, and sizes spanning several KC/NC blocks.
  const int sizes[][3] = {{6, 16, 32}, {17, 33, 9}, {64, 64, 64}, {130, 130, 130}};
  for (const auto& s : sizes) {
    const int m = s[0], n = s[1], k = s[2];
    const Tensor a = Tensor::normal(Shape{m, k}, rng);
    const Tensor b = Tensor::normal(Shape{k, n}, rng);
    Tensor portable;
    Tensor vectorized;
    {
      SimdLevelScope scope(ops::SimdLevel::kPortable);
      portable = ops::matmul(a, b);
    }
    {
      SimdLevelScope scope(ops::max_simd_level());
      vectorized = ops::matmul(a, b);
    }
    ASSERT_EQ(portable.shape(), vectorized.shape());
    // The vector kernel contracts multiply-adds into FMAs, so results
    // differ from the portable kernel only by rounding.
    for (std::int64_t i = 0; i < portable.numel(); ++i) {
      ASSERT_NEAR(portable[i], vectorized[i],
                  1e-4f * std::max(1.0f, std::fabs(portable[i])))
          << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(SimdParity, PortableKernelIsBitIdenticalAcrossThreadCounts) {
  // The thread-count bit-identity contract holds per fixed kernel; the
  // default-kernel case is covered above, so pin the portable tier.
  util::Rng rng(47);
  const Tensor a = Tensor::normal(Shape{160, 160}, rng);
  const Tensor b = Tensor::normal(Shape{160, 160}, rng);
  SimdLevelScope scope(ops::SimdLevel::kPortable);
  const int before = ops::gemm_threads();
  ops::set_gemm_threads(1);
  const Tensor single = ops::matmul(a, b);
  ops::set_gemm_threads(4);
  const Tensor pooled = ops::matmul(a, b);
  ops::set_gemm_threads(before);
  EXPECT_TRUE(allclose(single, pooled, 0.0f));
}

TEST(SimdParity, SetLevelClampsToTheHardwareCeiling) {
  const ops::SimdLevel before = ops::simd_level();
  ops::set_simd_level(ops::SimdLevel::kPortable);
  EXPECT_EQ(ops::simd_level(), ops::SimdLevel::kPortable);
  // A level the host lacks degrades to portable instead of faulting
  // later; the host's own ceiling is honored.
  for (const ops::SimdLevel requested : {ops::SimdLevel::kAvx2, ops::SimdLevel::kNeon}) {
    ops::set_simd_level(requested);
    EXPECT_TRUE(ops::simd_level() == requested
                    ? requested == ops::max_simd_level()
                    : ops::simd_level() == ops::SimdLevel::kPortable);
  }
  ops::set_simd_level(before);
}

TEST(QuantizedParity, DequantizedWeightsRoundTripWithinHalfStep) {
  util::Rng rng(53);
  const int rows = 5, cols = 19;
  const Tensor w = Tensor::normal(Shape{rows, cols}, rng);
  const ops::QuantizedWeights q = nn::quantize_weights_int8(w, rows);
  EXPECT_EQ(q.rows, rows);
  EXPECT_EQ(q.cols, cols);
  EXPECT_EQ(q.k_padded, ops::quantized_k_padded(cols));
  const Tensor decoded = nn::dequantize_int8(q);
  ASSERT_EQ(decoded.shape(), (Shape{rows, cols}));
  for (int r = 0; r < rows; ++r) {
    // Symmetric rounding quantization: every element is within half a
    // step of its code, and the row max hits a code exactly.
    for (int c = 0; c < cols; ++c) {
      const std::int64_t i = static_cast<std::int64_t>(r) * cols + c;
      EXPECT_LE(std::fabs(decoded[i] - w[i]), 0.5f * q.scale[static_cast<std::size_t>(r)] + 1e-7f)
          << "r=" << r << " c=" << c;
    }
  }
}

/// Quantizes W [rows, k] and X [k, n], runs qgemm_u8s8, returns C.
Tensor run_qgemm(const Tensor& w, const Tensor& x, const Tensor& bias) {
  const int rows = w.shape().dim(0);
  const int k = w.shape().dim(1);
  const int n = x.shape().dim(1);
  const ops::QuantizedWeights q = ops::quantize_weights_int8(w.data(), rows, k);
  const float a_scale = ops::activation_scale(x.data(), static_cast<std::size_t>(x.numel()));
  std::vector<std::uint8_t> act(static_cast<std::size_t>(x.numel()));
  ops::quantize_activations_u8(x.data(), act.size(), a_scale, act.data());
  Tensor c(Shape{rows, n});
  ops::qgemm_u8s8(rows, n, k, q.k_padded, q.data.data(), q.scale.data(), q.row_sum.data(),
                  act.data(), a_scale, bias.data(), c.data(), n);
  return c;
}

TEST(QuantizedParity, QgemmTracksFloatGemmWithinQuantizationError) {
  util::Rng rng(59);
  // Ragged and tile-aligned shapes for both kernel tiers (16-wide
  // column panels, 4-row blocks, k groups of 4).
  const int sizes[][3] = {{1, 1, 1}, {4, 16, 32}, {13, 37, 29}, {16, 48, 64}, {7, 130, 75}};
  for (const auto& s : sizes) {
    const int rows = s[0], n = s[2], k = s[1];
    const Tensor w = Tensor::normal(Shape{rows, k}, rng);
    const Tensor x = Tensor::normal(Shape{k, n}, rng);
    const Tensor bias = Tensor::normal(Shape{rows}, rng);
    Tensor ref(Shape{rows, n});
    ops::gemm(false, false, rows, n, k, 1.0f, w.data(), k, x.data(), n, 0.0f, ref.data(), n);
    for (int r = 0; r < rows; ++r) {
      for (int j = 0; j < n; ++j) ref[static_cast<std::int64_t>(r) * n + j] += bias[r];
    }
    const Tensor q8 = run_qgemm(w, x, bias);
    float max_abs = 0.0f;
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      max_abs = std::max(max_abs, std::fabs(ref[i]));
    }
    // ~1% relative error measured for normal operands; 5% of the
    // dynamic range is a comfortable regression bound.
    const float tolerance = 0.05f * std::max(1.0f, max_abs);
    for (std::int64_t i = 0; i < ref.numel(); ++i) {
      ASSERT_NEAR(ref[i], q8[i], tolerance)
          << "rows=" << rows << " n=" << n << " k=" << k << " i=" << i;
    }
  }
}

TEST(QuantizedParity, ScalarAndVectorInt8KernelsAreBitIdentical) {
  if (ops::max_int8_kernel() == ops::Int8Kernel::kScalar) {
    GTEST_SKIP() << "no VNNI tier on this host";
  }
  util::Rng rng(61);
  const int sizes[][3] = {{4, 16, 32}, {13, 37, 29}, {7, 130, 75}};
  for (const auto& s : sizes) {
    const int rows = s[0], n = s[2], k = s[1];
    const Tensor w = Tensor::normal(Shape{rows, k}, rng);
    const Tensor x = Tensor::normal(Shape{k, n}, rng);
    const Tensor bias = Tensor::normal(Shape{rows}, rng);
    const ops::Int8Kernel before = ops::int8_kernel();
    ops::set_int8_kernel(ops::max_int8_kernel());
    const Tensor vectorized = run_qgemm(w, x, bias);
    ops::set_int8_kernel(ops::Int8Kernel::kScalar);
    const Tensor scalar = run_qgemm(w, x, bias);
    ops::set_int8_kernel(before);
    // s32 accumulation is exact and both epilogues use one fused
    // multiply-add with round-to-nearest int->float conversion, so the
    // tiers agree to the bit (qgemm.h documents this contract).
    EXPECT_TRUE(allclose(vectorized, scalar, 0.0f))
        << "rows=" << rows << " n=" << n << " k=" << k;
  }
}

TEST(QuantizedParity, AllZeroActivationsDegenerateToBias) {
  util::Rng rng(67);
  const Tensor w = Tensor::normal(Shape{3, 8}, rng);
  const Tensor x = Tensor::zeros(Shape{8, 5});
  const Tensor bias = Tensor::normal(Shape{3}, rng);
  const Tensor q8 = run_qgemm(w, x, bias);
  for (int r = 0; r < 3; ++r) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_FLOAT_EQ(q8[static_cast<std::int64_t>(r) * 5 + j], bias[r]);
    }
  }
}

TEST(QuantizedParity, ConvForwardTracksFloatAcrossPoolThreads) {
  util::Rng rng(71);
  nn::Conv2d conv(8, 16, 3, 1, 1, /*bias=*/true, rng);
  const Tensor x = Tensor::normal(Shape{2, 8, 12, 12}, rng);
  const Tensor fp = conv.forward(x, nn::Mode::kEval);
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < fp.numel(); ++i) max_abs = std::max(max_abs, std::fabs(fp[i]));
  const float tolerance = 0.05f * std::max(1.0f, max_abs);
  const int before = ops::gemm_threads();
  Tensor at_one_thread;
  for (const int threads : {1, 2, 4}) {
    ops::set_gemm_threads(threads);
    ops::QuantizedScope quantized(true);
    const Tensor q8 = conv.forward(x, nn::Mode::kEval);
    ASSERT_EQ(q8.shape(), fp.shape());
    for (std::int64_t i = 0; i < fp.numel(); ++i) {
      ASSERT_NEAR(fp[i], q8[i], tolerance) << "threads=" << threads << " i=" << i;
    }
    // The int8 path itself is deterministic regardless of pool width.
    if (threads == 1) {
      at_one_thread = q8;
    } else {
      EXPECT_TRUE(allclose(at_one_thread, q8, 0.0f)) << "threads=" << threads;
    }
  }
  ops::set_gemm_threads(before);
}

TEST(QuantizedParity, FoldedConvBnEvalComposesWithInt8) {
  util::Rng rng(73);
  nn::Sequential fused("fused");
  fused.emplace<nn::Conv2d>(3, 6, 3, 1, 1, /*bias=*/true, rng, "c");
  fused.emplace<nn::BatchNorm2d>(6);
  for (int i = 0; i < 3; ++i) {
    fused.forward(Tensor::normal(Shape{4, 3, 9, 9}, rng), nn::Mode::kTrain);
  }
  const Tensor x = Tensor::normal(Shape{2, 3, 9, 9}, rng);
  const Tensor fp = fused.forward(x, nn::Mode::kEval);
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < fp.numel(); ++i) max_abs = std::max(max_abs, std::fabs(fp[i]));
  ops::QuantizedScope quantized(true);
  const Tensor q8 = fused.forward(x, nn::Mode::kEval);
  ASSERT_EQ(q8.shape(), fp.shape());
  // int8 quantizes the BN-folded weights, so the fused path and the
  // quantized path compose without extra error terms.
  const float tolerance = 0.05f * std::max(1.0f, max_abs);
  for (std::int64_t i = 0; i < fp.numel(); ++i) {
    ASSERT_NEAR(fp[i], q8[i], tolerance) << "i=" << i;
  }
}

TEST(QuantizedParity, ScopeRestoresThePreviousFlag) {
  EXPECT_FALSE(ops::quantized_inference());
  {
    ops::QuantizedScope outer(true);
    EXPECT_TRUE(ops::quantized_inference());
    {
      ops::QuantizedScope inner(false);
      EXPECT_FALSE(ops::quantized_inference());
    }
    EXPECT_TRUE(ops::quantized_inference());
  }
  EXPECT_FALSE(ops::quantized_inference());
}

class ConvParity : public ::testing::TestWithParam<std::tuple<int, int, int, int, int, int>> {};
// batch, in_c, out_c, kernel, stride, padding

TEST_P(ConvParity, GemmPathMatchesNaiveLoopNest) {
  const auto [batch, in_c, out_c, kernel, stride, padding] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(batch * 7919 + in_c * 131 + out_c * 17 +
                                           kernel * 5 + stride * 3 + padding));
  nn::Conv2d conv(in_c, out_c, kernel, stride, padding, /*bias=*/true, rng);
  const int size = 9;  // odd, so strides hit ragged edges
  if (conv.output_shape(Shape{1, in_c, size, size}).height() <= 0) GTEST_SKIP();
  const Tensor x = Tensor::normal(Shape{batch, in_c, size, size}, rng);
  auto [naive, fast] = both_kernel_paths([&] { return conv.forward(x, nn::Mode::kEval); });
  ASSERT_EQ(naive.shape(), fast.shape());
  EXPECT_TRUE(allclose(naive, fast, 1e-5f))
      << "b=" << batch << " in=" << in_c << " out=" << out_c << " k=" << kernel
      << " s=" << stride << " p=" << padding;
}

INSTANTIATE_TEST_SUITE_P(SeededShapes, ConvParity,
                         ::testing::Combine(::testing::Values(1, 3), ::testing::Values(1, 3),
                                            ::testing::Values(2, 5), ::testing::Values(1, 3, 5),
                                            ::testing::Values(1, 2), ::testing::Values(0, 1, 2)));

class DepthwiseParity : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};
// channels, kernel, stride, padding

TEST_P(DepthwiseParity, SpecializedPathMatchesNaiveLoopNest) {
  const auto [channels, kernel, stride, padding] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(channels * 101 + kernel * 13 + stride * 7 + padding));
  nn::DepthwiseConv2d dw(channels, kernel, stride, padding, rng);
  const int size = 11;
  if (dw.output_shape(Shape{1, channels, size, size}).height() <= 0) GTEST_SKIP();
  const Tensor x = Tensor::normal(Shape{2, channels, size, size}, rng);
  auto [naive, fast] = both_kernel_paths([&] { return dw.forward(x, nn::Mode::kEval); });
  EXPECT_TRUE(allclose(naive, fast, 1e-5f))
      << "c=" << channels << " k=" << kernel << " s=" << stride << " p=" << padding;
}

INSTANTIATE_TEST_SUITE_P(SeededShapes, DepthwiseParity,
                         ::testing::Combine(::testing::Values(1, 3), ::testing::Values(3, 5),
                                            ::testing::Values(1, 2), ::testing::Values(0, 1, 2)));

TEST(DepthwiseParity, NarrowerThanKernelInputsStayInBounds) {
  // Regression: with in_w < kernel (valid thanks to padding) the
  // interior-column bound's truncating division used to round toward
  // zero instead of clamping to "no interior", reading past the row.
  util::Rng rng(41);
  for (const int stride : {1, 2}) {
    nn::DepthwiseConv2d dw(1, 3, stride, /*padding=*/1, rng);
    const Tensor x = Tensor::normal(Shape{1, 1, 3, 2}, rng);  // 2-wide rows
    auto [naive, fast] = both_kernel_paths([&] { return dw.forward(x, nn::Mode::kEval); });
    EXPECT_TRUE(allclose(naive, fast, 1e-6f)) << "stride=" << stride;
  }
  // The unpadded stride-2 case that originally read past the row.
  nn::DepthwiseConv2d dw(1, 3, 2, /*padding=*/0, rng);
  const Tensor x = Tensor::normal(Shape{1, 1, 3, 2}, rng);
  auto [naive, fast] = both_kernel_paths([&] { return dw.forward(x, nn::Mode::kEval); });
  EXPECT_TRUE(allclose(naive, fast, 1e-6f));
}

// ----- One image per conv GEMM -----------------------------------------

/// The reference every batched conv forward must match: each image of
/// `x` forwarded alone as a batch of one.
Tensor forward_each_image_alone(nn::Conv2d& conv, const Tensor& x) {
  const int batch = x.shape().batch();
  Tensor out(conv.output_shape(x.shape()));
  const std::int64_t stride = out.numel() / batch;
  for (int n = 0; n < batch; ++n) {
    const Tensor y = conv.forward(ops::gather_rows(x, {n}), nn::Mode::kEval);
    std::copy_n(y.data(), stride, out.data() + n * stride);
  }
  return out;
}

/// Float conv of `x` at pool widths 1, 2 and 4 must be bit-identical to
/// forwarding each image alone.
void expect_float_matches_images_alone(nn::Conv2d& conv, const Tensor& x) {
  const Tensor alone = forward_each_image_alone(conv, x);
  const int before = ops::gemm_threads();
  for (const int threads : {1, 2, 4}) {
    ops::set_gemm_threads(threads);
    const Tensor batched = conv.forward(x, nn::Mode::kEval);
    // Exactly equal, not merely close: striping the GEMM rows over the
    // pool never changes an element's accumulation order.
    EXPECT_TRUE(allclose(alone, batched, 0.0f)) << "threads=" << threads;
  }
  ops::set_gemm_threads(before);
}

class BatchedParity : public ::testing::TestWithParam<std::tuple<int, int, int>> {};
// batch, stride, padding

TEST_P(BatchedParity, FloatIsBitIdenticalToEachImageAlone) {
  const auto [batch, stride, padding] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(batch * 911 + stride * 31 + padding));
  nn::Conv2d conv(3, 8, 3, stride, padding, /*bias=*/true, rng);
  const int size = 9;  // odd, so strides hit ragged edges
  if (conv.output_shape(Shape{1, 3, size, size}).height() <= 0) GTEST_SKIP();
  const Tensor x = Tensor::normal(Shape{batch, 3, size, size}, rng);
  expect_float_matches_images_alone(conv, x);
}

INSTANTIATE_TEST_SUITE_P(SeededShapes, BatchedParity,
                         ::testing::Combine(::testing::Values(1, 3, 32),
                                            ::testing::Values(1, 2),
                                            ::testing::Values(0, 1, 2)));

TEST(BatchedParity, FloatIsBitIdenticalAtOneTwoAndFourThreads) {
  util::Rng rng(83);
  // Big enough that each image's GEMM (32 x 576 x 144, ~5.3 MFLOP)
  // crosses the multi-thread flops threshold, so widths 2 and 4
  // really stripe it over the pool.
  nn::Conv2d conv(16, 32, 3, 1, 1, /*bias=*/true, rng);
  const Tensor x = Tensor::normal(Shape{4, 16, 24, 24}, rng);
  expect_float_matches_images_alone(conv, x);
}

TEST(BatchedParity, FloatIsBitIdenticalWhenOneImageFillsTheNcPanel) {
  util::Rng rng(87);
  // 32x32 input, 3x3, stride 1, padding 1: one image's GEMM already has
  // out_hw = 1024 columns, a full NC panel of the blocked GEMM.
  nn::Conv2d conv(3, 8, 3, 1, 1, /*bias=*/true, rng);
  const Tensor x = Tensor::normal(Shape{4, 3, 32, 32}, rng);
  expect_float_matches_images_alone(conv, x);
}

TEST(BatchedParity, WholeBatchInt8TracksPerImageScalesWithinTolerance) {
  util::Rng rng(97);
  nn::Conv2d conv(8, 16, 3, 1, 1, /*bias=*/true, rng);
  const Tensor x = Tensor::normal(Shape{4, 8, 12, 12}, rng);
  const Tensor fp = conv.forward(x, nn::Mode::kEval);
  float max_abs = 0.0f;
  for (std::int64_t i = 0; i < fp.numel(); ++i) max_abs = std::max(max_abs, std::fabs(fp[i]));
  const float tolerance = 0.05f * std::max(1.0f, max_abs);
  ops::QuantizedScope quantized(true);
  // Forwarded alone, each image gets its own activation scale.
  const Tensor per_image = forward_each_image_alone(conv, x);
  const Tensor batched = conv.forward(x, nn::Mode::kEval);
  // The batch-wide activation scale is coarser than per-image scales,
  // so the two differ by (bounded) quantization error — both must
  // still track the float forward.
  for (std::int64_t i = 0; i < fp.numel(); ++i) {
    ASSERT_NEAR(fp[i], batched[i], tolerance) << "i=" << i;
    ASSERT_NEAR(per_image[i], batched[i], tolerance) << "i=" << i;
  }
}

TEST(BatchedParity, Int8IsBitIdenticalAcrossThreads) {
  util::Rng rng(101);
  nn::Conv2d conv(8, 16, 3, 1, 1, /*bias=*/true, rng);
  const Tensor x = Tensor::normal(Shape{5, 8, 12, 12}, rng);
  ops::QuantizedScope quantized(true);
  const int before = ops::gemm_threads();
  ops::set_gemm_threads(1);
  const Tensor baseline = conv.forward(x, nn::Mode::kEval);
  // The activation scale is computed over the whole batch before the
  // image loop and the integer accumulation is exact, so the int8 path
  // is bit-identical at any pool width.
  for (const int threads : {2, 4}) {
    ops::set_gemm_threads(threads);
    const Tensor run = conv.forward(x, nn::Mode::kEval);
    EXPECT_TRUE(allclose(baseline, run, 0.0f)) << "threads=" << threads;
  }
  ops::set_gemm_threads(before);
}

TEST(BatchedParity, ConvScratchIsOneImageOfColumns) {
  // A ResNet-B-shaped edge model (CIFAR-like 3x16x16 input, stages
  // 8/16/32). Its widest im2col is the stage-1 3x3 conv over 8 channels
  // at 16x16: 8*3*3 * 16*16 floats per image. A batch-32 forward on a
  // 4-wide pool must never hold more conv columns than that.
  constexpr std::size_t kWidestImageColumns = 8 * 3 * 3 * 16 * 16;
  core::ResNetConfig config;
  config.blocks_per_stage = 1;
  config.channels = {8, 16, 32};
  config.image_channels = 3;
  config.num_classes = 20;
  util::Rng rng(113);
  core::MEANet net = core::build_resnet_meanet_b(config, 10, core::FusionMode::kSum, rng);
  const Tensor x = Tensor::normal(Shape{32, 3, 16, 16}, rng);
  const int before = ops::gemm_threads();
  ops::set_gemm_threads(4);
  std::size_t columns = 0;
  // A fresh thread owns a fresh Workspace, so earlier tests' scratch
  // cannot mask what this forward asked for.
  std::thread([&] {
    (void)net.forward_main(x, nn::Mode::kEval);
    columns = ops::Workspace::tls().capacity(ops::Workspace::kIm2col);
  }).join();
  ops::set_gemm_threads(before);
  EXPECT_GT(columns, 0u);
  EXPECT_LE(columns, kWidestImageColumns);
}

TEST(BatchedParity, DepthwiseThreadingIsBitIdenticalAtOneTwoAndFourThreads) {
  util::Rng rng(103);
  // 4*32 channel planes of 32x32 — over the depthwise min-work gate, so
  // widths 2 and 4 actually fan out on the pool.
  nn::DepthwiseConv2d dw(32, 3, 1, 1, rng);
  const Tensor x = Tensor::normal(Shape{4, 32, 32, 32}, rng);
  auto [naive, fast] = both_kernel_paths([&] { return dw.forward(x, nn::Mode::kEval); });
  EXPECT_TRUE(allclose(naive, fast, 1e-5f));
  const int before = ops::gemm_threads();
  ops::set_gemm_threads(1);
  const Tensor single = dw.forward(x, nn::Mode::kEval);
  EXPECT_TRUE(allclose(single, fast, 0.0f));  // gemm_threads was restored by the helper
  for (const int threads : {2, 4}) {
    ops::set_gemm_threads(threads);
    const Tensor threaded = dw.forward(x, nn::Mode::kEval);
    // Channel planes are disjoint, so any stripe partition is exact.
    EXPECT_TRUE(allclose(single, threaded, 0.0f)) << "threads=" << threads;
  }
  ops::set_gemm_threads(before);
}

/// Element (r, j) of one image's im2col matrix straight from its
/// definition: row r = (c, kh, kw), column j = (oh, ow).
template <typename T>
T im2col_element(const T* image, const ops::ConvGeometry& g, int r, int j, T fill) {
  const int c = r / (g.kernel * g.kernel);
  const int kh = r / g.kernel % g.kernel;
  const int kw = r % g.kernel;
  const int ih = j / g.out_width() * g.stride - g.padding + kh;
  const int iw = j % g.out_width() * g.stride - g.padding + kw;
  if (ih < 0 || ih >= g.in_height || iw < 0 || iw >= g.in_width) return fill;
  return image[(static_cast<std::int64_t>(c) * g.in_height + ih) * g.in_width + iw];
}

TEST(BatchedParity, Im2colMatchesDefinition) {
  util::Rng rng(107);
  // A padded strided 3x3, and the pointwise 1x1/s1/p0 geometry that
  // takes the one-copy-per-plane path.
  for (const auto& [kernel, stride, padding] :
       {std::tuple{3, 2, 1}, std::tuple{1, 1, 0}}) {
    ops::ConvGeometry g;
    g.in_channels = 3;
    g.in_height = 9;
    g.in_width = 7;
    g.kernel = kernel;
    g.stride = stride;
    g.padding = padding;
    const int out_hw = g.out_height() * g.out_width();
    const int patch = g.patch_size();
    const Tensor image = Tensor::normal(Shape{1, 3, 9, 7}, rng);
    std::vector<std::uint8_t> codes(static_cast<std::size_t>(image.numel()));
    for (std::uint8_t& code : codes) code = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    std::vector<float> columns(static_cast<std::size_t>(patch) * out_hw);
    ops::im2col(image.data(), g, columns.data());
    std::vector<std::uint8_t> columns_u8(columns.size());
    ops::im2col_u8(codes.data(), g, columns_u8.data());
    for (int r = 0; r < patch; ++r) {
      for (int j = 0; j < out_hw; ++j) {
        const std::size_t at = static_cast<std::size_t>(r) * out_hw + j;
        ASSERT_EQ(im2col_element(image.data(), g, r, j, 0.0f), columns[at])
            << "k=" << kernel << " r=" << r << " j=" << j;
        // Byte-domain padding is the activation zero point.
        ASSERT_EQ(im2col_element(codes.data(), g, r, j, std::uint8_t{128}), columns_u8[at])
            << "k=" << kernel << " r=" << r << " j=" << j;
      }
    }
  }
}

TEST(BatchNormFolding, FoldedSequentialMatchesUnfusedPair) {
  util::Rng rng(23);
  nn::Sequential fused("fused");
  fused.emplace<nn::Conv2d>(3, 5, 3, 1, 1, /*bias=*/true, rng, "c");
  fused.emplace<nn::BatchNorm2d>(5);
  // Give the BN non-trivial statistics: a few train-mode batches.
  for (int i = 0; i < 3; ++i) {
    fused.forward(Tensor::normal(Shape{4, 3, 7, 7}, rng), nn::Mode::kTrain);
  }
  auto& conv = dynamic_cast<nn::Conv2d&>(fused.layer(0));
  auto& bn = dynamic_cast<nn::BatchNorm2d&>(fused.layer(1));
  const Tensor x = Tensor::normal(Shape{2, 3, 7, 7}, rng);
  const Tensor folded = fused.forward(x, nn::Mode::kEval);
  // Unfused reference: conv then BN, each standalone in eval mode.
  const Tensor unfused = bn.forward(conv.forward(x, nn::Mode::kEval), nn::Mode::kEval);
  EXPECT_TRUE(allclose(folded, unfused, 1e-5f));
}

TEST(BatchNormFolding, FoldedDepthwiseMatchesUnfusedPair) {
  util::Rng rng(29);
  nn::Sequential fused("fused");
  fused.emplace<nn::DepthwiseConv2d>(4, 3, 2, 1, rng, "dw");
  fused.emplace<nn::BatchNorm2d>(4);
  for (int i = 0; i < 3; ++i) {
    fused.forward(Tensor::normal(Shape{4, 4, 9, 9}, rng), nn::Mode::kTrain);
  }
  auto& dw = dynamic_cast<nn::DepthwiseConv2d&>(fused.layer(0));
  auto& bn = dynamic_cast<nn::BatchNorm2d&>(fused.layer(1));
  const Tensor x = Tensor::normal(Shape{2, 4, 9, 9}, rng);
  const Tensor folded = fused.forward(x, nn::Mode::kEval);
  const Tensor unfused = bn.forward(dw.forward(x, nn::Mode::kEval), nn::Mode::kEval);
  EXPECT_TRUE(allclose(folded, unfused, 1e-5f));
}

// ----- Activation epilogue (ops::Activation) ---------------------------

/// A conv layer followed by BN then `act`, with trained running stats.
nn::Sequential conv_bn_act(std::unique_ptr<nn::Layer> conv, int channels, ops::Activation act,
                           const Shape& train_shape, util::Rng& rng) {
  nn::Sequential seq("triple");
  seq.add(std::move(conv));
  seq.emplace<nn::BatchNorm2d>(channels);
  if (act == ops::Activation::kReLU) {
    seq.emplace<nn::ReLU>();
  } else {
    seq.emplace<nn::ReLU6>();
  }
  for (int i = 0; i < 3; ++i) seq.forward(Tensor::normal(train_shape, rng), nn::Mode::kTrain);
  return seq;
}

/// The unfused reference: the folded Conv+BN pair, then the activation
/// as its own layer.
Tensor unfused_eval(nn::Sequential& seq, const Tensor& x) {
  const auto& bn = dynamic_cast<const nn::BatchNorm2d&>(seq.layer(1));
  Tensor y;
  if (const auto* conv = dynamic_cast<const nn::Conv2d*>(&seq.layer(0))) {
    y = nn::fused_conv_bn_eval(*conv, bn, x);
  } else {
    y = nn::fused_conv_bn_eval(dynamic_cast<const nn::DepthwiseConv2d&>(seq.layer(0)), bn, x);
  }
  return seq.layer(2).forward(y, nn::Mode::kEval);
}

/// The fused triple must equal the unfused chain exactly — float and
/// int8, batch 1/8/32, pool width 1 and 4, naive and optimized kernels.
/// Eval inputs are 4x wider than the training data so BN outputs cross
/// both the 0 and the 6 clamp.
template <typename MakeConv>
void expect_fused_epilogue_exact(MakeConv make_conv, int in_channels, int out_channels, int size,
                                 std::uint64_t seed) {
  const bool naive_before = ops::naive_kernels();
  const int threads_before = ops::gemm_threads();
  for (const ops::Activation act : {ops::Activation::kReLU, ops::Activation::kReLU6}) {
    util::Rng rng(seed);
    nn::Sequential seq = conv_bn_act(make_conv(rng), out_channels, act,
                                     Shape{4, in_channels, size, size}, rng);
    for (const int batch : {1, 8, 32}) {
      const Tensor x = Tensor::normal(Shape{batch, in_channels, size, size}, rng, 0.0f, 4.0f);
      for (const bool quantized : {false, true}) {
        ops::QuantizedScope scope(quantized);
        for (const int threads : {1, 4}) {
          ops::set_gemm_threads(threads);
          for (const bool naive : {false, true}) {
            ops::set_naive_kernels(naive);
            const Tensor fused = seq.forward(x, nn::Mode::kEval);
            const Tensor unfused = unfused_eval(seq, x);
            EXPECT_TRUE(allclose(fused, unfused, 0.0f))
                << "act=" << static_cast<int>(act) << " batch=" << batch
                << " int8=" << quantized << " threads=" << threads << " naive=" << naive;
            std::int64_t at_zero = 0, at_six = 0;
            for (std::int64_t i = 0; i < fused.numel(); ++i) {
              at_zero += fused[i] == 0.0f;
              at_six += fused[i] == 6.0f;
            }
            EXPECT_GT(at_zero, 0);
            if (act == ops::Activation::kReLU6) {
              EXPECT_GT(at_six, 0);
            }
          }
        }
      }
    }
  }
  ops::set_naive_kernels(naive_before);
  ops::set_gemm_threads(threads_before);
}

TEST(FusedEpilogue, PointwiseConvMatchesUnfusedChain) {
  expect_fused_epilogue_exact(
      [](util::Rng& rng) { return std::make_unique<nn::Conv2d>(8, 16, 1, 1, 0, false, rng); }, 8,
      16, 12, 211);
}

TEST(FusedEpilogue, Conv3x3MatchesUnfusedChain) {
  expect_fused_epilogue_exact(
      [](util::Rng& rng) { return std::make_unique<nn::Conv2d>(8, 16, 3, 1, 1, true, rng); }, 8,
      16, 12, 223);
}

TEST(FusedEpilogue, DepthwiseStrideOneMatchesUnfusedChain) {
  // 32 images x 16 planes of 16x16 clear the depthwise min-work gate,
  // so at pool width 4 the epilogue runs inside GemmPool stripes.
  expect_fused_epilogue_exact(
      [](util::Rng& rng) { return std::make_unique<nn::DepthwiseConv2d>(16, 3, 1, 1, rng); },
      16, 16, 16, 227);
}

TEST(FusedEpilogue, DepthwiseStrideTwoMatchesUnfusedChain) {
  expect_fused_epilogue_exact(
      [](util::Rng& rng) { return std::make_unique<nn::DepthwiseConv2d>(16, 3, 2, 1, rng); },
      16, 16, 15, 229);
}

TEST(FusedEpilogue, TrainModeRunsTheActivationLayer) {
  util::Rng rng(233);
  nn::Sequential seq = conv_bn_act(std::make_unique<nn::Conv2d>(3, 4, 3, 1, 1, false, rng), 4,
                                   ops::Activation::kReLU6, Shape{2, 3, 6, 6}, rng);
  (void)seq.forward(Tensor::normal(Shape{2, 3, 6, 6}, rng), nn::Mode::kTrain);
  // Train is the plain chain: the activation layer cached its input.
  EXPECT_GT(seq.layer(2).activation_cache_elems(), 0);
}

TEST(FusedEpilogue, ActivationsKeepTheirEdgeValues) {
  // The shared ops::activate pins the standalone layers' semantics:
  // ReLU maps -0 and NaN to +0; ReLU6 maps -0 to +0 and passes NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const Tensor x(Shape{1, 1, 1, 6}, {-0.0f, nan, -3.0f, 2.5f, 6.0f, 7.0f});
  const Tensor r = nn::ReLU().forward(x, nn::Mode::kEval);
  const Tensor r6 = nn::ReLU6().forward(x, nn::Mode::kEval);
  EXPECT_FALSE(std::signbit(r[0]));
  EXPECT_EQ(r[0], 0.0f);
  EXPECT_EQ(r[1], 0.0f);
  EXPECT_EQ(r[2], 0.0f);
  EXPECT_EQ(r[3], 2.5f);
  EXPECT_EQ(r[5], 7.0f);
  EXPECT_FALSE(std::signbit(r6[0]));
  EXPECT_TRUE(std::isnan(r6[1]));
  EXPECT_EQ(r6[2], 0.0f);
  EXPECT_EQ(r6[3], 2.5f);
  EXPECT_EQ(r6[4], 6.0f);
  EXPECT_EQ(r6[5], 6.0f);
}

TEST(CacheFreeEval, EvalForwardAllocatesNoActivationCaches) {
  util::Rng rng(31);
  core::MEANet net = tiny_meanet_b(rng, 2);
  ASSERT_EQ(net.activation_cache_elems(), 0);
  const Tensor images = Tensor::normal(Shape{3, 2, 8, 8}, rng);
  const core::MainForward fwd = net.forward_main(images, nn::Mode::kEval);
  (void)net.forward_extension(images, fwd.features, nn::Mode::kEval);
  EXPECT_EQ(net.activation_cache_elems(), 0);  // the serving invariant
  // Train-mode forwards cache as before.
  (void)net.forward_main(images, nn::Mode::kTrain);
  EXPECT_GT(net.activation_cache_elems(), 0);
}

TEST(SharedNetServing, FourWorkersOnOneNetAreDeterministic) {
  util::Rng rng(37);
  core::MEANet net = tiny_meanet_b(rng, 2);
  constexpr int kBatches = 8;
  constexpr int kWorkers = 4;
  constexpr int kRounds = 6;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  util::Rng data_rng(38);
  for (int i = 0; i < kBatches; ++i) {
    inputs.push_back(Tensor::normal(Shape{2, 2, 8, 8}, data_rng));
    expected.push_back(net.forward_main(inputs.back(), nn::Mode::kEval).logits);
  }
  // Four threads hammer the SAME net concurrently; every result must be
  // bit-identical to the single-threaded reference. Run under TSAN to
  // verify the const-safe eval contract mechanically.
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kBatches; ++i) {
          const int pick = (i + w + round) % kBatches;
          const Tensor logits = net.forward_main(inputs[static_cast<std::size_t>(pick)],
                                                 nn::Mode::kEval)
                                    .logits;
          if (!allclose(logits, expected[static_cast<std::size_t>(pick)], 0.0f)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(net.activation_cache_elems(), 0);
}

}  // namespace
}  // namespace meanet
