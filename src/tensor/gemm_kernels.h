// Explicit-SIMD float GEMM microkernels, one translation unit per ISA.
//
// Every kernel computes C[0:mr, 0:nr] += sum_p apanel[p][·] *
// bpanel[p][·] over a packed A panel (MR-interleaved, alpha folded by
// the packer) and a packed B panel (NR-interleaved). The accumulation
// is strictly p-sequential per C element, exactly like the portable
// kernel in gemm.cpp — so for a FIXED kernel the result is
// bit-identical at any thread count / stripe layout. Different kernels
// round differently (FMA contracts the multiply-add), which is why the
// parity tests compare kernels with a tolerance but thread counts
// exactly.
//
// The vector kernels are compiled with per-function target attributes
// (the binary stays runnable on baseline hardware); gemm.cpp calls
// them only when tensor/simd.h dispatch selected the matching tier.
#pragma once

namespace meanet::ops::detail {

/// apanel: kc groups of `mr_stride` floats; bpanel: kc groups of NR=16
/// floats. Writes the valid mr x nr region of the tile into C.
using MicroKernelFn = void (*)(int kc, const float* apanel, const float* bpanel, float* c,
                               int ldc, int mr, int nr);

/// A float microkernel and the register-tile geometry its packer must
/// produce (A panels are interleaved at stride `mr`).
struct FloatKernel {
  int mr = 0;
  int nr = 0;
  MicroKernelFn fn = nullptr;
  const char* name = "";
};

#if defined(__x86_64__) || defined(_M_X64)
/// 6x16 AVX2+FMA tile: 12 YMM accumulators, one broadcast per A lane.
void micro_kernel_avx2_6x16(int kc, const float* apanel, const float* bpanel, float* c, int ldc,
                            int mr, int nr);
#endif

#if defined(__aarch64__)
/// 6x16 NEON tile: 24 q-register accumulators.
void micro_kernel_neon_6x16(int kc, const float* apanel, const float* bpanel, float* c, int ldc,
                            int mr, int nr);
#endif

}  // namespace meanet::ops::detail
