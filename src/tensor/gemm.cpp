// Blocked, register-tiled GEMM with packed operands and runtime kernel
// dispatch.
//
// Layout: the classic three-level blocking (KC x MC x NC) around an
// MR x NR microkernel. Both operands are packed into contiguous panels
// from the per-thread Workspace — packing folds the optional transpose
// and the alpha scale, so one kernel serves all four transpose cases.
// The microkernel is picked at runtime (tensor/simd.h): a 6x16
// AVX2+FMA tile on x86 with AVX2, a 6x16 NEON tile on aarch64, and the
// portable 4x16 C++ tile everywhere else (or when forced via
// MEANET_SIMD=portable / set_simd_level).
//
// Threading partitions the *output rows* into contiguous MR-aligned
// stripes, one per slot of the persistent ops::GemmPool (the caller
// serves slot 0). Per (KC, NC) block, slot 0 packs B once into its
// workspace and every slot consumes the shared panel between two
// barriers — no per-call thread spawn, no per-thread B repack, and
// worker TLS workspaces survive across calls. Every C element is
// accumulated by exactly one slot in the same k-order as the
// single-threaded run, so results are bit-identical for every thread
// count under a fixed kernel (the serving determinism tests rely on
// this).
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "tensor/gemm_kernels.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "tensor/workspace.h"

namespace meanet::ops {

namespace {

// Portable register tile: MR x NR floats of C accumulated in locals.
// 4 x 16 keeps the accumulator within the vector register budget of
// any SSE2+ target while giving -O3 full unroll + vectorize freedom.
constexpr int kPortableMR = 4;
constexpr int kNR = 16;  // every kernel tier uses NR = 16
// Cache blocks: KC sizes the packed panels' k-depth (A panel MC*KC and
// B panel KC*NC stay L2-resident), MC/NC bound the packed panel sizes.
constexpr int kKC = 256;
constexpr int kMC = 128;
constexpr int kNC = 1024;
// Sanity cap on thread counts from the environment / API.
constexpr long kMaxGemmThreads = 256;

bool env_flag(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] != '\0' && value[0] != '0';
}

int auto_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(std::min<unsigned>(hw, kMaxGemmThreads));
}

int default_threads() {
  const char* value = std::getenv("MEANET_GEMM_THREADS");
  // Default single-threaded: InferenceSession already parallelizes over
  // worker threads, and nested per-call GEMM threads would multiply
  // into oversubscription on the serving path. Threading is an explicit
  // opt-in for single-stream callers (env var or set_gemm_threads).
  if (value == nullptr || value[0] == '\0') return 1;
  char* end = nullptr;
  errno = 0;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0') {
    std::fprintf(stderr,
                 "meanet: MEANET_GEMM_THREADS=\"%s\" is not an integer; using 1 thread\n",
                 value);
    return 1;
  }
  if (errno == ERANGE || parsed < 0 || parsed > kMaxGemmThreads) {
    const long clamped = parsed < 0 ? 1 : kMaxGemmThreads;
    std::fprintf(stderr,
                 "meanet: MEANET_GEMM_THREADS=%s out of range [0, %ld]; clamping to %ld\n",
                 value, kMaxGemmThreads, clamped);
    return static_cast<int>(clamped);
  }
  if (parsed == 0) return auto_threads();  // 0 = auto (hardware concurrency)
  return static_cast<int>(parsed);
}

std::atomic<bool> g_naive_kernels{env_flag("MEANET_NAIVE_KERNELS")};
std::atomic<int> g_gemm_threads{default_threads()};

// ----- Reference kernels (the MEANET_NAIVE_KERNELS comparison path) ----

void naive_nn(int m, int n, int k, float alpha, const float* a, int lda, const float* b, int ldb,
              float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    const float* a_row = a + static_cast<std::ptrdiff_t>(i) * lda;
    for (int p = 0; p < k; ++p) {
      const float a_ip = alpha * a_row[p];
      if (a_ip == 0.0f) continue;
      const float* b_row = b + static_cast<std::ptrdiff_t>(p) * ldb;
      for (int j = 0; j < n; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

void naive_tn(int m, int n, int k, float alpha, const float* a, int lda, const float* b, int ldb,
              float* c, int ldc) {
  // A is stored [k, m]; op(A)[i,p] = A[p,i].
  for (int p = 0; p < k; ++p) {
    const float* a_row = a + static_cast<std::ptrdiff_t>(p) * lda;
    const float* b_row = b + static_cast<std::ptrdiff_t>(p) * ldb;
    for (int i = 0; i < m; ++i) {
      const float a_ip = alpha * a_row[i];
      if (a_ip == 0.0f) continue;
      float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
      for (int j = 0; j < n; ++j) {
        c_row[j] += a_ip * b_row[j];
      }
    }
  }
}

void naive_nt(int m, int n, int k, float alpha, const float* a, int lda, const float* b, int ldb,
              float* c, int ldc) {
  // B is stored [n, k]; op(B)[p,j] = B[j,p]. Dot-product formulation.
  for (int i = 0; i < m; ++i) {
    const float* a_row = a + static_cast<std::ptrdiff_t>(i) * lda;
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      const float* b_row = b + static_cast<std::ptrdiff_t>(j) * ldb;
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] += alpha * acc;
    }
  }
}

void naive_tt(int m, int n, int k, float alpha, const float* a, int lda, const float* b, int ldb,
              float* c, int ldc) {
  for (int i = 0; i < m; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) {
        acc += a[static_cast<std::ptrdiff_t>(p) * lda + i] *
               b[static_cast<std::ptrdiff_t>(j) * ldb + p];
      }
      c_row[j] += alpha * acc;
    }
  }
}

void naive_gemm(bool transpose_a, bool transpose_b, int m, int n, int k, float alpha,
                const float* a, int lda, const float* b, int ldb, float* c, int ldc) {
  if (!transpose_a && !transpose_b) {
    naive_nn(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else if (transpose_a && !transpose_b) {
    naive_tn(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else if (!transpose_a && transpose_b) {
    naive_nt(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  } else {
    naive_tt(m, n, k, alpha, a, lda, b, ldb, c, ldc);
  }
}

// ----- Packing --------------------------------------------------------

/// Packs op(A)[i0:i0+mc, p0:p0+kc] into MR-wide panels:
/// dst[(ib/MR) * kc * MR + p * MR + i] = alpha * op(A)[i0+ib+i, p0+p],
/// zero-padded to a full MR in the last panel. Folding alpha here keeps
/// the microkernel a pure multiply-accumulate. Templated on the active
/// kernel's row-tile so the interleave stride is a compile-time
/// constant in both instantiations.
template <int MR>
void pack_a_t(bool transpose, const float* a, int lda, int i0, int mc, int p0, int kc,
              float alpha, float* dst) {
  for (int ib = 0; ib < mc; ib += MR) {
    const int mr = std::min(MR, mc - ib);
    for (int p = 0; p < kc; ++p) {
      for (int i = 0; i < MR; ++i) {
        float value = 0.0f;
        if (i < mr) {
          const std::ptrdiff_t row = i0 + ib + i, col = p0 + p;
          value = transpose ? a[col * lda + row] : a[row * lda + col];
        }
        *dst++ = alpha * value;
      }
    }
  }
}

void pack_a(int mr_tile, bool transpose, const float* a, int lda, int i0, int mc, int p0, int kc,
            float alpha, float* dst) {
  if (mr_tile == 6) {
    pack_a_t<6>(transpose, a, lda, i0, mc, p0, kc, alpha, dst);
  } else {
    pack_a_t<4>(transpose, a, lda, i0, mc, p0, kc, alpha, dst);
  }
}

/// Packs op(B)[p0:p0+kc, j0:j0+nc] into NR-wide panels:
/// dst[(jb/NR) * kc * NR + p * NR + j] = op(B)[p0+p, j0+jb+j],
/// zero-padded to a full NR in the last panel.
void pack_b(bool transpose, const float* b, int ldb, int p0, int kc, int j0, int nc, float* dst) {
  for (int jb = 0; jb < nc; jb += kNR) {
    const int nr = std::min(kNR, nc - jb);
    for (int p = 0; p < kc; ++p) {
      if (!transpose && nr == kNR) {
        std::memcpy(dst, b + static_cast<std::ptrdiff_t>(p0 + p) * ldb + (j0 + jb),
                    sizeof(float) * kNR);
        dst += kNR;
        continue;
      }
      for (int j = 0; j < kNR; ++j) {
        float value = 0.0f;
        if (j < nr) {
          const std::ptrdiff_t row = p0 + p, col = j0 + jb + j;
          value = transpose ? b[col * ldb + row] : b[row * ldb + col];
        }
        *dst++ = value;
      }
    }
  }
}

// ----- Microkernels ---------------------------------------------------

/// C[0:mr, 0:nr] += sum_p apanel[p][.] * bpanel[p][.] — the portable
/// register tile. The accumulator covers the full padded MR x NR tile
/// (padded lanes hold zeros), only the valid mr x nr region is written
/// back.
void micro_kernel_portable_4x16(int kc, const float* apanel, const float* bpanel, float* c,
                                int ldc, int mr, int nr) {
  float acc[kPortableMR][kNR] = {};
  for (int p = 0; p < kc; ++p, apanel += kPortableMR, bpanel += kNR) {
    for (int i = 0; i < kPortableMR; ++i) {
      const float a = apanel[i];
      for (int j = 0; j < kNR; ++j) acc[i][j] += a * bpanel[j];
    }
  }
  for (int i = 0; i < mr; ++i) {
    float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
    for (int j = 0; j < nr; ++j) c_row[j] += acc[i][j];
  }
}

/// The microkernel matching the active SimdLevel. Levels the binary
/// has no kernel for (clamped away by set_simd_level, but belt and
/// braces) fall back to the portable tile.
detail::FloatKernel active_kernel() {
  switch (simd_level()) {
#if defined(__x86_64__) || defined(_M_X64)
    case SimdLevel::kAvx2:
      return {6, kNR, detail::micro_kernel_avx2_6x16, "avx2"};
#endif
#if defined(__aarch64__)
    case SimdLevel::kNeon:
      return {6, kNR, detail::micro_kernel_neon_6x16, "neon"};
#endif
    default:
      break;
  }
  return {kPortableMR, kNR, micro_kernel_portable_4x16, "portable"};
}

// ----- Striped blocked driver -----------------------------------------

/// Everything one gemm() call shares across pool slots.
struct StripedJob {
  bool transpose_a = false, transpose_b = false;
  int m = 0, n = 0, k = 0;
  float alpha = 1.0f;
  const float* a = nullptr;
  int lda = 0;
  const float* b = nullptr;
  int ldb = 0;
  float* c = nullptr;
  int ldc = 0;
  detail::FloatKernel kernel;
  /// Row range per slot, MR-aligned except at m.
  std::vector<std::pair<int, int>> stripes;
  /// Shared packed-B panel (slot 0's workspace) + the pack/consume
  /// fences; both null in the single-thread path, where the (only)
  /// slot packs B into its own workspace.
  float* shared_bpack = nullptr;
  SpinlessBarrier* barrier = nullptr;
};

/// One slot's share of the blocked loops. All slots walk the same
/// (KC, NC) block sequence so the barriers line up; within a block a
/// slot only touches its own rows.
void run_stripe(const StripedJob& job, int slot) {
  const auto [row0, row1] = job.stripes[static_cast<std::size_t>(slot)];
  const int mr_tile = job.kernel.mr;
  Workspace& workspace = Workspace::tls();
  for (int p0 = 0; p0 < job.k; p0 += kKC) {
    const int kc = std::min(kKC, job.k - p0);
    for (int j0 = 0; j0 < job.n; j0 += kNC) {
      const int nc = std::min(kNC, job.n - j0);
      const int n_panels = (nc + kNR - 1) / kNR;
      float* bpack = job.shared_bpack;
      if (job.barrier != nullptr) {
        if (slot == 0) pack_b(job.transpose_b, job.b, job.ldb, p0, kc, j0, nc, bpack);
        job.barrier->arrive_and_wait();  // B panel packed and published
      } else {
        bpack = workspace.buffer(Workspace::kPackB,
                                 static_cast<std::size_t>(n_panels) * kc * kNR);
        pack_b(job.transpose_b, job.b, job.ldb, p0, kc, j0, nc, bpack);
      }
      for (int i0 = row0; i0 < row1; i0 += kMC) {
        const int mc = std::min(kMC, row1 - i0);
        const int m_panels = (mc + mr_tile - 1) / mr_tile;
        float* apack = workspace.buffer(
            Workspace::kPackA, static_cast<std::size_t>(m_panels) * kc * mr_tile);
        pack_a(mr_tile, job.transpose_a, job.a, job.lda, i0, mc, p0, kc, job.alpha, apack);
        for (int jb = 0; jb < nc; jb += kNR) {
          const float* bpanel = bpack + static_cast<std::ptrdiff_t>(jb / kNR) * kc * kNR;
          const int nr = std::min(kNR, nc - jb);
          float* cbase = job.c + static_cast<std::ptrdiff_t>(i0) * job.ldc + j0 + jb;
          for (int ib = 0; ib < mc; ib += mr_tile) {
            const float* apanel =
                apack + static_cast<std::ptrdiff_t>(ib / mr_tile) * kc * mr_tile;
            const int mr = std::min(mr_tile, mc - ib);
            job.kernel.fn(kc, apanel, bpanel, cbase + static_cast<std::ptrdiff_t>(ib) * job.ldc,
                          job.ldc, mr, nr);
          }
        }
      }
      // Everyone is done reading the shared panel before slot 0 repacks
      // it for the next block.
      if (job.barrier != nullptr) job.barrier->arrive_and_wait();
    }
  }
}

/// Stripe planning + pool dispatch of gemm(): fans contiguous
/// MR-aligned row stripes out over the persistent pool when the problem
/// amortizes the handoff; otherwise runs inline on the calling thread.
void dispatch_striped(StripedJob& job) {
  const std::int64_t flops = 2ll * job.m * job.n * job.k;
  const int tiles = (job.m + job.kernel.mr - 1) / job.kernel.mr;
  int threads = std::min(gemm_threads(), tiles);
  if (flops < (1 << 22)) threads = 1;
  if (threads <= 1) {
    job.stripes.emplace_back(0, job.m);
    run_stripe(job, 0);
    return;
  }

  // Stripe boundaries land on MR multiples so no tile spans two slots.
  job.stripes.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    const int row0 = std::min(job.m, (tiles * t / threads) * job.kernel.mr);
    const int row1 = std::min(job.m, (tiles * (t + 1) / threads) * job.kernel.mr);
    job.stripes.emplace_back(row0, row1);
  }
  // The shared B panel lives in the caller's (slot 0's) workspace,
  // sized for the largest (KC, NC) block of this call.
  const int max_kc = std::min(kKC, job.k);
  const int max_panels = (std::min(kNC, job.n) + kNR - 1) / kNR;
  job.shared_bpack = Workspace::tls().buffer(
      Workspace::kPackB, static_cast<std::size_t>(max_panels) * max_kc * kNR);
  SpinlessBarrier barrier(threads);
  job.barrier = &barrier;
  GemmPool::instance().run(threads, [&job](int slot) { run_stripe(job, slot); });
}

}  // namespace

bool naive_kernels() { return g_naive_kernels.load(std::memory_order_relaxed); }

void set_naive_kernels(bool naive) { g_naive_kernels.store(naive, std::memory_order_relaxed); }

int gemm_threads() { return g_gemm_threads.load(std::memory_order_relaxed); }

void set_gemm_threads(int threads) {
  if (threads == 0) threads = auto_threads();  // 0 = auto, like the env var
  g_gemm_threads.store(
      std::max(1, std::min(threads, static_cast<int>(kMaxGemmThreads))),
      std::memory_order_relaxed);
}

void gemm(bool transpose_a, bool transpose_b, int m, int n, int k, float alpha, const float* a,
          int lda, const float* b, int ldb, float beta, float* c, int ldc) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("gemm: negative dimension");
  if (beta == 0.0f) {
    for (int i = 0; i < m; ++i) {
      std::memset(c + static_cast<std::ptrdiff_t>(i) * ldc, 0,
                  sizeof(float) * static_cast<std::size_t>(n));
    }
  } else if (beta != 1.0f) {
    for (int i = 0; i < m; ++i) {
      float* c_row = c + static_cast<std::ptrdiff_t>(i) * ldc;
      for (int j = 0; j < n; ++j) c_row[j] *= beta;
    }
  }
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0f) return;

  if (naive_kernels()) {
    naive_gemm(transpose_a, transpose_b, m, n, k, alpha, a, lda, b, ldb, c, ldc);
    return;
  }

  StripedJob job;
  job.transpose_a = transpose_a;
  job.transpose_b = transpose_b;
  job.m = m;
  job.n = n;
  job.k = k;
  job.alpha = alpha;
  job.a = a;
  job.lda = lda;
  job.b = b;
  job.ldb = ldb;
  job.c = c;
  job.ldc = ldc;
  job.kernel = active_kernel();
  dispatch_striped(job);
}

Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a, bool transpose_b) {
  if (a.shape().rank() != 2 || b.shape().rank() != 2) {
    throw std::invalid_argument("matmul expects rank-2 tensors");
  }
  const int a_rows = a.shape().dim(0), a_cols = a.shape().dim(1);
  const int b_rows = b.shape().dim(0), b_cols = b.shape().dim(1);
  const int m = transpose_a ? a_cols : a_rows;
  const int k = transpose_a ? a_rows : a_cols;
  const int k2 = transpose_b ? b_cols : b_rows;
  const int n = transpose_b ? b_rows : b_cols;
  if (k != k2) {
    throw std::invalid_argument("matmul: inner dimension mismatch " + a.shape().to_string() +
                                " x " + b.shape().to_string());
  }
  Tensor c(Shape{m, n});
  gemm(transpose_a, transpose_b, m, n, k, 1.0f, a.data(), a_cols, b.data(), b_cols, 0.0f, c.data(),
       n);
  return c;
}

}  // namespace meanet::ops
