// See gemm.hpp for the design and determinism contract. The kernels live in
// gemm_kernels.cpp, compiled once per kernel set; this file dispatches to
// the active set and holds the naive reference, which must round like the
// kernels (the build pins -ffp-contract=off here too).
#include "runtime/gemm.hpp"

#include <algorithm>
#include <vector>

#include "runtime/gemm_kernels.hpp"
#include "runtime/kernel_registry.hpp"

namespace wino::runtime {

namespace {

// Below this many multiply-adds (with K inside a single reduction panel,
// so the bracketing is unchanged) packing costs more than it saves and the
// direct loop runs instead — this also keeps the tiny transform-sized
// GEMMs of the hw engine allocation-free.
constexpr std::size_t kSmallMnk = 32 * 1024;

const GemmKernels& active_gemm() {
  static constexpr const GemmKernels* kSets[] =
      WINO_KERNEL_TABLES(kGemmKernels);
  return active_table(kSets);
}

}  // namespace

float* gemm_pack_buffer(std::size_t floats) {
  // Allocated once per thread and reused across every blocked GEMM it
  // submits. A thread never has two GEMMs in flight: a GEMM called from
  // inside a parallel_for body runs its own regions inline.
  static thread_local std::vector<float> buffer;
  if (buffer.size() < floats) buffer.resize(floats);
  return buffer.data();
}

void sgemm(std::size_t m, std::size_t n, std::size_t k, float alpha,
           const float* a, std::size_t lda, const float* b, std::size_t ldb,
           float beta, float* c, std::size_t ldc, GemmKernel kernel) {
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == 0.0F) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0F) {
        std::fill(crow, crow + n, 0.0F);
      } else {
        for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }
  const GemmKernels& kernels = active_gemm();
  if (k <= kGemmKc && m * n * k <= kSmallMnk) {
    kernels.direct(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  } else if (kernel == GemmKernel::kScalar) {
    baseline::kGemmKernels.blocked_scalar(m, n, k, alpha, a, lda, b, ldb,
                                          beta, c, ldc);
  } else {
    kernels.blocked(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
  }
}

void sgemm_naive(std::size_t m, std::size_t n, std::size_t k, float alpha,
                 const float* a, std::size_t lda, const float* b,
                 std::size_t ldb, float beta, float* c, std::size_t ldc) {
  // Same degenerate-case semantics as sgemm (exact zeros, no -0.0F from
  // scaling a signed accumulator), so the bit-equality contract holds on
  // every path.
  if (k == 0 || alpha == 0.0F) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      if (beta == 0.0F) {
        std::fill(crow, crow + n, 0.0F);
      } else {
        for (std::size_t j = 0; j < n; ++j) crow[j] *= beta;
      }
    }
    return;
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0F;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[i * lda + kk] * b[kk * ldb + j];
      }
      float* cj = c + i * ldc + j;
      *cj = beta == 0.0F ? alpha * acc : alpha * acc + beta * *cj;
    }
  }
}

const char* sgemm_kernel_name() { return active_gemm().name; }

GemmBlocking sgemm_blocking() { return active_gemm().blocking; }

}  // namespace wino::runtime
