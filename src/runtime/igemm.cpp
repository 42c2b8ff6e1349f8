// See igemm.hpp for the design and determinism contract. The blocked
// kernel lives in igemm_kernels.cpp, compiled once per kernel set; this
// file dispatches to the active set and holds the scalar oracle.
#include "runtime/igemm.hpp"

#include <stdexcept>

#include "runtime/gemm_kernels.hpp"
#include "runtime/kernel_registry.hpp"
#include "runtime/thread_pool.hpp"

namespace wino::runtime {
namespace {

// Widening scalar dot product: the reference semantics every SIMD kernel
// must reproduce bit-for-bit (trivial here — integer accumulation is
// exact, so there is nothing order-sensitive to reproduce).
inline std::int32_t dot_scalar(const std::int8_t* a, const std::int8_t* b,
                               std::size_t k) {
  std::int32_t acc = 0;
  for (std::size_t i = 0; i < k; ++i) {
    acc += static_cast<std::int32_t>(a[i]) * static_cast<std::int32_t>(b[i]);
  }
  return acc;
}

const IGemmKernels& active_igemm() {
  static constexpr const IGemmKernels* kSets[] =
      WINO_KERNEL_TABLES(kIGemmKernels);
  return active_table(kSets);
}

}  // namespace

void igemm_nt(std::size_t m, std::size_t n, std::size_t k,
              const std::int8_t* a, std::size_t lda, const std::int8_t* b,
              std::size_t ldb, std::int32_t* c, std::size_t ldc,
              IGemmKernel kernel) {
  if (k > kMaxInner) {
    throw std::invalid_argument(
        "igemm_nt: reduction depth exceeds the int32 exactness bound");
  }
  if (m == 0 || n == 0) return;
  const IGemmKernels& kernels = active_igemm();
  // Columns are the large dimension in the im2col shape (output pixels);
  // splitting them keeps every thread's writes disjoint and leaves the
  // K reduction whole.
  parallel_for(n, [&](std::size_t col_begin, std::size_t col_end) {
    if (kernel == IGemmKernel::kScalar) {
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = col_begin; j < col_end; ++j) {
          c[i * ldc + j] = dot_scalar(a + i * lda, b + j * ldb, k);
        }
      }
      return;
    }
    kernels.blocked(m, k, a, lda, b, ldb, c, ldc, col_begin, col_end);
  });
}

void igemm_nt_ref(std::size_t m, std::size_t n, std::size_t k,
                  const std::int8_t* a, std::size_t lda, const std::int8_t* b,
                  std::size_t ldb, std::int32_t* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      c[i * ldc + j] = dot_scalar(a + i * lda, b + j * ldb, k);
    }
  }
}

const char* igemm_kernel_name() { return active_igemm().name; }

}  // namespace wino::runtime
