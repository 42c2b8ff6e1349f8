// Per-kernel-set entry points of the sgemm and igemm cores (internal).
//
// gemm_kernels.cpp and igemm_kernels.cpp are kernel sources: compiled once
// per kernel set (runtime/kernel_registry.hpp), each copy defining its
// tables in its set's namespace. gemm.cpp and igemm.cpp dispatch through
// the active set's table.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runtime/gemm.hpp"

namespace wino::runtime {

// Reduction panel: part of the numeric contract (fixed bracketing), sized
// so an A row-panel (MR x Kc floats) plus a B panel slice (Kc x NR) stay
// L1-resident. Nc bounds the packed-B footprint (Kc x Nc = 2 MB fp32).
inline constexpr std::size_t kGemmKc = 256;
inline constexpr std::size_t kGemmNc = 2048;

/// Row-major C = alpha * A * B + beta * C over the full extents (k > 0,
/// alpha != 0; the public sgemm handles the degenerate cases).
using SgemmFn = void (*)(std::size_t m, std::size_t n, std::size_t k,
                         float alpha, const float* a, std::size_t lda,
                         const float* b, std::size_t ldb, float beta,
                         float* c, std::size_t ldc);

struct GemmKernels {
  const char* name;       ///< micro-kernel of `blocked`: avx2/neon/scalar
  GemmBlocking blocking;  ///< MR x NR of `blocked`, Kc, Nc
  /// Unpacked loop for k <= Kc: one local accumulator per element, no
  /// allocation, no threading.
  SgemmFn direct;
  /// Packed, register-tiled walk on the set's widest micro-kernel,
  /// parallel over C row-panels.
  SgemmFn blocked;
  /// The same walk on the portable scalar micro-kernel.
  SgemmFn blocked_scalar;
};

/// The calling thread's packed-B buffer, grown to at least `floats`
/// floats and reused across calls (the hot-loop zero-allocation contract).
/// Defined outside the kernel sources so the buffer and its growth code
/// exist once.
float* gemm_pack_buffer(std::size_t floats);

/// The igemm micro-block walk: C[0..m)[col_begin..col_end) = A * B^T with
/// exact int32 accumulation (see igemm.hpp).
struct IGemmKernels {
  const char* name;  ///< "avx2", "sse2" or "scalar"
  void (*blocked)(std::size_t m, std::size_t k, const std::int8_t* a,
                  std::size_t lda, const std::int8_t* b, std::size_t ldb,
                  std::int32_t* c, std::size_t ldc, std::size_t col_begin,
                  std::size_t col_end);
};

namespace baseline {
extern const GemmKernels kGemmKernels;
extern const IGemmKernels kIGemmKernels;
}  // namespace baseline
namespace avx2 {
extern const GemmKernels kGemmKernels;
extern const IGemmKernels kIGemmKernels;
}  // namespace avx2

}  // namespace wino::runtime
