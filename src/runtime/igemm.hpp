// Int8 GEMM core for the quantized inference path.
//
// Computes C (int32, m x n) = A (int8, m x k) * B^T (int8, n x k): both
// operands are laid out K-contiguous (a dot-product / "NT" formulation).
// The quantized im2col path stores the weight matrix as [k_out][C*r*r]
// and the quantized patch panel as [pixels][C*r*r], so every output
// element is a contiguous int8 dot product — the friendliest shape for
// widening-multiply SIMD.
//
// The kernel is register-blocked: one micro-kernel computes a 4 x 2 block
// of C, sign-extending each 16-byte (AVX2) or 8-byte (SSE2) chunk of an A
// row or B column once and reusing it across the block, and reducing each
// output horizontally once. Ragged m and n run narrower instantiations;
// a ragged k tail runs the same path on zero-filled chunks. The block is
// written once over per-ISA widen / multiply-add / reduce primitives.
//
// Determinism contract (pinned by tests/runtime_igemm_test.cpp):
//  * Accumulation is exact: |a*b| <= 127*127 = 16129, so any k up to
//    kMaxInner products fits an int32 accumulator with no overflow and
//    therefore no rounding — accumulation ORDER cannot matter. SIMD vs
//    scalar and any thread count are bit-identical by construction, a
//    strictly stronger guarantee than the fp32 sgemm's ordered-rounding
//    contract.
//  * Threads only ever split independent output columns, never the K
//    reduction (the split would still be exact; keeping the rule mirrors
//    the fp32 GEMM and keeps TSan's picture simple).
//  * The SIMD kernels sign-extend both operands to int16 and use pmaddwd
//    (multiply-add-pairs into int32). The obvious one-instruction-shorter
//    vpmaddubsw path is deliberately NOT used: it saturates its pairwise
//    int16 sum (worst case 255*127 + 255*127 = 64770 > 32767), which
//    would silently clamp large products and break bit-identity with the
//    widening scalar reference. pmaddwd's pairwise int32 sum cannot
//    overflow (2 * 16129 << 2^31) and is exact.
#pragma once

#include <cstddef>
#include <cstdint>

namespace wino::runtime {

/// Micro-kernel selection for igemm_nt. kAuto runs the register-blocked
/// kernel of the active kernel set (runtime/kernel_registry.hpp: AVX2 on
/// x86-64 hosts that have it, else SSE2 on x86-64, portable integers
/// elsewhere); kScalar forces one widening dot product per output, the
/// oracle form. Both are bit-identical — integer accumulation is exact —
/// so the switch exists for benchmarking and for pinning that equivalence.
enum class IGemmKernel {
  kAuto,
  kScalar,
};

/// Largest supported reduction depth: 127 * 127 * kMaxInner must stay
/// below 2^31 so the int32 accumulator can never wrap. Far above any
/// im2col inner dimension this runtime produces (C*r*r <= 512*9 = 4608).
inline constexpr std::size_t kMaxInner = 130000;

/// \brief C = A * B^T with int8 operands and exact int32 accumulation.
///
/// Overwrites C. Parallelises over output columns on the global
/// ThreadPool; safe to call from inside a parallel_for body (runs
/// inline). Throws std::invalid_argument if k > kMaxInner.
///
/// \param m,n,k  extents: A is m x k, B is n x k (both K-contiguous),
///               C is m x n row-major.
/// \param a,lda  int8 A and its row stride in elements (lda >= k).
/// \param b,ldb  int8 B and its row stride in elements (ldb >= k); row j
///               of B holds output column j's reduction operand.
/// \param c,ldc  int32 C and its row stride in elements (ldc >= n).
/// \param kernel micro-kernel override; kAuto and kScalar are
///               bit-identical (exact integer accumulation).
void igemm_nt(std::size_t m, std::size_t n, std::size_t k,
              const std::int8_t* a, std::size_t lda, const std::int8_t* b,
              std::size_t ldb, std::int32_t* c, std::size_t ldc,
              IGemmKernel kernel = IGemmKernel::kAuto);

/// Single-threaded naive widening reference (int8 -> int32 per product,
/// ascending-k accumulation). The correctness oracle for igemm_nt: exact
/// integer arithmetic makes the two bit-identical for every shape.
void igemm_nt_ref(std::size_t m, std::size_t n, std::size_t k,
                  const std::int8_t* a, std::size_t lda, const std::int8_t* b,
                  std::size_t ldb, std::int32_t* c, std::size_t ldc);

/// Name of the micro-kernel kAuto dispatches to on the active kernel set:
/// "avx2", "sse2" or "scalar".
const char* igemm_kernel_name();

}  // namespace wino::runtime
