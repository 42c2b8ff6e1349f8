// The sgemm kernel source: micro-kernels, packing and the direct loop,
// compiled once per kernel set (runtime/kernel_registry.hpp). See gemm.hpp
// for the design and determinism contract. Built with -ffp-contract=off:
// the contract promises one rounding per multiply and per add, and letting
// the compiler fuse mul+add into FMA — in the scalar loops or through the
// vector intrinsics — would break bit-equality between the micro-kernels.
#include <algorithm>

#include "runtime/gemm_kernels.hpp"
#include "runtime/thread_pool.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace wino::runtime::WINO_KERNEL_ISA {
namespace {

// --- Micro-kernels ---------------------------------------------------------
// Contract: acc[i * NR + j] = sum over kk < kc of ap[kk*MR + i] *
// bp[kk*NR + j], accumulated in ascending kk with one rounding per
// multiply and per add. ap/bp are the packed panels (zero-padded edges).
//
// Micro-tile shape per instruction set. MR x NR accumulators must fit the
// register file next to one broadcast and two B vectors: AVX2 has 16 ymm
// registers -> 6 x 16 uses 12 + 3; NEON has 32 q registers -> 8 x 8 uses
// 16 + 3. Only Kc affects numerics (it brackets the reduction); MR/NR are
// free to differ per micro-kernel.

constexpr std::size_t kScalarMr = 4;
constexpr std::size_t kScalarNr = 16;

void micro_scalar(std::size_t kc, const float* ap, const float* bp,
                  float* acc) {
  // One output row at a time: a row's NR accumulators live in vector
  // registers across the whole k loop once the compiler vectorises the j
  // loops (a full MR x NR local array would spill to the stack every
  // iteration). Per-element accumulation order is identical to the SIMD
  // micro-kernels: ascending k, one rounding per multiply and per add.
  constexpr std::size_t kQuarter = kScalarNr / 4;
  for (std::size_t i = 0; i < kScalarMr; ++i) {
    float q0[kQuarter] = {};
    float q1[kQuarter] = {};
    float q2[kQuarter] = {};
    float q3[kQuarter] = {};
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const float ai = ap[kk * kScalarMr + i];
      const float* b = bp + kk * kScalarNr;
      for (std::size_t j = 0; j < kQuarter; ++j) q0[j] += ai * b[j];
      for (std::size_t j = 0; j < kQuarter; ++j) {
        q1[j] += ai * b[kQuarter + j];
      }
      for (std::size_t j = 0; j < kQuarter; ++j) {
        q2[j] += ai * b[2 * kQuarter + j];
      }
      for (std::size_t j = 0; j < kQuarter; ++j) {
        q3[j] += ai * b[3 * kQuarter + j];
      }
    }
    float* row = acc + i * kScalarNr;
    for (std::size_t j = 0; j < kQuarter; ++j) {
      row[j] = q0[j];
      row[kQuarter + j] = q1[j];
      row[2 * kQuarter + j] = q2[j];
      row[3 * kQuarter + j] = q3[j];
    }
  }
}

#if defined(__AVX2__)
constexpr std::size_t kSimdMr = 6;
constexpr std::size_t kSimdNr = 16;
constexpr const char* kSimdName = "avx2";

void micro_simd(std::size_t kc, const float* ap, const float* bp,
                float* acc) {
  __m256 c0[kSimdMr];
  __m256 c1[kSimdMr];
  for (std::size_t i = 0; i < kSimdMr; ++i) {
    c0[i] = _mm256_setzero_ps();
    c1[i] = _mm256_setzero_ps();
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_loadu_ps(bp + kk * kSimdNr);
    const __m256 b1 = _mm256_loadu_ps(bp + kk * kSimdNr + 8);
    const float* a = ap + kk * kSimdMr;
    for (std::size_t i = 0; i < kSimdMr; ++i) {
      // mul + add, not _mm256_fmadd_ps: the extra rounding is the price of
      // bit-equality with the scalar fallback (see gemm.hpp).
      const __m256 ai = _mm256_broadcast_ss(a + i);
      c0[i] = _mm256_add_ps(c0[i], _mm256_mul_ps(ai, b0));
      c1[i] = _mm256_add_ps(c1[i], _mm256_mul_ps(ai, b1));
    }
  }
  for (std::size_t i = 0; i < kSimdMr; ++i) {
    _mm256_storeu_ps(acc + i * kSimdNr, c0[i]);
    _mm256_storeu_ps(acc + i * kSimdNr + 8, c1[i]);
  }
}
#elif defined(__ARM_NEON)
constexpr std::size_t kSimdMr = 8;
constexpr std::size_t kSimdNr = 8;
constexpr const char* kSimdName = "neon";

void micro_simd(std::size_t kc, const float* ap, const float* bp,
                float* acc) {
  float32x4_t c0[kSimdMr];
  float32x4_t c1[kSimdMr];
  for (std::size_t i = 0; i < kSimdMr; ++i) {
    c0[i] = vdupq_n_f32(0.0F);
    c1[i] = vdupq_n_f32(0.0F);
  }
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float32x4_t b0 = vld1q_f32(bp + kk * kSimdNr);
    const float32x4_t b1 = vld1q_f32(bp + kk * kSimdNr + 4);
    const float* a = ap + kk * kSimdMr;
    for (std::size_t i = 0; i < kSimdMr; ++i) {
      // vmul + vadd, not vfmaq: same rounding as the scalar fallback.
      const float32x4_t ai = vdupq_n_f32(a[i]);
      c0[i] = vaddq_f32(c0[i], vmulq_f32(ai, b0));
      c1[i] = vaddq_f32(c1[i], vmulq_f32(ai, b1));
    }
  }
  for (std::size_t i = 0; i < kSimdMr; ++i) {
    vst1q_f32(acc + i * kSimdNr, c0[i]);
    vst1q_f32(acc + i * kSimdNr + 4, c1[i]);
  }
}
#else
constexpr std::size_t kSimdMr = kScalarMr;
constexpr std::size_t kSimdNr = kScalarNr;
constexpr const char* kSimdName = "scalar";
constexpr auto micro_simd = micro_scalar;
#endif

// --- Shared epilogue -------------------------------------------------------
// Identical scalar code for every micro-kernel and the direct path, so the
// only difference between kernels is the (bit-equal) panel accumulation.

inline void store_tile(const float* acc, std::size_t acc_ld, float* c,
                       std::size_t ldc, std::size_t mb, std::size_t nb,
                       float alpha, float beta, bool first_panel) {
  for (std::size_t i = 0; i < mb; ++i) {
    const float* arow = acc + i * acc_ld;
    float* crow = c + i * ldc;
    if (!first_panel) {
      for (std::size_t j = 0; j < nb; ++j) crow[j] += alpha * arow[j];
    } else if (beta == 0.0F) {
      for (std::size_t j = 0; j < nb; ++j) crow[j] = alpha * arow[j];
    } else {
      for (std::size_t j = 0; j < nb; ++j) {
        crow[j] = alpha * arow[j] + beta * crow[j];
      }
    }
  }
}

// --- Small/direct path -----------------------------------------------------
// Requires k <= Kc so the single local accumulation per element is the
// same bracket the blocked path would produce. No packing, no allocation,
// no threading: callers in already-parallel regions hit this for the tiny
// transform-shaped GEMMs.

void sgemm_direct(std::size_t m, std::size_t n, std::size_t k, float alpha,
                  const float* a, std::size_t lda, const float* b,
                  std::size_t ldb, float beta, float* c, std::size_t ldc) {
  constexpr std::size_t kJb = 64;
  float acc[kJb];
  for (std::size_t j0 = 0; j0 < n; j0 += kJb) {
    const std::size_t nb = std::min(kJb, n - j0);
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < nb; ++j) acc[j] = 0.0F;
      const float* arow = a + i * lda;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float ai = arow[kk];
        const float* brow = b + kk * ldb + j0;
        for (std::size_t j = 0; j < nb; ++j) acc[j] += ai * brow[j];
      }
      store_tile(acc, kJb, c + i * ldc + j0, ldc, 1, nb, alpha, beta,
                 /*first_panel=*/true);
    }
  }
}

// --- Blocked path ----------------------------------------------------------

template <std::size_t MR, std::size_t NR,
          void (*Micro)(std::size_t, const float*, const float*, float*)>
void sgemm_blocked(std::size_t m, std::size_t n, std::size_t k, float alpha,
                   const float* a, std::size_t lda, const float* b,
                   std::size_t ldb, float beta, float* c, std::size_t ldc) {
  const std::size_t ir_panels = (m + MR - 1) / MR;
  for (std::size_t jc = 0; jc < n; jc += kGemmNc) {
    const std::size_t nc = std::min(kGemmNc, n - jc);
    const std::size_t jr_panels = (nc + NR - 1) / NR;
    std::size_t panel_index = 0;
    for (std::size_t kb = 0; kb < k; kb += kGemmKc, ++panel_index) {
      const std::size_t kc = std::min(kGemmKc, k - kb);
      // The submitting thread's buffer, taken before the parallel region:
      // pool workers use this pointer, not their own thread's buffer.
      float* bpack = gemm_pack_buffer(jr_panels * kc * NR);
      // Pack B(kb.., jc..) into NR-wide column panels, zero-padding the
      // ragged right edge (padded lanes are computed but never stored).
      // Pure copies, so the parallel split cannot affect values.
      parallel_for(jr_panels, [&](std::size_t pb, std::size_t pe) {
        for (std::size_t p = pb; p < pe; ++p) {
          float* dst = bpack + p * kc * NR;
          const std::size_t j0 = jc + p * NR;
          const std::size_t nb = std::min(NR, n - j0);
          for (std::size_t kk = 0; kk < kc; ++kk) {
            const float* src = b + (kb + kk) * ldb + j0;
            float* row = dst + kk * NR;
            for (std::size_t j = 0; j < nb; ++j) row[j] = src[j];
            for (std::size_t j = nb; j < NR; ++j) row[j] = 0.0F;
          }
        }
      });

      const bool first_panel = panel_index == 0;
      // Row-panels are independent outputs: the thread split varies with
      // the pool size but each panel's arithmetic does not, which is the
      // whole determinism argument.
      parallel_for(ir_panels, [&](std::size_t pb, std::size_t pe) {
        alignas(64) float apack[MR * kGemmKc];
        alignas(64) float acc[MR * NR];
        for (std::size_t p = pb; p < pe; ++p) {
          const std::size_t i0 = p * MR;
          const std::size_t mb = std::min(MR, m - i0);
          // Pack the A row-panel k-major (zero-padding short panels) so
          // the micro-kernel broadcasts walk contiguous memory.
          for (std::size_t kk = 0; kk < kc; ++kk) {
            float* dst = apack + kk * MR;
            for (std::size_t i = 0; i < mb; ++i) {
              dst[i] = a[(i0 + i) * lda + kb + kk];
            }
            for (std::size_t i = mb; i < MR; ++i) dst[i] = 0.0F;
          }
          for (std::size_t q = 0; q < jr_panels; ++q) {
            Micro(kc, apack, bpack + q * kc * NR, acc);
            const std::size_t j0 = jc + q * NR;
            const std::size_t nb = std::min(NR, n - j0);
            store_tile(acc, NR, c + i0 * ldc + j0, ldc, mb, nb, alpha, beta,
                       first_panel);
          }
        }
      });
    }
  }
}

}  // namespace

extern const GemmKernels kGemmKernels{
    .name = kSimdName,
    .blocking = {kSimdMr, kSimdNr, kGemmKc, kGemmNc},
    .direct = sgemm_direct,
    .blocked = sgemm_blocked<kSimdMr, kSimdNr, micro_simd>,
    .blocked_scalar = sgemm_blocked<kScalarMr, kScalarNr, micro_scalar>,
};

}  // namespace wino::runtime::WINO_KERNEL_ISA
