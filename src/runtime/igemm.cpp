#include "runtime/igemm.hpp"

#include <cstring>
#include <stdexcept>

#include "runtime/thread_pool.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#define WINO_IGEMM_AVX2 1
#elif defined(__SSE2__) || defined(__x86_64__) || defined(_M_X64)
#include <emmintrin.h>
#define WINO_IGEMM_SSE2 1
#endif

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

// The three primitives the blocked micro-kernel is written over, one set
// per compile-time instruction set: `widen` sign-extends kStep int8 lanes
// to int16, `madd` adds the pairwise int32 sums of two widened chunks into
// an accumulator (pmaddwd: exact, 2 * 127 * 127 << 2^31), and `hsum`
// reduces an accumulator to one int32.
#if defined(WINO_IGEMM_AVX2)

using Wide = __m256i;
using Acc = __m256i;
constexpr std::size_t kStep = 16;

inline Wide widen(const std::int8_t* p) {
  return _mm256_cvtepi8_epi16(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}
inline Acc zero_acc() { return _mm256_setzero_si256(); }
inline Acc madd(Acc acc, Wide a, Wide b) {
  return _mm256_add_epi32(acc, _mm256_madd_epi16(a, b));
}
inline std::int32_t hsum(Acc acc) {
  __m128i sum = _mm_add_epi32(_mm256_castsi256_si128(acc),
                              _mm256_extracti128_si256(acc, 1));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(1, 0, 3, 2)));
  sum = _mm_add_epi32(sum, _mm_shuffle_epi32(sum, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(sum);
}

const char* const kKernelName = "avx2";

#elif defined(WINO_IGEMM_SSE2)

// SSE2 has no byte sign-extension instruction: interleave 8 bytes with
// themselves and arithmetic-shift each 16-bit lane right by 8. Eight-byte
// steps keep the 4 x 2 block's six widened operands and eight
// accumulators inside the sixteen xmm registers.
using Wide = __m128i;
using Acc = __m128i;
constexpr std::size_t kStep = 8;

inline Wide widen(const std::int8_t* p) {
  const __m128i v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
}
inline Acc zero_acc() { return _mm_setzero_si128(); }
inline Acc madd(Acc acc, Wide a, Wide b) {
  return _mm_add_epi32(acc, _mm_madd_epi16(a, b));
}
inline std::int32_t hsum(Acc acc) {
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(1, 0, 3, 2)));
  acc = _mm_add_epi32(acc, _mm_shuffle_epi32(acc, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(acc);
}

const char* const kKernelName = "sse2";

#else

using Wide = std::int32_t;
using Acc = std::int32_t;
constexpr std::size_t kStep = 1;

inline Wide widen(const std::int8_t* p) { return *p; }
inline Acc zero_acc() { return 0; }
inline Acc madd(Acc acc, Wide a, Wide b) { return acc + a * b; }
inline std::int32_t hsum(Acc acc) { return acc; }

const char* const kKernelName = "scalar";

#endif

// Register block of C computed by one micro-kernel call.
constexpr std::size_t kBlockRows = 4;
constexpr std::size_t kBlockCols = 2;

// C[0..MR)[0..NR) = A[0..MR) . B[0..NR) over k. Each kStep chunk of an A
// row or B column is widened once and reused across the whole block; each
// output takes one horizontal reduction. A ragged k tail is copied into
// zero-filled chunks (0 * x adds nothing), so it runs the same widen/madd
// path. Ragged m and n instantiate smaller blocks (MR or NR = 1).
template <std::size_t MR, std::size_t NR>
void micro_block(std::size_t k, const std::int8_t* a, std::size_t lda,
                 const std::int8_t* b, std::size_t ldb, std::int32_t* c,
                 std::size_t ldc) {
  Acc acc[MR][NR];
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) acc[i][j] = zero_acc();
  }
  const auto step = [&](const std::int8_t* const* ap,
                        const std::int8_t* const* bp) {
    Wide wb[NR];
    for (std::size_t j = 0; j < NR; ++j) wb[j] = widen(bp[j]);
    for (std::size_t i = 0; i < MR; ++i) {
      const Wide wa = widen(ap[i]);
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] = madd(acc[i][j], wa, wb[j]);
    }
  };
  const std::int8_t* ap[MR];
  const std::int8_t* bp[NR];
  std::size_t p = 0;
  for (; p + kStep <= k; p += kStep) {
    for (std::size_t i = 0; i < MR; ++i) ap[i] = a + i * lda + p;
    for (std::size_t j = 0; j < NR; ++j) bp[j] = b + j * ldb + p;
    step(ap, bp);
  }
  if (const std::size_t rem = k - p; rem > 0) {
    std::int8_t at[MR][kStep] = {};
    std::int8_t bt[NR][kStep] = {};
    for (std::size_t i = 0; i < MR; ++i) {
      std::memcpy(at[i], a + i * lda + p, rem);
      ap[i] = at[i];
    }
    for (std::size_t j = 0; j < NR; ++j) {
      std::memcpy(bt[j], b + j * ldb + p, rem);
      bp[j] = bt[j];
    }
    step(ap, bp);
  }
  for (std::size_t i = 0; i < MR; ++i) {
    for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] = hsum(acc[i][j]);
  }
}

// Blocked walk over C[0..m)[col_begin..col_end): 4-row panels of A stay
// hot in L1 while the 2-column blocks of B stream past; ragged rows and
// columns fall to the narrower instantiations.
template <std::size_t MR>
void block_rows(std::size_t k, const std::int8_t* a, std::size_t lda,
                const std::int8_t* b, std::size_t ldb, std::int32_t* c,
                std::size_t ldc, std::size_t col_begin, std::size_t col_end) {
  std::size_t j = col_begin;
  for (; j + kBlockCols <= col_end; j += kBlockCols) {
    micro_block<MR, kBlockCols>(k, a, lda, b + j * ldb, ldb, c + j, ldc);
  }
  if (j < col_end) micro_block<MR, 1>(k, a, lda, b + j * ldb, ldb, c + j, ldc);
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
    std::size_t i = 0;
    for (; i + kBlockRows <= m; i += kBlockRows) {
      block_rows<kBlockRows>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc,
                             col_begin, col_end);
    }
    for (; i < m; ++i) {
      block_rows<1>(k, a + i * lda, lda, b, ldb, c + i * ldc, ldc, col_begin,
                    col_end);
    }
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

const char* igemm_kernel_name() { return kKernelName; }

}  // namespace wino::runtime
