#include "runtime/igemm.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "runtime/kernel_registry.hpp"
#include "runtime/thread_pool.hpp"
#include "test_support.hpp"

namespace wino::runtime {
namespace {

using common::Rng;
using test::for_each_kernel_set;

/// Deterministic int8 fill covering the full [-127, 127] range (and a few
/// -128s, which the GEMM must handle even though the quantizer never emits
/// them).
void fill_int8(std::vector<std::int8_t>& v, Rng& rng) {
  for (std::int8_t& x : v) {
    x = static_cast<std::int8_t>(
        static_cast<int>(rng.uniform(-128.0F, 128.0F)));
  }
}

TEST(IGemm, MatchesReferenceExhaustively) {
  for_each_kernel_set([&] {
    // Every (m, n, k) combination memcmp'd against the widening scalar
    // reference, packed and with padded strides (lda/ldb > k, ldc > n). The
    // extents straddle the 4 x 2 register block (m, n not multiples of it)
    // and the SIMD chunk (k on both sides of 8 and 16, plus the quick VGG's
    // im2col depths 72..576), so every ragged edge of the micro-kernel runs.
    // Exact integer accumulation makes bitwise equality the right oracle —
    // any mismatch is a kernel bug, not a rounding difference.
    Rng rng(42);
    for (const std::size_t pad : {0U, 5U}) {
      for (const std::size_t m : {1U, 2U, 3U, 4U, 5U, 7U, 8U, 9U, 13U}) {
        for (const std::size_t n : {1U, 2U, 3U, 7U, 16U, 33U}) {
          for (const std::size_t k : {1U, 2U, 3U, 7U, 8U, 9U, 15U, 16U, 17U,
                                      31U, 32U, 33U, 72U, 100U, 144U, 576U}) {
            const std::size_t lda = k + pad;
            const std::size_t ldb = k + 2 * pad;
            const std::size_t ldc = n + pad;
            std::vector<std::int8_t> a(m * lda);
            std::vector<std::int8_t> b(n * ldb);
            fill_int8(a, rng);
            fill_int8(b, rng);
            std::vector<std::int32_t> c(m * ldc, -1);
            std::vector<std::int32_t> ref(m * ldc, -1);
            igemm_nt(m, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc);
            igemm_nt_ref(m, n, k, a.data(), lda, b.data(), ldb, ref.data(),
                         ldc);
            ASSERT_EQ(0, std::memcmp(c.data(), ref.data(),
                                     c.size() * sizeof(std::int32_t)))
                << "m=" << m << " n=" << n << " k=" << k << " pad=" << pad;
          }
        }
      }
    }
  });
}

TEST(IGemm, ScalarKernelBitIdenticalToAuto) {
  for_each_kernel_set([&] {
    Rng rng(7);
    const std::size_t m = 9;
    const std::size_t n = 29;
    const std::size_t k = 77;
    std::vector<std::int8_t> a(m * k);
    std::vector<std::int8_t> b(n * k);
    fill_int8(a, rng);
    fill_int8(b, rng);
    std::vector<std::int32_t> c_auto(m * n);
    std::vector<std::int32_t> c_scalar(m * n);
    igemm_nt(m, n, k, a.data(), k, b.data(), k, c_auto.data(), n,
             IGemmKernel::kAuto);
    igemm_nt(m, n, k, a.data(), k, b.data(), k, c_scalar.data(), n,
             IGemmKernel::kScalar);
    EXPECT_EQ(0, std::memcmp(c_auto.data(), c_scalar.data(),
                             c_auto.size() * sizeof(std::int32_t)));
  });
}

TEST(IGemm, ExtremeOperandsExact) {
  for_each_kernel_set([&] {
    // All-(+/-127) operands at a deep K: the largest magnitudes the
    // symmetric quantizer produces, accumulated without wrap.
    const std::size_t k = 4608;  // 512 channels * 3 * 3, the realistic max
    std::vector<std::int8_t> a(k, 127);
    std::vector<std::int8_t> b(k, -127);
    std::int32_t c = 0;
    igemm_nt(1, 1, k, a.data(), k, b.data(), k, &c, 1);
    EXPECT_EQ(c, -127 * 127 * static_cast<std::int32_t>(k));
  });
}

TEST(IGemm, BitIdenticalAcrossThreadCounts) {
  for_each_kernel_set([&] {
    // Odd column counts at 2, 3 and 7 threads start chunks at odd columns,
    // splitting 2-column register blocks; 15 rows leave a ragged row block.
    Rng rng(11);
    for (const std::size_t n : {9U, 201U}) {
      const std::size_t m = 15;
      const std::size_t k = 65;
      std::vector<std::int8_t> a(m * k);
      std::vector<std::int8_t> b(n * k);
      fill_int8(a, rng);
      fill_int8(b, rng);
      std::vector<std::int32_t> ref(m * n);
      igemm_nt_ref(m, n, k, a.data(), k, b.data(), k, ref.data(), n);
      for (const std::size_t threads : {1U, 2U, 3U, 7U}) {
        ThreadPool::set_global_threads(threads);
        std::vector<std::int32_t> got(m * n, 0);
        igemm_nt(m, n, k, a.data(), k, b.data(), k, got.data(), n);
        EXPECT_EQ(0, std::memcmp(ref.data(), got.data(),
                                 ref.size() * sizeof(std::int32_t)))
            << "n=" << n << " threads=" << threads;
      }
    }
    ThreadPool::set_global_threads(4);  // restore the suite's usual size
  });
}

TEST(IGemm, StridedOperands) {
  for_each_kernel_set([&] {
    // lda/ldb/ldc larger than the logical extents (panels carved from wider
    // buffers) must address identically to the packed case.
    Rng rng(23);
    const std::size_t m = 3;
    const std::size_t n = 5;
    const std::size_t k = 10;
    const std::size_t lda = 13;
    const std::size_t ldb = 17;
    const std::size_t ldc = 8;
    std::vector<std::int8_t> a(m * lda);
    std::vector<std::int8_t> b(n * ldb);
    fill_int8(a, rng);
    fill_int8(b, rng);
    std::vector<std::int32_t> c(m * ldc, 99);
    std::vector<std::int32_t> ref(m * ldc, 99);
    igemm_nt(m, n, k, a.data(), lda, b.data(), ldb, c.data(), ldc);
    igemm_nt_ref(m, n, k, a.data(), lda, b.data(), ldb, ref.data(), ldc);
    EXPECT_EQ(0, std::memcmp(c.data(), ref.data(),
                             c.size() * sizeof(std::int32_t)));
    // Elements past column n in each row are untouched.
    EXPECT_EQ(c[n], 99);
  });
}

TEST(IGemm, RejectsOverdeepReduction) {
  const std::size_t k = kMaxInner + 1;
  std::vector<std::int8_t> a(k, 1);
  std::vector<std::int8_t> b(k, 1);
  std::int32_t c = 0;
  EXPECT_THROW(igemm_nt(1, 1, k, a.data(), k, b.data(), k, &c, 1),
               std::invalid_argument);
}

TEST(IGemm, EmptyExtentsAreNoOps) {
  std::int32_t sentinel = 123;
  igemm_nt(0, 0, 0, nullptr, 0, nullptr, 0, &sentinel, 1);
  EXPECT_EQ(sentinel, 123);
}

TEST(IGemm, KernelNameIsKnown) {
  for_each_kernel_set([&] {
    const std::string name = igemm_kernel_name();
    if (active_kernel_set().isa == KernelIsa::kAvx2) {
      EXPECT_EQ(name, "avx2");
    } else {
      EXPECT_TRUE(name == "sse2" || name == "scalar") << name;
    }
  });
}

}  // namespace
}  // namespace wino::runtime
