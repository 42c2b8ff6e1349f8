// One registry of instruction-set kernel sets, chosen at run time.
//
// The ISA-sensitive hot loops — the sgemm micro-kernel and packing, the
// igemm micro-block walk, the fp32 and int8 Winograd tile walks with their
// lane transforms, int8 quantize and patch gather — are written once, in
// the kernel sources CMakeLists.txt lists as WINO_KERNEL_SOURCES, and
// compiled once per kernel set: at the baseline the whole library is built
// for, and on x86-64 once more with -mavx2. Each compiled copy lives in the
// namespace its set names (baseline::, avx2::) and exports one table of
// entry points per module; the module's public functions call through the
// table of the active set.
//
// The active set is the highest one the host runs, probed once with cpuid
// (__builtin_cpu_supports) the first time a kernel is dispatched.
//
// Bit-identity: no set enables FMA and every kernel source is built with
// -ffp-contract=off, so every set performs the same IEEE operations in the
// same order per element — only the vector width differs. Switching sets
// never changes an output bit (the tests run every set the host supports
// and memcmp them against each other and the references).
#pragma once

#include <atomic>
#include <cstddef>
#include <span>

namespace wino::runtime {

/// Instruction-set level a kernel set is compiled for; indexes the
/// per-module kernel tables.
enum class KernelIsa : unsigned char {
  kBaseline = 0,  ///< the build's own target (SSE2 on x86-64)
  kAvx2 = 1,      ///< -mavx2 (no FMA), x86-64 only
};

/// One compiled kernel set.
struct KernelSet {
  KernelIsa isa;
  const char* name;  ///< "baseline" or "avx2"
};

/// Every kernel set compiled into this build that the host can run, lowest
/// first; the last one is dispatched unless a ScopedKernelSet pins another.
[[nodiscard]] std::span<const KernelSet> kernel_sets();

namespace detail {
extern std::atomic<const KernelSet*> active_set;
const KernelSet& probe_kernel_set();
}  // namespace detail

/// The set every dispatched kernel call runs.
[[nodiscard]] inline const KernelSet& active_kernel_set() {
  const KernelSet* set = detail::active_set.load();
  return set != nullptr ? *set : detail::probe_kernel_set();
}

/// Pins the active set for the object's lifetime and restores the previous
/// one on destruction — how the tests run each set of kernel_sets(). The
/// set applies process-wide (pool workers read it too), so construct and
/// destroy it only while no kernel is running.
class ScopedKernelSet {
 public:
  /// Throws std::invalid_argument if `set` is not in kernel_sets().
  explicit ScopedKernelSet(const KernelSet& set);
  ~ScopedKernelSet();

  ScopedKernelSet(const ScopedKernelSet&) = delete;
  ScopedKernelSet& operator=(const ScopedKernelSet&) = delete;

 private:
  const KernelSet* previous_;
};

/// The active set's entry of a module's kernel table, which lists one
/// table per compiled set in KernelIsa order (see WINO_KERNEL_TABLES).
template <class Table, std::size_t N>
[[nodiscard]] const Table& active_table(const Table* const (&tables)[N]) {
  return *tables[static_cast<std::size_t>(active_kernel_set().isa)];
}

}  // namespace wino::runtime

// A module's per-set tables in KernelIsa order, for active_table: `table`
// names the object each kernel source defines in its set's namespace.
// WINO_KERNELS_AVX2 is defined by the build when the avx2 set is compiled.
#if defined(WINO_KERNELS_AVX2)
#define WINO_KERNEL_TABLES(table) {&baseline::table, &avx2::table}
#else
#define WINO_KERNEL_TABLES(table) {&baseline::table}
#endif
