#include "runtime/kernel_registry.hpp"

#include <stdexcept>
#include <string>

namespace wino::runtime {
namespace {

// The sets this build compiles, lowest first. A host runs a prefix of
// them: every x86-64 host runs the baseline.
constexpr KernelSet kCompiled[] = {
    {KernelIsa::kBaseline, "baseline"},
#if defined(WINO_KERNELS_AVX2)
    {KernelIsa::kAvx2, "avx2"},
#endif
};

// __builtin_cpu_supports also checks that the OS saves the ymm state
// (XCR0), so "avx2" means runnable here, not merely present.
std::size_t probe_host_sets() {
#if defined(WINO_KERNELS_AVX2)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return 2;
#endif
  return 1;
}

}  // namespace

namespace detail {

std::atomic<const KernelSet*> active_set{nullptr};

const KernelSet& probe_kernel_set() {
  static const bool probed = [] {
    const KernelSet* unset = nullptr;
    active_set.compare_exchange_strong(unset, &kernel_sets().back());
    return true;
  }();
  (void)probed;
  return *active_set.load();
}

}  // namespace detail

std::span<const KernelSet> kernel_sets() {
  static const std::size_t count = probe_host_sets();
  return std::span(kCompiled).first(count);
}

ScopedKernelSet::ScopedKernelSet(const KernelSet& set)
    : previous_(&active_kernel_set()) {
  for (const KernelSet& host : kernel_sets()) {
    if (host.isa == set.isa) {
      detail::active_set.store(&host);
      return;
    }
  }
  throw std::invalid_argument(std::string("ScopedKernelSet: kernel set '") +
                              set.name + "' does not run on this host");
}

ScopedKernelSet::~ScopedKernelSet() { detail::active_set.store(previous_); }

}  // namespace wino::runtime
