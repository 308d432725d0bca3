// Runtime CPU dispatch for the kernel subsystem. Resolution happens once, on
// first use, from the CPU alone. RPQ_SIMD=<name> is the one override: it
// requests a specific backend and is silently ignored when the CPU or the
// build lacks it. A requested backend and the automatic choice of the same
// backend run the same kernels.
#include <cstdlib>
#include <cstring>

#include "simd/simd.h"

namespace rpq::simd {
namespace {

// __builtin_cpu_supports requires a literal argument, hence one tiny helper
// per feature instead of a parameterized one.
#if defined(__x86_64__) || defined(__i386__)
bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }
bool CpuHasAvx512f() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool CpuHasAvx2() { return false; }
bool CpuHasAvx512f() { return false; }
#endif

const KernelOps* PickByName(const char* name) {
  if (std::strcmp(name, "scalar") == 0) return &internal::ScalarKernels();
#if defined(RPQ_HAVE_AVX512)
  if (std::strcmp(name, "avx512") == 0 && CpuHasAvx512f()) {
    return &internal::Avx512Kernels();
  }
#endif
#if defined(RPQ_HAVE_AVX2)
  if (std::strcmp(name, "avx2") == 0 && CpuHasAvx2()) {
    return &internal::Avx2Kernels();
  }
#endif
#if defined(RPQ_HAVE_NEON)
  if (std::strcmp(name, "neon") == 0) return &internal::NeonKernels();
#endif
  return nullptr;
}

const KernelOps& Resolve() {
  if (const char* force = std::getenv("RPQ_SIMD")) {
    if (const KernelOps* ops = PickByName(force)) return *ops;
  }
#if defined(RPQ_HAVE_AVX512)
  if (CpuHasAvx512f()) return internal::Avx512Kernels();
#endif
#if defined(RPQ_HAVE_AVX2)
  if (CpuHasAvx2()) return internal::Avx2Kernels();
#endif
#if defined(RPQ_HAVE_NEON)
  return internal::NeonKernels();
#endif
  return internal::ScalarKernels();
}

}  // namespace

const KernelOps& Ops() {
  static const KernelOps ops = Resolve();
  return ops;
}

const KernelOps& ScalarOps() { return internal::ScalarKernels(); }

const char* ActiveKernelName() { return Ops().name; }

}  // namespace rpq::simd
