// Runtime CPU dispatch for the kernel subsystem. Resolution happens once, on
// first use, and honors two environment knobs:
//   RPQ_DISABLE_SIMD=1   force the scalar reference kernels
//   RPQ_SIMD=<name>      request a specific backend (silently downgraded when
//                        the CPU or the build lacks it)
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "simd/simd.h"

namespace rpq::simd {
namespace {

// How fast one adc_batch implementation chews through a synthetic workload
// (m = 16, K = 256 — the paper's default regime): best-of-3 wall time.
double TimeAdcKernel(decltype(KernelOps::adc_batch) kernel) {
  constexpr size_t kM = 16, kK = 256, kN = 256, kReps = 8;
  std::vector<float> table(kM * kK);
  for (size_t i = 0; i < table.size(); ++i) {
    table[i] = static_cast<float>(i % 97) * 0.25f;
  }
  std::vector<uint8_t> codes(kN * kM);
  for (size_t i = 0; i < codes.size(); ++i) {
    codes[i] = static_cast<uint8_t>((i * 131) & 0xff);
  }
  std::vector<float> out(kN);
  volatile float sink = 0.f;
  double best = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < kReps; ++r) {
      kernel(table.data(), kM, kK, codes.data(), kM, kN, out.data());
      sink = out[0];
    }
    std::chrono::duration<double> dt = std::chrono::steady_clock::now() - start;
    best = std::min(best, dt.count());
  }
  (void)sink;
  return best;
}

// Hardware gathers (vpgatherdps) range from great to microcoded-slow across
// x86 generations, so rather than guessing from CPUID, race the backend's
// gather-based ADC kernels against the unrolled scalar ones once at startup
// and keep the winner. Both accumulate in identical order, so the choice
// never changes results. The FastScan shuffle kernels (which also score the
// K = 256 split tables, at twice the rows) are deliberately NOT calibrated:
// pshufb/tbl are single-uop fast on every generation that has them, so the
// vector implementations always stay.
KernelOps CalibrateAdc(KernelOps ops) {
  const KernelOps& scalar = internal::ScalarKernels();
  if (ops.adc_batch == scalar.adc_batch) return ops;
  if (TimeAdcKernel(scalar.adc_batch) < TimeAdcKernel(ops.adc_batch)) {
    ops.adc_batch = scalar.adc_batch;
    ops.adc_batch_gather = scalar.adc_batch_gather;
    // Reflect the swap in the reported name so benchmarks/debugging don't
    // attribute scalar ADC numbers to the vector backend.
    if (std::strcmp(ops.name, "avx2") == 0) ops.name = "avx2+scalar-adc";
    if (std::strcmp(ops.name, "avx512") == 0) ops.name = "avx512+scalar-adc";
  }
  return ops;
}

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

struct Choice {
  const KernelOps* ops;
  bool pinned;  ///< explicitly requested via env — no calibration overrides
};

Choice Resolve() {
  const char* disable = std::getenv("RPQ_DISABLE_SIMD");
  if (disable != nullptr && disable[0] != '\0' && disable[0] != '0') {
    return {&internal::ScalarKernels(), true};
  }
  if (const char* force = std::getenv("RPQ_SIMD")) {
    if (const KernelOps* ops = PickByName(force)) return {ops, true};
  }
#if defined(RPQ_HAVE_AVX512)
  if (CpuHasAvx512f()) return {&internal::Avx512Kernels(), false};
#endif
#if defined(RPQ_HAVE_AVX2)
  if (CpuHasAvx2()) return {&internal::Avx2Kernels(), false};
#endif
#if defined(RPQ_HAVE_NEON)
  return {&internal::NeonKernels(), false};
#endif
  return {&internal::ScalarKernels(), false};
}

}  // namespace

const KernelOps& Ops() {
  // A backend pinned through the environment is used exactly as built (so
  // RPQ_SIMD=avx2 really exercises the AVX2 gather kernels); only the
  // automatic choice gets the ADC calibration pass.
  static const KernelOps ops = [] {
    Choice c = Resolve();
    return c.pinned ? *c.ops : CalibrateAdc(*c.ops);
  }();
  return ops;
}

const KernelOps& ScalarOps() { return internal::ScalarKernels(); }

const char* ActiveKernelName() { return Ops().name; }

}  // namespace rpq::simd
