// Public entry point of the SIMD kernel subsystem.
//
// All hot per-element math in the library funnels through the function
// pointers returned by Ops(). The backend is chosen once, at first use:
//   1. RPQ_DISABLE_SIMD=1 in the environment forces the scalar reference path.
//   2. RPQ_SIMD=scalar|avx2|avx512|neon requests a specific backend (ignored
//      when the CPU or build does not support it).
//   3. Otherwise the best backend the CPU supports wins (avx512 > avx2 > neon
//      > scalar).
// ScalarOps() is always the portable reference implementation, kept around so
// tests and benchmarks can compare against it.
#pragma once

#include "simd/kernels.h"

namespace rpq::simd {

/// Runtime-dispatched kernel set (resolved once, thread-safe).
const KernelOps& Ops();

/// Portable scalar reference kernels.
const KernelOps& ScalarOps();

/// Name of the active backend ("scalar", "avx2", ...).
const char* ActiveKernelName();

inline float SquaredL2(const float* a, const float* b, size_t d) {
  return Ops().squared_l2(a, b, d);
}

inline float Dot(const float* a, const float* b, size_t d) {
  return Ops().dot(a, b, d);
}

inline float SquaredNorm(const float* a, size_t d) {
  return Ops().squared_norm(a, d);
}

/// out[i] = || q - base[i*d ..] ||^2 for i in [0, n).
inline void L2ToMany(const float* q, const float* base, size_t n, size_t d,
                     float* out) {
  Ops().l2_to_many(q, base, n, d, out);
}

/// Batched ADC scan over contiguous codes (stride between codes in bytes).
inline void AdcBatch(const float* table, size_t m, size_t k,
                     const uint8_t* codes, size_t code_stride, size_t n,
                     float* out) {
  Ops().adc_batch(table, m, k, codes, code_stride, n, out);
}

/// Batched ADC scan over codes addressed by vertex id.
inline void AdcBatchGather(const float* table, size_t m, size_t k,
                           const uint8_t* codes, size_t code_stride,
                           const uint32_t* ids, size_t n, float* out) {
  Ops().adc_batch_gather(table, m, k, codes, code_stride, ids, n, out);
}

/// FastScan scan over n_blocks 32-code blocks of transposed 4-bit codes:
/// raw uint16 LUT sums, bit-identical across backends (see kernels.h and
/// quant/fastscan.h for the layout and the float rescaling).
inline void AdcFastScan(const uint8_t* lut8, size_t m2, const uint8_t* packed,
                        size_t n_blocks, uint16_t* out) {
  Ops().adc_fastscan(lut8, m2, packed, n_blocks, out);
}

/// Multi-query FastScan: scores the same packed blocks against nq queries'
/// u8 LUTs (contiguous, m2*16 bytes each) while each block row is
/// register-resident; out is query-major (nq x n_blocks*32 u16 sums),
/// bit-identical to nq single-query AdcFastScan calls.
inline void AdcFastScanMulti(const uint8_t* luts8, size_t nq, size_t m2,
                             const uint8_t* packed, size_t n_blocks,
                             uint16_t* out) {
  Ops().adc_fastscan_multi(luts8, nq, m2, packed, n_blocks, out);
}

}  // namespace rpq::simd
