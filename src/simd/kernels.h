// Internal kernel tables for the SIMD subsystem. Each instruction-set backend
// (scalar, AVX2, AVX-512, NEON) fills one KernelOps; dispatch.cc picks the
// best one the CPU supports at runtime. Library code should include
// simd/simd.h instead of this header.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rpq::simd {

/// One vtable of hot kernels. Every backend must produce results that agree
/// with the scalar reference within 1e-4 relative error; the ADC kernels
/// accumulate in the same chunk order as the scalar path and are therefore
/// bit-identical to it.
struct KernelOps {
  const char* name;  ///< "scalar", "avx2", "avx512", "neon"

  /// || a - b ||^2 over d floats.
  float (*squared_l2)(const float* a, const float* b, size_t d);
  /// <a, b> over d floats.
  float (*dot)(const float* a, const float* b, size_t d);
  /// || a ||^2 over d floats.
  float (*squared_norm)(const float* a, size_t d);

  /// out[i] = || q - base[i*d ..] ||^2 for i in [0, n). Fused row-block
  /// kernel used for ADC lookup-table construction and nearest-centroid
  /// scans (base is n contiguous d-dim rows). For d <= 3 every backend
  /// sums in the scalar reference's order, so results are bit-identical.
  void (*l2_to_many)(const float* q, const float* base, size_t n, size_t d,
                     float* out);

  /// Batched ADC scan over contiguous codes:
  ///   out[i] = sum_j table[j*k + codes[i*code_stride + j]],  j in [0, m).
  void (*adc_batch)(const float* table, size_t m, size_t k,
                    const uint8_t* codes, size_t code_stride, size_t n,
                    float* out);

  /// Batched ADC scan gathering codes by vertex id (beam-search expansion):
  ///   out[i] = sum_j table[j*k + codes[ids[i]*code_stride + j]].
  void (*adc_batch_gather)(const float* table, size_t m, size_t k,
                           const uint8_t* codes, size_t code_stride,
                           const uint32_t* ids, size_t n, float* out);

  /// FastScan (LUT16) scan over transposed 4-bit codes: `packed` holds
  /// n_blocks blocks of 32 codes; each block is m2/2 rows of 32 bytes where
  /// row p, byte i carries code i's nibble for sub-quantizer 2p (low) and
  /// 2p+1 (high). `lut8` is an m2 x 16 uint8 lookup table (m2 even). The
  /// kernel writes raw integer sums
  ///   out[b*32 + i] = sum_j lut8[j*16 + nibble_j(block b, code i)]
  /// as uint16 (callers rescale to float); all integer adds, so every
  /// backend is bit-identical to the scalar reference. m2 <= 256 keeps the
  /// accumulators from overflowing. SIMD backends keep the 16-entry LUT rows
  /// register-resident and score 32 codes per in-register shuffle
  /// (pshufb / vpshufb-512 / tbl).
  void (*adc_fastscan)(const uint8_t* lut8, size_t m2, const uint8_t* packed,
                       size_t n_blocks, uint16_t* out);

  /// Multi-query FastScan: the same blocked code layout scored against `nq`
  /// queries' u8 lookup tables in one pass. `luts8` holds the nq tables
  /// contiguously (query q's m2 x 16 table at luts8 + q*m2*16); the kernel
  /// writes query-major sums, out[q*n_blocks*32 + b*32 + i]. SIMD backends
  /// load each 32-byte block row and extract its nibble indices ONCE, then
  /// shuffle it against every query's LUT while it is register-resident —
  /// the per-code win over nq independent adc_fastscan calls that makes
  /// batched IVF list scans pay. Per-query accumulation is independent
  /// integer adds, so results are bit-identical to nq single-query scans
  /// (and to the scalar reference, which is exactly that loop).
  void (*adc_fastscan_multi)(const uint8_t* luts8, size_t nq, size_t m2,
                             const uint8_t* packed, size_t n_blocks,
                             uint16_t* out);
};

namespace internal {

const KernelOps& ScalarKernels();
#if defined(RPQ_HAVE_AVX2)
const KernelOps& Avx2Kernels();
#endif
#if defined(RPQ_HAVE_AVX512)
const KernelOps& Avx512Kernels();
#endif
#if defined(RPQ_HAVE_NEON)
const KernelOps& NeonKernels();
#endif

}  // namespace internal
}  // namespace rpq::simd
