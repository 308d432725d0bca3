// Portable scalar reference kernels. Every SIMD backend is validated against
// these in tests/simd_kernel_test.cc. The ADC kernels accumulate chunk-by-
// chunk in index order so vector backends can match them bit-for-bit.
#include "simd/kernels.h"

#include <cstring>

namespace rpq::simd {
namespace {

float SquaredL2Scalar(const float* a, const float* b, size_t d) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    float d0 = a[i] - b[i];
    float d1 = a[i + 1] - b[i + 1];
    float d2 = a[i + 2] - b[i + 2];
    float d3 = a[i + 3] - b[i + 3];
    acc0 += d0 * d0;
    acc1 += d1 * d1;
    acc2 += d2 * d2;
    acc3 += d3 * d3;
  }
  float acc = acc0 + acc1 + acc2 + acc3;
  for (; i < d; ++i) {
    float diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

float DotScalar(const float* a, const float* b, size_t d) {
  float acc0 = 0.f, acc1 = 0.f, acc2 = 0.f, acc3 = 0.f;
  size_t i = 0;
  for (; i + 4 <= d; i += 4) {
    acc0 += a[i] * b[i];
    acc1 += a[i + 1] * b[i + 1];
    acc2 += a[i + 2] * b[i + 2];
    acc3 += a[i + 3] * b[i + 3];
  }
  float acc = acc0 + acc1 + acc2 + acc3;
  for (; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

float SquaredNormScalar(const float* a, size_t d) { return DotScalar(a, a, d); }

void L2ToManyScalar(const float* q, const float* base, size_t n, size_t d,
                    float* out) {
  for (size_t i = 0; i < n; ++i) out[i] = SquaredL2Scalar(q, base + i * d, d);
}

// One code, m table reads + adds in chunk order.
inline float AdcOne(const float* table, size_t m, size_t k,
                    const uint8_t* code) {
  float acc = 0.f;
  const float* t = table;
  for (size_t j = 0; j < m; ++j, t += k) acc += t[code[j]];
  return acc;
}

// Four independent accumulator chains hide the add latency that dominates
// the naive per-code loop; each chain still sums in chunk order.
template <typename GetPtr>
void AdcBatchImpl(const float* table, size_t m, size_t k, GetPtr ptr, size_t n,
                  float* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint8_t* c0 = ptr(i);
    const uint8_t* c1 = ptr(i + 1);
    const uint8_t* c2 = ptr(i + 2);
    const uint8_t* c3 = ptr(i + 3);
    float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
    const float* t = table;
    for (size_t j = 0; j < m; ++j, t += k) {
      a0 += t[c0[j]];
      a1 += t[c1[j]];
      a2 += t[c2[j]];
      a3 += t[c3[j]];
    }
    out[i] = a0;
    out[i + 1] = a1;
    out[i + 2] = a2;
    out[i + 3] = a3;
  }
  for (; i < n; ++i) out[i] = AdcOne(table, m, k, ptr(i));
}

void AdcBatchScalar(const float* table, size_t m, size_t k,
                    const uint8_t* codes, size_t code_stride, size_t n,
                    float* out) {
  AdcBatchImpl(
      table, m, k, [&](size_t i) { return codes + i * code_stride; }, n, out);
}

void AdcBatchGatherScalar(const float* table, size_t m, size_t k,
                          const uint8_t* codes, size_t code_stride,
                          const uint32_t* ids, size_t n, float* out) {
  AdcBatchImpl(
      table, m, k,
      [&](size_t i) { return codes + static_cast<size_t>(ids[i]) * code_stride; },
      n, out);
}

// FastScan reference: per block, walk the m2/2 nibble-pair rows and add both
// LUT entries of every code. Integer adds in any order give the same sums,
// so SIMD backends are bit-identical by construction.
void AdcFastScanScalar(const uint8_t* lut8, size_t m2, const uint8_t* packed,
                       size_t n_blocks, uint16_t* out) {
  const size_t rows = m2 / 2;
  for (size_t b = 0; b < n_blocks; ++b) {
    const uint8_t* block = packed + b * rows * 32;
    uint16_t* o = out + b * 32;
    for (size_t i = 0; i < 32; ++i) o[i] = 0;
    const uint8_t* lut = lut8;
    for (size_t p = 0; p < rows; ++p, lut += 32) {
      const uint8_t* row = block + p * 32;
      for (size_t i = 0; i < 32; ++i) {
        o[i] = static_cast<uint16_t>(o[i] + lut[row[i] & 0x0f] +
                                     lut[16 + (row[i] >> 4)]);
      }
    }
  }
}

// Multi-query reference: literally nq independent single-query scans — the
// baseline the batched SIMD kernels must match bit-for-bit and beat per code.
void AdcFastScanMultiScalar(const uint8_t* luts8, size_t nq, size_t m2,
                            const uint8_t* packed, size_t n_blocks,
                            uint16_t* out) {
  for (size_t q = 0; q < nq; ++q) {
    AdcFastScanScalar(luts8 + q * m2 * 16, m2, packed, n_blocks,
                      out + q * n_blocks * 32);
  }
}

}  // namespace

namespace internal {

const KernelOps& ScalarKernels() {
  static const KernelOps ops = {
      "scalar",          SquaredL2Scalar, DotScalar,
      SquaredNormScalar, L2ToManyScalar,  AdcBatchScalar,
      AdcBatchGatherScalar, AdcFastScanScalar, AdcFastScanMultiScalar,
  };
  return ops;
}

}  // namespace internal
}  // namespace rpq::simd
