// NEON kernels for aarch64 (NEON is baseline there, so no extra compile
// flags): distances, table builds and the FastScan scans. K = 16 u8 LUTs fit
// one vqtbl1q_u8 table register, so the 4-bit scan gets a real shuffle
// kernel.
#include "simd/kernels.h"

#if defined(RPQ_HAVE_NEON)

#include <arm_neon.h>

namespace rpq::simd {
namespace {

float SquaredL2Neon(const float* a, const float* b, size_t d) {
  float32x4_t acc0 = vdupq_n_f32(0.f);
  float32x4_t acc1 = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    float32x4_t d1 = vsubq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
    acc0 = vfmaq_f32(acc0, d0, d0);
    acc1 = vfmaq_f32(acc1, d1, d1);
  }
  if (i + 4 <= d) {
    float32x4_t d0 = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc0 = vfmaq_f32(acc0, d0, d0);
    i += 4;
  }
  float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < d; ++i) {
    float diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

float DotNeon(const float* a, const float* b, size_t d) {
  float32x4_t acc0 = vdupq_n_f32(0.f);
  float32x4_t acc1 = vdupq_n_f32(0.f);
  size_t i = 0;
  for (; i + 8 <= d; i += 8) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    acc1 = vfmaq_f32(acc1, vld1q_f32(a + i + 4), vld1q_f32(b + i + 4));
  }
  if (i + 4 <= d) {
    acc0 = vfmaq_f32(acc0, vld1q_f32(a + i), vld1q_f32(b + i));
    i += 4;
  }
  float acc = vaddvq_f32(vaddq_f32(acc0, acc1));
  for (; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

float SquaredNormNeon(const float* a, size_t d) { return DotNeon(a, a, d); }

// Cross-row reduction for four per-row squared-difference vectors: two
// pairwise-add rounds turn [s0 s1 s2 s3] into one float32x4 of row sums.
inline float32x4_t Reduce4Rows(float32x4_t s0, float32x4_t s1, float32x4_t s2,
                               float32x4_t s3) {
  return vpaddq_f32(vpaddq_f32(s0, s1), vpaddq_f32(s2, s3));
}

void L2ToManyNeon(const float* q, const float* base, size_t n, size_t d,
                  float* out) {
  // Cross-row kernels for the PQ sub-dims (4 and 8): four rows per
  // iteration, pairwise adds instead of four per-row horizontal sums.
  if (d == 4) {
    const float32x4_t qv = vld1q_f32(q);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      float32x4_t d0 = vsubq_f32(vld1q_f32(base + i * 4), qv);
      float32x4_t d1 = vsubq_f32(vld1q_f32(base + (i + 1) * 4), qv);
      float32x4_t d2 = vsubq_f32(vld1q_f32(base + (i + 2) * 4), qv);
      float32x4_t d3 = vsubq_f32(vld1q_f32(base + (i + 3) * 4), qv);
      vst1q_f32(out + i, Reduce4Rows(vmulq_f32(d0, d0), vmulq_f32(d1, d1),
                                     vmulq_f32(d2, d2), vmulq_f32(d3, d3)));
    }
    for (; i < n; ++i) {
      float32x4_t diff = vsubq_f32(vld1q_f32(base + i * 4), qv);
      out[i] = vaddvq_f32(vmulq_f32(diff, diff));
    }
    return;
  }
  if (d == 8) {
    const float32x4_t q0 = vld1q_f32(q), q1 = vld1q_f32(q + 4);
    auto row_sq = [&](const float* row) {
      float32x4_t a = vsubq_f32(vld1q_f32(row), q0);
      float32x4_t b = vsubq_f32(vld1q_f32(row + 4), q1);
      return vfmaq_f32(vmulq_f32(a, a), b, b);
    };
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      vst1q_f32(out + i,
                Reduce4Rows(row_sq(base + i * 8), row_sq(base + (i + 1) * 8),
                            row_sq(base + (i + 2) * 8),
                            row_sq(base + (i + 3) * 8)));
    }
    for (; i < n; ++i) out[i] = vaddvq_f32(row_sq(base + i * 8));
    return;
  }
  for (size_t i = 0; i < n; ++i) out[i] = SquaredL2Neon(q, base + i * d, d);
}

// FastScan via vqtbl1q_u8: each 16-entry LUT row is one table register; a
// block row's 32 nibble-packed bytes are processed as two 16-code halves.
// Widening adds (vaddw) keep the u16 sums exact — bit-identical to scalar.
void AdcFastScanNeon(const uint8_t* lut8, size_t m2, const uint8_t* packed,
                     size_t n_blocks, uint16_t* out) {
  const size_t rows = m2 / 2;
  const uint8x16_t low_mask = vdupq_n_u8(0x0f);
  for (size_t b = 0; b < n_blocks; ++b) {
    const uint8_t* block = packed + b * rows * 32;
    uint16x8_t acc0 = vdupq_n_u16(0);  // codes 0..7
    uint16x8_t acc1 = vdupq_n_u16(0);  // codes 8..15
    uint16x8_t acc2 = vdupq_n_u16(0);  // codes 16..23
    uint16x8_t acc3 = vdupq_n_u16(0);  // codes 24..31
    for (size_t p = 0; p < rows; ++p) {
      const uint8x16_t lut0 = vld1q_u8(lut8 + 2 * p * 16);
      const uint8x16_t lut1 = vld1q_u8(lut8 + (2 * p + 1) * 16);
      uint8x16_t va = vld1q_u8(block + p * 32);       // codes 0..15
      uint8x16_t vb = vld1q_u8(block + p * 32 + 16);  // codes 16..31
      uint8x16_t ta0 = vqtbl1q_u8(lut0, vandq_u8(va, low_mask));
      uint8x16_t ta1 = vqtbl1q_u8(lut1, vshrq_n_u8(va, 4));
      uint8x16_t tb0 = vqtbl1q_u8(lut0, vandq_u8(vb, low_mask));
      uint8x16_t tb1 = vqtbl1q_u8(lut1, vshrq_n_u8(vb, 4));
      acc0 = vaddw_u8(acc0, vget_low_u8(ta0));
      acc0 = vaddw_u8(acc0, vget_low_u8(ta1));
      acc1 = vaddw_u8(acc1, vget_high_u8(ta0));
      acc1 = vaddw_u8(acc1, vget_high_u8(ta1));
      acc2 = vaddw_u8(acc2, vget_low_u8(tb0));
      acc2 = vaddw_u8(acc2, vget_low_u8(tb1));
      acc3 = vaddw_u8(acc3, vget_high_u8(tb0));
      acc3 = vaddw_u8(acc3, vget_high_u8(tb1));
    }
    vst1q_u16(out + b * 32, acc0);
    vst1q_u16(out + b * 32 + 8, acc1);
    vst1q_u16(out + b * 32 + 16, acc2);
    vst1q_u16(out + b * 32 + 24, acc3);
  }
}

// Multi-query tile: the two 16-code block-row halves and their four nibble
// index vectors are computed once and shuffled against QT queries' LUT
// registers while resident. QT = 2 keeps the 4-accumulator-per-query layout
// (8 of the 32 vector registers) plus shared row state comfortably in
// registers; LUT rows are vld1q'd per use (L1-hot, one load each).
template <int QT>
void FastScanMultiTileNeon(const uint8_t* luts8, size_t m2,
                           const uint8_t* packed, size_t n_blocks,
                           uint16_t* out, size_t out_stride) {
  const size_t rows = m2 / 2;
  const uint8x16_t low_mask = vdupq_n_u8(0x0f);
  for (size_t b = 0; b < n_blocks; ++b) {
    const uint8_t* block = packed + b * rows * 32;
    uint16x8_t acc[QT][4];
    for (int t = 0; t < QT; ++t) {
      for (int h = 0; h < 4; ++h) acc[t][h] = vdupq_n_u16(0);
    }
    for (size_t p = 0; p < rows; ++p) {
      uint8x16_t va = vld1q_u8(block + p * 32);       // codes 0..15
      uint8x16_t vb = vld1q_u8(block + p * 32 + 16);  // codes 16..31
      uint8x16_t lo_a = vandq_u8(va, low_mask);
      uint8x16_t hi_a = vshrq_n_u8(va, 4);
      uint8x16_t lo_b = vandq_u8(vb, low_mask);
      uint8x16_t hi_b = vshrq_n_u8(vb, 4);
      for (int t = 0; t < QT; ++t) {
        const uint8_t* lut = luts8 + static_cast<size_t>(t) * m2 * 16;
        const uint8x16_t lut0 = vld1q_u8(lut + 2 * p * 16);
        const uint8x16_t lut1 = vld1q_u8(lut + (2 * p + 1) * 16);
        uint8x16_t ta0 = vqtbl1q_u8(lut0, lo_a);
        uint8x16_t ta1 = vqtbl1q_u8(lut1, hi_a);
        uint8x16_t tb0 = vqtbl1q_u8(lut0, lo_b);
        uint8x16_t tb1 = vqtbl1q_u8(lut1, hi_b);
        acc[t][0] = vaddw_u8(acc[t][0], vget_low_u8(ta0));
        acc[t][0] = vaddw_u8(acc[t][0], vget_low_u8(ta1));
        acc[t][1] = vaddw_u8(acc[t][1], vget_high_u8(ta0));
        acc[t][1] = vaddw_u8(acc[t][1], vget_high_u8(ta1));
        acc[t][2] = vaddw_u8(acc[t][2], vget_low_u8(tb0));
        acc[t][2] = vaddw_u8(acc[t][2], vget_low_u8(tb1));
        acc[t][3] = vaddw_u8(acc[t][3], vget_high_u8(tb0));
        acc[t][3] = vaddw_u8(acc[t][3], vget_high_u8(tb1));
      }
    }
    for (int t = 0; t < QT; ++t) {
      uint16_t* o = out + static_cast<size_t>(t) * out_stride + b * 32;
      vst1q_u16(o, acc[t][0]);
      vst1q_u16(o + 8, acc[t][1]);
      vst1q_u16(o + 16, acc[t][2]);
      vst1q_u16(o + 24, acc[t][3]);
    }
  }
}

void AdcFastScanMultiNeon(const uint8_t* luts8, size_t nq, size_t m2,
                          const uint8_t* packed, size_t n_blocks,
                          uint16_t* out) {
  const size_t out_stride = n_blocks * 32;
  const size_t lut_stride = m2 * 16;
  size_t q = 0;
  for (; q + 2 <= nq; q += 2) {
    FastScanMultiTileNeon<2>(luts8 + q * lut_stride, m2, packed, n_blocks,
                             out + q * out_stride, out_stride);
  }
  if (q < nq) {
    AdcFastScanNeon(luts8 + q * lut_stride, m2, packed, n_blocks,
                    out + q * out_stride);
  }
}

}  // namespace

namespace internal {

const KernelOps& NeonKernels() {
  static const KernelOps ops = [] {
    KernelOps o = ScalarKernels();
    o.name = "neon";
    o.squared_l2 = SquaredL2Neon;
    o.dot = DotNeon;
    o.squared_norm = SquaredNormNeon;
    o.l2_to_many = L2ToManyNeon;
    o.adc_fastscan = AdcFastScanNeon;
    o.adc_fastscan_multi = AdcFastScanMultiNeon;
    return o;
  }();
  return ops;
}

}  // namespace internal
}  // namespace rpq::simd

#endif  // RPQ_HAVE_NEON
