// AVX-512F kernels: 16-wide FMA distances/table builds and, on BW CPUs,
// 512-bit FastScan shuffles. Avx512Kernels() starts from the AVX2 set and
// overrides what the wider ISA improves.
#include "simd/kernels.h"

#if defined(RPQ_HAVE_AVX512)

#include <immintrin.h>

namespace rpq::simd {
namespace {

float SquaredL2Avx512(const float* a, const float* b, size_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    __m512 d1 =
        _mm512_sub_ps(_mm512_loadu_ps(a + i + 16), _mm512_loadu_ps(b + i + 16));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    acc1 = _mm512_fmadd_ps(d1, d1, acc1);
  }
  if (i + 16 <= d) {
    __m512 d0 = _mm512_sub_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i));
    acc0 = _mm512_fmadd_ps(d0, d0, acc0);
    i += 16;
  }
  if (i < d) {
    // Masked tail: one pass covers the remaining (< 16) lanes.
    __mmask16 mask = static_cast<__mmask16>((1u << (d - i)) - 1u);
    __m512 d0 = _mm512_sub_ps(_mm512_maskz_loadu_ps(mask, a + i),
                              _mm512_maskz_loadu_ps(mask, b + i));
    acc1 = _mm512_fmadd_ps(d0, d0, acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float DotAvx512(const float* a, const float* b, size_t d) {
  __m512 acc0 = _mm512_setzero_ps();
  __m512 acc1 = _mm512_setzero_ps();
  size_t i = 0;
  for (; i + 32 <= d; i += 32) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
    acc1 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i + 16),
                           _mm512_loadu_ps(b + i + 16), acc1);
  }
  if (i + 16 <= d) {
    acc0 = _mm512_fmadd_ps(_mm512_loadu_ps(a + i), _mm512_loadu_ps(b + i), acc0);
    i += 16;
  }
  if (i < d) {
    __mmask16 mask = static_cast<__mmask16>((1u << (d - i)) - 1u);
    acc1 = _mm512_fmadd_ps(_mm512_maskz_loadu_ps(mask, a + i),
                           _mm512_maskz_loadu_ps(mask, b + i), acc1);
  }
  return _mm512_reduce_add_ps(_mm512_add_ps(acc0, acc1));
}

float SquaredNormAvx512(const float* a, size_t d) { return DotAvx512(a, a, d); }

void L2ToManyAvx512(const float* q, const float* base, size_t n, size_t d,
                    float* out) {
  if (d < 16) {
    // Below one vector width the masked load + 16-lane reduce costs more
    // than narrower code. The AVX2 set carries the cross-centroid kernel
    // for d = 2 and the cross-row kernels for d 1-15, whose sums for
    // d <= 3 are bit-identical to the scalar reference.
#if defined(RPQ_HAVE_AVX2)
    internal::Avx2Kernels().l2_to_many(q, base, n, d, out);
#else
    internal::ScalarKernels().l2_to_many(q, base, n, d, out);
#endif
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + 2 < n) _mm_prefetch(reinterpret_cast<const char*>(base + (i + 2) * d),
                                _MM_HINT_T0);
    out[i] = SquaredL2Avx512(q, base + i * d, d);
  }
}

#if defined(__GNUC__) || defined(__clang__)
#define RPQ_HAVE_AVX512BW_KERNEL 1
// The BW kernel carries its own target attribute instead of the whole TU
// being compiled with -mavx512bw: dispatch gates backend selection on
// avx512f alone, so nothing outside this function may require BW (an
// auto-vectorized loop elsewhere in the TU would SIGILL on F-only CPUs).
#define RPQ_BW_TARGET \
  __attribute__((target("avx2,fma,avx512f,avx512bw")))

RPQ_BW_TARGET static inline __m256i Dup128Row(const uint8_t* lut8,
                                              size_t row) {
  return _mm256_broadcastsi128_si256(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(lut8 + row * 16)));
}

// FastScan with 512-bit shuffles: one load covers two 32-byte rows of a
// block (four sub-quantizers), one vpshufb-512 scores 32 codes against two
// LUT rows at once. The LUT registers (row 2p duplicated in lanes 0-1, row
// 2p+2 in lanes 2-3) are precomputed outside the block loop. Widening to
// u16 before accumulating keeps sums exact — bit-identical to scalar.
RPQ_BW_TARGET void AdcFastScanAvx512(const uint8_t* lut8, size_t m2,
                                     const uint8_t* packed, size_t n_blocks,
                                     uint16_t* out) {
  const size_t rows = m2 / 2;
  constexpr size_t kMaxRows = 128;
  if (rows > kMaxRows) {
    internal::ScalarKernels().adc_fastscan(lut8, m2, packed, n_blocks, out);
    return;
  }
  const __m512i low_mask = _mm512_set1_epi8(0x0f);

  // luts_lo[i] serves the low nibbles of row pair {2i, 2i+1} (sub-quantizers
  // 4i and 4i+2), luts_hi[i] the high nibbles (4i+1 and 4i+3).
  __m512i luts_lo[kMaxRows / 2 + 1];
  __m512i luts_hi[kMaxRows / 2 + 1];
  const size_t row_pairs = rows / 2;
  for (size_t p = 0; p < row_pairs; ++p) {
    luts_lo[p] = _mm512_inserti64x4(
        _mm512_castsi256_si512(Dup128Row(lut8, 4 * p)), Dup128Row(lut8, 4 * p + 2), 1);
    luts_hi[p] = _mm512_inserti64x4(
        _mm512_castsi256_si512(Dup128Row(lut8, 4 * p + 1)), Dup128Row(lut8, 4 * p + 3), 1);
  }
  const __m256i low_mask256 = _mm256_set1_epi8(0x0f);
  __m256i tail_lut0 = _mm256_setzero_si256(), tail_lut1 = tail_lut0;
  if (rows % 2 != 0) {
    tail_lut0 = Dup128Row(lut8, 2 * (rows - 1));
    tail_lut1 = Dup128Row(lut8, 2 * (rows - 1) + 1);
  }
  for (size_t b = 0; b < n_blocks; ++b) {
    const uint8_t* block = packed + b * rows * 32;
    __m512i acc = _mm512_setzero_si512();  // codes 0..31 as u16
    for (size_t p = 0; p < row_pairs; ++p) {
      __m512i v = _mm512_loadu_si512(block + p * 64);
      __m512i lo = _mm512_and_si512(v, low_mask);
      __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
      __m512i v0 = _mm512_shuffle_epi8(luts_lo[p], lo);
      __m512i v1 = _mm512_shuffle_epi8(luts_hi[p], hi);
      // Each half of v0/v1 holds values for the same 32 codes (different
      // sub-quantizers), so all four widened halves add into one accumulator.
      acc = _mm512_add_epi16(
          acc, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(v0)));
      acc = _mm512_add_epi16(
          acc, _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(v0, 1)));
      acc = _mm512_add_epi16(
          acc, _mm512_cvtepu8_epi16(_mm512_castsi512_si256(v1)));
      acc = _mm512_add_epi16(
          acc, _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(v1, 1)));
    }
    if (rows % 2 != 0) {  // odd trailing row: 256-bit pass
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + (rows - 1) * 32));
      __m256i lo = _mm256_and_si256(v, low_mask256);
      __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask256);
      __m256i v0 = _mm256_shuffle_epi8(tail_lut0, lo);
      __m256i v1 = _mm256_shuffle_epi8(tail_lut1, hi);
      acc = _mm512_add_epi16(acc, _mm512_cvtepu8_epi16(v0));
      acc = _mm512_add_epi16(acc, _mm512_cvtepu8_epi16(v1));
    }
    _mm512_storeu_si512(out + b * 32, acc);
  }
}

// Multi-query tile with 512-bit shuffles: each row-pair load (64 bytes, four
// sub-quantizers of 32 codes) and its nibble extraction are shared by all QT
// queries; per query a row-pair costs 2 vpshufb-512 + 4 widening adds into
// one zmm accumulator. LUT registers for the whole tile are staged up-front
// in the caller's scratch (lo/hi per row-pair per query, plus the odd
// trailing row's 256-bit pair).
template <int QT>
RPQ_BW_TARGET void FastScanMultiTileAvx512(const uint8_t* luts8, size_t m2,
                                           const uint8_t* packed,
                                           size_t n_blocks, uint16_t* out,
                                           size_t out_stride, __m512i* lut_lo,
                                           __m512i* lut_hi) {
  const size_t rows = m2 / 2;
  const size_t row_pairs = rows / 2;
  for (int t = 0; t < QT; ++t) {
    const uint8_t* lut = luts8 + static_cast<size_t>(t) * m2 * 16;
    for (size_t p = 0; p < row_pairs; ++p) {
      lut_lo[p * QT + t] = _mm512_inserti64x4(
          _mm512_castsi256_si512(Dup128Row(lut, 4 * p)),
          Dup128Row(lut, 4 * p + 2), 1);
      lut_hi[p * QT + t] = _mm512_inserti64x4(
          _mm512_castsi256_si512(Dup128Row(lut, 4 * p + 1)),
          Dup128Row(lut, 4 * p + 3), 1);
    }
  }
  const __m512i low_mask = _mm512_set1_epi8(0x0f);
  const __m256i low_mask256 = _mm256_set1_epi8(0x0f);
  __m256i tail_lut0[QT], tail_lut1[QT];
  if (rows % 2 != 0) {
    for (int t = 0; t < QT; ++t) {
      const uint8_t* lut = luts8 + static_cast<size_t>(t) * m2 * 16;
      tail_lut0[t] = Dup128Row(lut, 2 * (rows - 1));
      tail_lut1[t] = Dup128Row(lut, 2 * (rows - 1) + 1);
    }
  }
  for (size_t b = 0; b < n_blocks; ++b) {
    const uint8_t* block = packed + b * rows * 32;
    __m512i acc[QT];
    for (int t = 0; t < QT; ++t) acc[t] = _mm512_setzero_si512();
    for (size_t p = 0; p < row_pairs; ++p) {
      __m512i v = _mm512_loadu_si512(block + p * 64);
      __m512i lo = _mm512_and_si512(v, low_mask);
      __m512i hi = _mm512_and_si512(_mm512_srli_epi16(v, 4), low_mask);
      for (int t = 0; t < QT; ++t) {
        __m512i v0 = _mm512_shuffle_epi8(lut_lo[p * QT + t], lo);
        __m512i v1 = _mm512_shuffle_epi8(lut_hi[p * QT + t], hi);
        acc[t] = _mm512_add_epi16(
            acc[t], _mm512_cvtepu8_epi16(_mm512_castsi512_si256(v0)));
        acc[t] = _mm512_add_epi16(
            acc[t], _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(v0, 1)));
        acc[t] = _mm512_add_epi16(
            acc[t], _mm512_cvtepu8_epi16(_mm512_castsi512_si256(v1)));
        acc[t] = _mm512_add_epi16(
            acc[t], _mm512_cvtepu8_epi16(_mm512_extracti64x4_epi64(v1, 1)));
      }
    }
    if (rows % 2 != 0) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + (rows - 1) * 32));
      __m256i lo = _mm256_and_si256(v, low_mask256);
      __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask256);
      for (int t = 0; t < QT; ++t) {
        __m256i v0 = _mm256_shuffle_epi8(tail_lut0[t], lo);
        __m256i v1 = _mm256_shuffle_epi8(tail_lut1[t], hi);
        acc[t] = _mm512_add_epi16(acc[t], _mm512_cvtepu8_epi16(v0));
        acc[t] = _mm512_add_epi16(acc[t], _mm512_cvtepu8_epi16(v1));
      }
    }
    for (int t = 0; t < QT; ++t) {
      _mm512_storeu_si512(out + static_cast<size_t>(t) * out_stride + b * 32,
                          acc[t]);
    }
  }
}

RPQ_BW_TARGET void AdcFastScanMultiAvx512(const uint8_t* luts8, size_t nq,
                                          size_t m2, const uint8_t* packed,
                                          size_t n_blocks, uint16_t* out) {
  const size_t rows = m2 / 2;
  constexpr size_t kMaxRows = 128;
  if (rows > kMaxRows) {
    internal::ScalarKernels().adc_fastscan_multi(luts8, nq, m2, packed,
                                                 n_blocks, out);
    return;
  }
  constexpr int kTile = 4;
  __m512i lut_lo[(kMaxRows / 2) * kTile];
  __m512i lut_hi[(kMaxRows / 2) * kTile];
  const size_t out_stride = n_blocks * 32;
  const size_t lut_stride = m2 * 16;
  size_t q = 0;
  for (; q + kTile <= nq; q += kTile) {
    FastScanMultiTileAvx512<kTile>(luts8 + q * lut_stride, m2, packed,
                                   n_blocks, out + q * out_stride, out_stride,
                                   lut_lo, lut_hi);
  }
  if (q + 2 <= nq) {
    FastScanMultiTileAvx512<2>(luts8 + q * lut_stride, m2, packed, n_blocks,
                               out + q * out_stride, out_stride, lut_lo,
                               lut_hi);
    q += 2;
  }
  if (q < nq) {
    AdcFastScanAvx512(luts8 + q * lut_stride, m2, packed, n_blocks,
                      out + q * out_stride);
  }
}

#endif  // RPQ_HAVE_AVX512BW_KERNEL (GNUC/clang target attribute)

#if defined(__x86_64__) || defined(__i386__)
bool CpuHasAvx512bw() { return __builtin_cpu_supports("avx512bw") != 0; }
#else
bool CpuHasAvx512bw() { return false; }
#endif

}  // namespace

namespace internal {

const KernelOps& Avx512Kernels() {
  static const KernelOps ops = [] {
#if defined(RPQ_HAVE_AVX2)
    KernelOps o = Avx2Kernels();
#else
    KernelOps o = ScalarKernels();
#endif
    o.name = "avx512";
    o.squared_l2 = SquaredL2Avx512;
    o.dot = DotAvx512;
    o.squared_norm = SquaredNormAvx512;
    o.l2_to_many = L2ToManyAvx512;
#if defined(RPQ_HAVE_AVX512BW_KERNEL)
    // The 512-bit shuffle kernels need AVX-512BW; on F-only CPUs keep the
    // inherited (AVX2 or scalar) FastScan implementations.
    if (CpuHasAvx512bw()) {
      o.adc_fastscan = AdcFastScanAvx512;
      o.adc_fastscan_multi = AdcFastScanMultiAvx512;
    }
#endif
    (void)CpuHasAvx512bw;
    return o;
  }();
  return ops;
}

}  // namespace internal
}  // namespace rpq::simd

#endif  // RPQ_HAVE_AVX512
