// AVX2 + FMA kernels: distances, the L2ToMany table builders and the
// FastScan pshufb scans. Compiled with -mavx2 -mfma (see CMakeLists.txt);
// only ever called after dispatch.cc has verified the CPU supports AVX2.
#include "simd/kernels.h"

#if defined(RPQ_HAVE_AVX2)

#include <immintrin.h>

namespace rpq::simd {
namespace {

inline float Hsum256(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 0x55));
  return _mm_cvtss_f32(lo);
}

float SquaredL2Avx2(const float* a, const float* b, size_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    __m256 d1 =
        _mm256_sub_ps(_mm256_loadu_ps(a + i + 8), _mm256_loadu_ps(b + i + 8));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    acc1 = _mm256_fmadd_ps(d1, d1, acc1);
  }
  if (i + 8 <= d) {
    __m256 d0 = _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    i += 8;
  }
  float acc = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < d; ++i) {
    float diff = a[i] - b[i];
    acc += diff * diff;
  }
  return acc;
}

float DotAvx2(const float* a, const float* b, size_t d) {
  __m256 acc0 = _mm256_setzero_ps();
  __m256 acc1 = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 16 <= d; i += 16) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                           _mm256_loadu_ps(b + i + 8), acc1);
  }
  if (i + 8 <= d) {
    acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i), acc0);
    i += 8;
  }
  float acc = Hsum256(_mm256_add_ps(acc0, acc1));
  for (; i < d; ++i) acc += a[i] * b[i];
  return acc;
}

float SquaredNormAvx2(const float* a, size_t d) { return DotAvx2(a, a, d); }

// In-register 4-way transpose-reduce of four rows' squared differences:
// lane r of the result is ((s0+s1)+(s2+s3)) + ((s4+s5)+(s6+s7)) of row r,
// three hadds + one cross-lane add instead of four horizontal sums — the
// hsum was what made the per-row path lose to scalar. With lanes >= d zero,
// that tree is the scalar reference's in-order sum for every d <= 3.
inline __m128 ReduceRows4(__m256 s0, __m256 s1, __m256 s2, __m256 s3) {
  __m256 t0 = _mm256_hadd_ps(s0, s1);
  __m256 t1 = _mm256_hadd_ps(s2, s3);
  __m256 t2 = _mm256_hadd_ps(t0, t1);  // [r0 r1 r2 r3 | r0' r1' r2' r3']
  return _mm_add_ps(_mm256_castps256_ps128(t2), _mm256_extractf128_ps(t2, 1));
}

// Cross-row kernel for the small sub-dims PQ table builds use (d in [1, 8]):
// four masked row loads per iteration and one ReduceRows4. The < 4-row tail
// goes through the same tree with zero rows, so a row's sum never depends on
// its position — bit-identical to the scalar reference for d <= 3.
void L2ToManySmallDAvx2(const float* q, const float* base, size_t n, size_t d,
                        float* out) {
  alignas(32) int32_t mask_arr[8];
  for (size_t l = 0; l < 8; ++l) mask_arr[l] = l < d ? -1 : 0;
  const __m256i mask = _mm256_load_si256(reinterpret_cast<__m256i*>(mask_arr));
  const __m256 qv = _mm256_maskload_ps(q, mask);
  auto row_sq = [&](size_t i) {
    __m256 diff = _mm256_sub_ps(_mm256_maskload_ps(base + i * d, mask), qv);
    return _mm256_mul_ps(diff, diff);
  };
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i,
                  ReduceRows4(row_sq(i), row_sq(i + 1), row_sq(i + 2),
                              row_sq(i + 3)));
  }
  if (i < n) {
    const size_t rest = n - i;
    const __m256 zero = _mm256_setzero_ps();
    alignas(16) float sums[4] = {};
    _mm_store_ps(sums, ReduceRows4(row_sq(i), rest > 1 ? row_sq(i + 1) : zero,
                                   rest > 2 ? row_sq(i + 2) : zero, zero));
    for (size_t r = 0; r < rest; ++r) out[i + r] = sums[r];
  }
}

// Cross-centroid kernel for d = 2, the sub-dim of an m = 64 model over 128
// dims. It reads the interleaved codebook [x0 y0 x1 y1 ...] as is: eight
// centroids are two loads, and one hadd of their squared differences gives
// each centroid's dx^2 + dy^2 — exactly the scalar reference's
// (0 + dx^2) + dy^2. The hadd leaves 64-bit pairs in the order
// [c0c1 c4c5 | c2c3 c6c7]; one lane permute restores centroid order.
void L2ToManyD2Avx2(const float* q, const float* base, size_t n, float* out) {
  const __m256 qv = _mm256_setr_ps(q[0], q[1], q[0], q[1], q[0], q[1], q[0],
                                   q[1]);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const float* rows = base + 2 * i;
    __m256 a = _mm256_sub_ps(_mm256_loadu_ps(rows), qv);
    __m256 b = _mm256_sub_ps(_mm256_loadu_ps(rows + 8), qv);
    __m256 h = _mm256_hadd_ps(_mm256_mul_ps(a, a), _mm256_mul_ps(b, b));
    _mm256_storeu_ps(out + i, _mm256_castpd_ps(_mm256_permute4x64_pd(
                                  _mm256_castps_pd(h), 0xD8)));
  }
  if (i < n) L2ToManySmallDAvx2(q, base + 2 * i, n - i, 2, out + i);
}

// Cross-row kernel for d in (8, 16): one full 8-float load plus one masked
// load of the remaining d-8 lanes per row, then ReduceRows4 — no per-row
// horizontal sum in the hot loop. Covers sub-dims 9-15 (e.g. m = 10 chunks
// of a 128-dim space).
void L2ToManyMidDAvx2(const float* q, const float* base, size_t n, size_t d,
                      float* out) {
  alignas(32) int32_t mask_arr[8];
  const size_t tail = d - 8;
  for (size_t l = 0; l < 8; ++l) mask_arr[l] = l < tail ? -1 : 0;
  const __m256i mask = _mm256_load_si256(reinterpret_cast<__m256i*>(mask_arr));
  const __m256 q0 = _mm256_loadu_ps(q);
  const __m256 q1 = _mm256_maskload_ps(q + 8, mask);
  auto row_sq = [&](const float* row) {
    __m256 a = _mm256_sub_ps(_mm256_loadu_ps(row), q0);
    __m256 b = _mm256_sub_ps(_mm256_maskload_ps(row + 8, mask), q1);
    return _mm256_fmadd_ps(b, b, _mm256_mul_ps(a, a));
  };
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, ReduceRows4(row_sq(base + i * d),
                                       row_sq(base + (i + 1) * d),
                                       row_sq(base + (i + 2) * d),
                                       row_sq(base + (i + 3) * d)));
  }
  for (; i < n; ++i) out[i] = Hsum256(row_sq(base + i * d));
}

void L2ToManyAvx2(const float* q, const float* base, size_t n, size_t d,
                  float* out) {
  if (d == 2) {
    L2ToManyD2Avx2(q, base, n, out);
    return;
  }
  if (d <= 8) {
    L2ToManySmallDAvx2(q, base, n, d, out);
    return;
  }
  if (d < 16) {
    L2ToManyMidDAvx2(q, base, n, d, out);
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (i + 2 < n) _mm_prefetch(reinterpret_cast<const char*>(base + (i + 2) * d),
                                _MM_HINT_T0);
    out[i] = SquaredL2Avx2(q, base + i * d, d);
  }
}

// FastScan: the 16-entry LUT rows live in registers (each duplicated across
// both 128-bit lanes) and one vpshufb scores a whole 32-code block row. The
// u8 lookup values are widened to u16 before accumulating, so sums are exact
// and bit-identical to the scalar reference.
void AdcFastScanAvx2(const uint8_t* lut8, size_t m2, const uint8_t* packed,
                     size_t n_blocks, uint16_t* out) {
  const size_t rows = m2 / 2;
  // Hoist the LUT broadcasts out of the block loop: two registers per row
  // pair (sub-quantizers 2p and 2p+1), at most 256 total for m2 = 256 (the
  // layout's contractual maximum — beyond it u16 sums could overflow anyway).
  constexpr size_t kMaxRows = 128;
  if (rows > kMaxRows) {
    internal::ScalarKernels().adc_fastscan(lut8, m2, packed, n_blocks, out);
    return;
  }
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  __m256i luts[2 * kMaxRows];
  for (size_t p = 0; p < rows; ++p) {
    luts[2 * p] = _mm256_broadcastsi128_si256(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lut8 + 2 * p * 16)));
    luts[2 * p + 1] = _mm256_broadcastsi128_si256(_mm_loadu_si128(
        reinterpret_cast<const __m128i*>(lut8 + (2 * p + 1) * 16)));
  }
  for (size_t b = 0; b < n_blocks; ++b) {
    const uint8_t* block = packed + b * rows * 32;
    __m256i acc_lo = _mm256_setzero_si256();  // codes 0..15 as u16
    __m256i acc_hi = _mm256_setzero_si256();  // codes 16..31 as u16
    for (size_t p = 0; p < rows; ++p) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + p * 32));
      __m256i lo = _mm256_and_si256(v, low_mask);
      __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
      __m256i v0 = _mm256_shuffle_epi8(luts[2 * p], lo);
      __m256i v1 = _mm256_shuffle_epi8(luts[2 * p + 1], hi);
      acc_lo = _mm256_add_epi16(
          acc_lo, _mm256_cvtepu8_epi16(_mm256_castsi256_si128(v0)));
      acc_hi = _mm256_add_epi16(
          acc_hi, _mm256_cvtepu8_epi16(_mm256_extracti128_si256(v0, 1)));
      acc_lo = _mm256_add_epi16(
          acc_lo, _mm256_cvtepu8_epi16(_mm256_castsi256_si128(v1)));
      acc_hi = _mm256_add_epi16(
          acc_hi, _mm256_cvtepu8_epi16(_mm256_extracti128_si256(v1, 1)));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + b * 32), acc_lo);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + b * 32 + 16), acc_hi);
  }
}

// One tile of QT queries over every block. The tile's LUT rows are staged as
// broadcast registers up-front (lutv[row][t], filled by the caller's scratch
// buffer); inside the block loop each 32-byte row is loaded and its nibble
// indices extracted ONCE, then shuffled against all QT queries' LUTs while
// register-resident. Per extra query a row costs only 2 shuffles + 4
// widening adds — the multi-query amortization the IVF batched scan buys.
template <int QT>
void FastScanMultiTileAvx2(const uint8_t* luts8, size_t m2,
                           const uint8_t* packed, size_t n_blocks,
                           uint16_t* out, size_t out_stride, __m256i* lutv) {
  const size_t rows = m2 / 2;
  for (int t = 0; t < QT; ++t) {
    const uint8_t* lut = luts8 + static_cast<size_t>(t) * m2 * 16;
    for (size_t r = 0; r < 2 * rows; ++r) {
      lutv[r * QT + t] = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(lut + r * 16)));
    }
  }
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  for (size_t b = 0; b < n_blocks; ++b) {
    const uint8_t* block = packed + b * rows * 32;
    __m256i acc_lo[QT], acc_hi[QT];
    for (int t = 0; t < QT; ++t) {
      acc_lo[t] = _mm256_setzero_si256();
      acc_hi[t] = _mm256_setzero_si256();
    }
    for (size_t p = 0; p < rows; ++p) {
      __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(block + p * 32));
      __m256i lo = _mm256_and_si256(v, low_mask);
      __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
      for (int t = 0; t < QT; ++t) {
        __m256i v0 = _mm256_shuffle_epi8(lutv[(2 * p) * QT + t], lo);
        __m256i v1 = _mm256_shuffle_epi8(lutv[(2 * p + 1) * QT + t], hi);
        acc_lo[t] = _mm256_add_epi16(
            acc_lo[t], _mm256_cvtepu8_epi16(_mm256_castsi256_si128(v0)));
        acc_hi[t] = _mm256_add_epi16(
            acc_hi[t], _mm256_cvtepu8_epi16(_mm256_extracti128_si256(v0, 1)));
        acc_lo[t] = _mm256_add_epi16(
            acc_lo[t], _mm256_cvtepu8_epi16(_mm256_castsi256_si128(v1)));
        acc_hi[t] = _mm256_add_epi16(
            acc_hi[t], _mm256_cvtepu8_epi16(_mm256_extracti128_si256(v1, 1)));
      }
    }
    for (int t = 0; t < QT; ++t) {
      uint16_t* o = out + static_cast<size_t>(t) * out_stride + b * 32;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o), acc_lo[t]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(o + 16), acc_hi[t]);
    }
  }
}

void AdcFastScanMultiAvx2(const uint8_t* luts8, size_t nq, size_t m2,
                          const uint8_t* packed, size_t n_blocks,
                          uint16_t* out) {
  const size_t rows = m2 / 2;
  constexpr size_t kMaxRows = 128;
  if (rows > kMaxRows) {
    internal::ScalarKernels().adc_fastscan_multi(luts8, nq, m2, packed,
                                                 n_blocks, out);
    return;
  }
  constexpr int kTile = 4;  // 8 u16 accumulators + shared row state in regs
  __m256i lutv[2 * kMaxRows * kTile];
  const size_t out_stride = n_blocks * 32;
  const size_t lut_stride = m2 * 16;
  size_t q = 0;
  for (; q + kTile <= nq; q += kTile) {
    FastScanMultiTileAvx2<kTile>(luts8 + q * lut_stride, m2, packed, n_blocks,
                                 out + q * out_stride, out_stride, lutv);
  }
  if (q + 2 <= nq) {
    FastScanMultiTileAvx2<2>(luts8 + q * lut_stride, m2, packed, n_blocks,
                             out + q * out_stride, out_stride, lutv);
    q += 2;
  }
  if (q < nq) {
    AdcFastScanAvx2(luts8 + q * lut_stride, m2, packed, n_blocks,
                    out + q * out_stride);
  }
}

}  // namespace

namespace internal {

const KernelOps& Avx2Kernels() {
  static const KernelOps ops = {
      "avx2",          SquaredL2Avx2,   DotAvx2,
      SquaredNormAvx2, L2ToManyAvx2,    AdcFastScanAvx2,
      AdcFastScanMultiAvx2,
  };
  return ops;
}

}  // namespace internal
}  // namespace rpq::simd

#endif  // RPQ_HAVE_AVX2
