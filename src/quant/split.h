// K = 256 split-table regime: 8-bit PQ accuracy scored through the existing
// 4-bit FastScan shuffle kernels.
//
// A 256-entry float LUT cannot ride in a 16-lane shuffle register, so each
// chunk's codebook is trained with additive structure instead: a level-1
// codebook A_j (16 words, k-means on the chunk data) plus a level-2 codebook
// B_j (16 words, k-means on the within-chunk residuals), materialized as the
// 256-word product
//
//   Word(j, (a << 4) | b) = A_j[a] + B_j[b]
//
// inside an ordinary PqQuantizer — Encode (exact argmin over all 256 sums),
// Decode, BuildLookupTable and every downstream consumer work unchanged.
// Query-time distances decompose exactly:
//
//   || q_j - A[a] - B[b] ||^2 = u_j[a] + v_j[b] + cross_j[(a << 4) | b]
//     u_j[a] = || q_j - A[a] ||^2               (high-nibble LUT row 2j+1)
//     v_j[b] = || q_j - B[b] ||^2 - || q_j ||^2 (low-nibble  LUT row 2j)
//     cross_j[c] = 2 <A[c >> 4], B[c & 15]>     (query-INDEPENDENT)
//
// so a query needs only a 2m x 16 u8 table (SplitTable: a 2m-row
// FastScanTable), scanned by simd::AdcFastScan at m2 = 2m over the
// PackedCodes layout of the nibble-expanded code (ExpandSplitCode: low
// nibble = B, high nibble = A). Each 32-byte block row then holds the raw
// 8-bit code bytes of one chunk, and every SIMD backend scores it with the
// same pshufb/tbl kernels at exactly 2x the 4-bit per-code cost. The
// query-independent cross term folds into ONE float per stored vector
// (SplitPqModel::CrossSum at encode time), added after DecodeSum.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "quant/codebook.h"
#include "quant/fastscan.h"
#include "quant/pq.h"

namespace rpq::quant {

/// The two-level structure behind a K = 256 split-trained PqQuantizer: the
/// per-chunk level codebooks plus the precomputed cross terms. Attached to
/// the quantizer (PqQuantizer::split_model()), never used for encoding —
/// the materialized product codebook handles that.
struct SplitPqModel {
  Codebook a;  ///< m x 16 level-1 words (high nibble of each code byte)
  Codebook b;  ///< m x 16 level-2 residual words (low nibble)
  /// m x 256 floats: cross[j * 256 + c] = 2 <A_j[c >> 4], B_j[c & 15]>.
  /// Computed with the scalar kernels so it is identical no matter which
  /// backend trains or loads the model (scalar-vs-dispatched searches then
  /// disagree only through the shared float LUT rounding, as the 4-bit path
  /// already does).
  std::vector<float> cross;

  size_t num_chunks() const { return a.num_chunks(); }
  size_t sub_dim() const { return a.sub_dim(); }

  /// Fills `cross` from the current a/b words.
  void PrecomputeCross();

  /// Sum of the cross terms selected by one m-byte code — the per-vector
  /// constant an index stores next to the code (one float per vector).
  float CrossSum(const uint8_t* code) const {
    float acc = 0.f;
    for (size_t j = 0; j < num_chunks(); ++j) {
      acc += cross[j * 256 + code[j]];
    }
    return acc;
  }
};

/// Trains the split regime on `train`: per chunk, level-1 k-means (16 words)
/// then level-2 k-means on the residuals, materialized as a 256-word product
/// codebook with the SplitPqModel attached. Requires nbits == 8 with
/// K = 256 (the default); plain 4-bit FastScan covers K <= 16. Requires
/// m <= 128, so the 2m-row table fits FastScan's 256-row cap.
std::unique_ptr<PqQuantizer> TrainSplitPq(const Dataset& train,
                                          const PqOptions& options);

/// Rebuilds a split quantizer from its level codebooks (deserialization):
/// materializes the product codebook and recomputes the cross table — both
/// deterministic functions of A and B, so files only persist the levels.
std::unique_ptr<PqQuantizer> MakeSplitQuantizer(Codebook a, Codebook b);

/// Expands one m-byte split code into the 2m-nibble sequence whose
/// PackedCodes::Pack layout equals the split block layout: out[2j] = low
/// nibble (B index), out[2j + 1] = high nibble (A index). Used to feed
/// split codes through the existing 4-bit packing plumbing.
inline void ExpandSplitCode(const uint8_t* code, size_t m, uint8_t* out) {
  for (size_t j = 0; j < m; ++j) {
    out[2 * j] = static_cast<uint8_t>(code[j] & 0x0f);
    out[2 * j + 1] = static_cast<uint8_t>(code[j] >> 4);
  }
}

/// The split regime's query-time table: an ordinary FastScanTable with 2m
/// rows (row 2j = v_j for the low nibble, row 2j+1 = u_j for the high
/// nibble), scanned at m2 = 2m by the same simd::AdcFastScan[Multi] kernels
/// as any 4-bit table. A code's estimate is
///
///   Distance(expanded code) + SplitPqModel::CrossSum(code)
///
/// over the ExpandSplitCode output, and |estimate - float ADC| stays within
/// ErrorBound() as in the 4-bit path (the cross term is carried in float, so
/// it adds no rounding error). This overload takes an already-rotated query —
/// the IVF residual path hands in q - centroid directly.
FastScanTable SplitTable(const SplitPqModel& model, const float* rotated_query);

/// Same, for one original-space query: applies the quantizer's rotation
/// first. The quantizer must be split-trained (split_model() != null).
FastScanTable SplitTable(const PqQuantizer& quantizer, const float* query);

}  // namespace rpq::quant
