// Asymmetric Distance Computation (ADC) helpers [37]: the query builds one
// lookup table of sub-distances; any database code's distance is then M table
// reads + adds. DistanceLut owns the one batched scan: four codes per
// iteration in four independent add chains.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/pq.h"
#include "quant/quantizer.h"

namespace rpq::quant {

/// Query-time lookup-table state shared by ADC and SDC:
/// table[j*K + k] = delta(query chunk j, codeword k). Supports single-code
/// and batched scans; the batched scans accumulate in the same chunk order
/// as Distance(), so all of them agree bit-for-bit.
class DistanceLut {
 public:
  /// Estimated squared distance of one code to the query.
  float Distance(const uint8_t* code) const {
    float acc = 0;
    const float* t = table_.data();
    for (size_t j = 0; j < m_; ++j, t += k_) acc += t[code[j]];
    return acc;
  }

  /// Batched scan over n contiguous codes (code i at codes + i*num_chunks()).
  void DistanceBatch(const uint8_t* codes, size_t n, float* out) const;

  /// Batched scan of codes addressed by vertex id: code for out[i] starts at
  /// codes + ids[i]*code_stride. This is the beam-search expansion kernel.
  void DistanceBatchGather(const uint8_t* codes, size_t code_stride,
                           const uint32_t* ids, size_t n, float* out) const;

  size_t num_chunks() const { return m_; }
  size_t num_centroids() const { return k_; }
  const float* data() const { return table_.data(); }

 protected:
  DistanceLut(size_t m, size_t k) : m_(m), k_(k), table_(m * k) {}

  size_t m_, k_;
  std::vector<float> table_;
};

/// Query-time ADC state: the query stays exact, database codes are quantized.
class AdcTable : public DistanceLut {
 public:
  AdcTable(const VectorQuantizer& quantizer, const float* query)
      : DistanceLut(quantizer.num_chunks(), quantizer.num_centroids()) {
    quantizer.BuildLookupTable(query, table_.data());
  }
};

/// Query-time SDC state: the query is quantized first, then distances are
/// codeword-to-codeword lookups within each sub-codebook (computed in the
/// rotated space, where the per-chunk decomposition is exact). Higher
/// distance error than ADC — the trade-off §3.1 of the paper discusses; the
/// design-ablation bench quantifies it.
class SdcTable : public DistanceLut {
 public:
  /// Works for the whole PQ family (plain PQ, OPQ, deployed RPQ).
  SdcTable(const PqQuantizer& quantizer, const float* query);
};

/// Distance oracle over a flat n x code_size code array. Usable directly as a
/// BeamSearch DistFn: exposes both the single-vertex call and the batched
/// call, and BeamSearch picks the batched one.
struct AdcBatchOracle {
  const DistanceLut& lut;
  const uint8_t* codes;
  size_t code_size;

  float operator()(uint32_t v) const {
    return lut.Distance(codes + static_cast<size_t>(v) * code_size);
  }
  void operator()(const uint32_t* ids, size_t n, float* out) const {
    lut.DistanceBatchGather(codes, code_size, ids, n, out);
  }
};

/// Symmetric distance (SDC): both sides quantized; provided for completeness
/// and tests (the paper, like DiskANN, uses ADC in all experiments).
float SymmetricDistance(const VectorQuantizer& quantizer, const uint8_t* code_a,
                        const uint8_t* code_b);

}  // namespace rpq::quant
