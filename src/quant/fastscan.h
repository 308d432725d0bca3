// FastScan / Quick-ADC style scan path for 4-bit PQ (K <= 16): the query's
// lookup table is quantized to uint8 with one shared scale, database codes
// are re-laid-out into transposed 32-code blocks, and the SIMD subsystem
// scores a whole block row per in-register shuffle (simd::AdcFastScan).
// Distances come back as integer LUT sums that one affine map (bias +
// scale * sum) turns into the familiar squared-distance estimate:
//
//   float LUT   t[j][c]                     (m rows of K <= 16 entries)
//   u8 LUT      t8[j][c] = round((t[j][c] - min_j) / scale)
//   estimate    bias + scale * sum_j t8[j][code_j],  bias = sum_j min_j
//
// |estimate - float ADC| <= 0.5 * scale * m (ErrorBound()), which a cheap
// float-ADC rerank of the top candidates recovers — see
// core::MemoryIndex Search with DistanceMode::kFastScan.
//
// Code layout (PackedCodes::Pack): codes are grouped into blocks of 32, and
// within a block stored sub-quantizer-major as m2/2 rows of 32 bytes (m2 = m
// rounded up to even); row p, byte i holds code i's 4-bit index for
// sub-quantizer 2p in the low nibble and 2p+1 in the high nibble. One 32-byte
// row is exactly one AVX2 shuffle operand; tails are zero-padded.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "quant/adc.h"
#include "quant/quantizer.h"

namespace rpq::quant {

/// The one FastScan capability rule: a quantizer's codes can be scored
/// through u8 shuffle tables when they are 4-bit (K <= 16, m table rows) or
/// K = 256 split-trained (quant/split.h, 2m rows), and the rows fit the
/// 256-row cap FastScanTable and PackedCodes share. Graph neighbor blocks
/// hold 4-bit codes only, so graph callers also require K <= 16.
bool FastScanCapable(const VectorQuantizer& quantizer);

/// Flat array of 4-bit codes in the blocked, transposed FastScan layout.
struct PackedCodes {
  static constexpr size_t kBlockCodes = 32;  ///< codes per block

  size_t num_codes = 0;
  size_t m = 0;   ///< sub-quantizers per code (unpadded)
  size_t m2 = 0;  ///< m rounded up to even (layout rows = m2/2)
  std::vector<uint8_t> data;

  size_t block_bytes() const { return 16 * m2; }
  size_t num_blocks() const { return (num_codes + kBlockCodes - 1) / kBlockCodes; }

  /// Re-lays out n byte-per-chunk codes (every byte < 16) into blocks.
  /// n = 0 yields an empty, appendable layout of the given code_size.
  static PackedCodes Pack(const uint8_t* codes, size_t n, size_t code_size);

  /// Appends one byte-per-chunk code in place: the tail block's zero padding
  /// becomes the new slot (a fresh zeroed block is grown when full), so
  /// streaming inserts — IVF lists take cheap appends instead of the graph
  /// repair a proximity-graph insert needs — never re-lay existing codes.
  void Append(const uint8_t* code);

  /// Code i's index for sub-quantizer j (test/debug accessor).
  uint8_t At(size_t i, size_t j) const;
};

/// Query-time FastScan state: the u8-quantized lookup table plus the affine
/// map back to float distances. Built from any 4-bit-capable quantizer
/// (num_centroids() <= 16) or from an existing float DistanceLut so the
/// float table is computed once and shared with the rerank pass.
class FastScanTable {
 public:
  FastScanTable(const VectorQuantizer& quantizer, const float* query);
  explicit FastScanTable(const DistanceLut& lut);
  /// Builds from a raw m x k float table (k <= 16) the caller computed
  /// itself — split tables (quant/split.h) hand in their interleaved 2m-row
  /// per-level table directly without routing through a quantizer.
  FastScanTable(const float* table, size_t m, size_t k);

  size_t num_chunks() const { return m_; }     ///< m (unpadded)
  size_t padded_chunks() const { return m2_; } ///< m2 (even, layout rows * 2)
  const uint8_t* lut8() const { return lut8_.data(); }
  float bias() const { return bias_; }
  float scale() const { return scale_; }

  /// Maps a raw kernel sum to the float distance estimate.
  float DecodeSum(uint32_t sum) const {
    return bias_ + scale_ * static_cast<float>(sum);
  }

  /// Worst-case |estimate - float ADC distance| from u8 LUT rounding.
  float ErrorBound() const { return 0.5f * scale_ * static_cast<float>(m_); }

  /// Estimate for one unpacked byte-per-chunk code — the same integer sum the
  /// kernels produce, so it is bit-identical to the blocked scan.
  float Distance(const uint8_t* code) const {
    uint32_t sum = 0;
    for (size_t j = 0; j < m_; ++j) sum += lut8_[j * 16 + code[j]];
    return DecodeSum(sum);
  }

  /// Raw u16 sums for n_blocks packed blocks (32 sums per block).
  void ScanBlocks(const uint8_t* packed, size_t n_blocks, uint16_t* sums) const;

  /// Flat scan: float distance estimates for all packed codes.
  void Scan(const PackedCodes& packed, float* out) const;

 private:
  void Quantize(const float* table, size_t k);

  size_t m_ = 0, m2_ = 0;
  float bias_ = 0.f, scale_ = 0.f;
  std::vector<uint8_t> lut8_;  // m2 x 16, padded rows zero
};

/// Per-vertex packed adjacency codes: for every vertex, the 4-bit codes of
/// its graph neighbors (in adjacency order) stored as FastScan blocks. This
/// duplicates each code once per in-edge — the classic FastScan-on-graph
/// trade: ~deg * m/2 bytes per vertex buys scoring a whole expansion with
/// register-resident shuffles instead of per-neighbor table gathers.
struct PackedNeighborBlocks {
  size_t m = 0;
  size_t m2 = 0;
  std::vector<uint8_t> data;
  std::vector<uint64_t> offsets;  ///< per-vertex byte offset (size n + 1)

  size_t block_bytes() const { return 16 * m2; }
  size_t MemoryBytes() const {
    return data.size() + offsets.size() * sizeof(uint64_t);
  }

  static PackedNeighborBlocks Build(const graph::ProximityGraph& graph,
                                    const uint8_t* codes, size_t code_size);
};

/// Beam-search oracle for the FastScan path. BeamSearch detects
/// ScoreNeighbors() and scores a vertex's whole adjacency in one pass; the
/// single-vertex form (entry points) uses the same u8 LUT, so every estimate
/// in a query comes from one estimator. Per-query object — the scratch
/// buffer makes it cheap to construct but not shareable across threads.
class FastScanNeighborOracle {
 public:
  FastScanNeighborOracle(const FastScanTable& table, const uint8_t* codes,
                         size_t code_size, const PackedNeighborBlocks& blocks)
      : table_(table), codes_(codes), code_size_(code_size), blocks_(blocks) {}

  float operator()(uint32_t v) const {
    return table_.Distance(codes_ + static_cast<size_t>(v) * code_size_);
  }

  /// Starts pulling v's packed block toward L1. The beam search calls this
  /// for the likely next expansion while it finishes the current one, hiding
  /// the block's cache-miss latency behind the loop turn.
  void PrefetchNeighbors(uint32_t v) const {
#if defined(__GNUC__) || defined(__clang__)
    const uint8_t* p = blocks_.data.data() + blocks_.offsets[v];
    const size_t bytes = blocks_.offsets[v + 1] - blocks_.offsets[v];
    for (size_t off = 0; off < bytes && off < 512; off += 64) {
      __builtin_prefetch(p + off);
    }
#else
    (void)v;
#endif
  }

  /// Estimates for all `n` neighbors of v (n must be v's full degree, in
  /// adjacency order — the order the blocks were packed in). Inline: this
  /// runs once per beam-search expansion.
  void ScoreNeighbors(uint32_t v, const uint32_t* nbrs, size_t n,
                      float* out) const {
    (void)nbrs;  // blocks are packed in adjacency order; ids only name outputs
    if (n == 0) return;
    const size_t n_blocks =
        (n + PackedCodes::kBlockCodes - 1) / PackedCodes::kBlockCodes;
    sums_.resize(n_blocks * PackedCodes::kBlockCodes);
    table_.ScanBlocks(blocks_.data.data() + blocks_.offsets[v], n_blocks,
                      sums_.data());
    const float bias = table_.bias(), scale = table_.scale();
    for (size_t i = 0; i < n; ++i) {
      out[i] = bias + scale * static_cast<float>(sums_[i]);
    }
  }

 private:
  const FastScanTable& table_;
  const uint8_t* codes_;
  size_t code_size_;
  const PackedNeighborBlocks& blocks_;
  mutable std::vector<uint16_t> sums_;  // per-query scratch
};

}  // namespace rpq::quant
