#include "quant/fastscan.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "simd/simd.h"

namespace rpq::quant {
namespace {

// Packs one code's nibbles into the block holding slot `slot`.
inline void PackCode(const uint8_t* code, size_t m, uint8_t* block,
                     size_t slot) {
  for (size_t j = 0; j < m; ++j) {
    RPQ_CHECK(code[j] < 16 && "FastScan requires 4-bit codes (K <= 16)");
    uint8_t* cell = block + (j / 2) * 32 + slot;
    if ((j & 1) == 0) {
      *cell = static_cast<uint8_t>((*cell & 0xf0) | code[j]);
    } else {
      *cell = static_cast<uint8_t>((*cell & 0x0f) | (code[j] << 4));
    }
  }
}

}  // namespace

bool FastScanCapable(const VectorQuantizer& quantizer) {
  const size_t m = quantizer.num_chunks();
  if (quantizer.split_model() != nullptr) return 2 * m <= 256;
  return quantizer.num_centroids() <= 16 && m <= 256;
}

PackedCodes PackedCodes::Pack(const uint8_t* codes, size_t n,
                              size_t code_size) {
  RPQ_CHECK(code_size > 0 && code_size <= 256);
  PackedCodes out;
  out.num_codes = n;
  out.m = code_size;
  out.m2 = code_size + (code_size & 1);
  out.data.assign(out.num_blocks() * out.block_bytes(), 0);
  for (size_t i = 0; i < n; ++i) {
    uint8_t* block = out.data.data() + (i / kBlockCodes) * out.block_bytes();
    PackCode(codes + i * code_size, code_size, block, i % kBlockCodes);
  }
  return out;
}

void PackedCodes::Append(const uint8_t* code) {
  RPQ_CHECK(m > 0 && "Append on a default-constructed PackedCodes");
  if (num_codes % kBlockCodes == 0) data.resize(data.size() + block_bytes(), 0);
  uint8_t* block = data.data() + (num_codes / kBlockCodes) * block_bytes();
  PackCode(code, m, block, num_codes % kBlockCodes);
  ++num_codes;
}

uint8_t PackedCodes::At(size_t i, size_t j) const {
  const uint8_t* block = data.data() + (i / kBlockCodes) * block_bytes();
  uint8_t cell = block[(j / 2) * 32 + (i % kBlockCodes)];
  return (j & 1) == 0 ? (cell & 0x0f) : (cell >> 4);
}

FastScanTable::FastScanTable(const VectorQuantizer& quantizer,
                             const float* query) {
  const size_t k = quantizer.num_centroids();
  m_ = quantizer.num_chunks();
  std::vector<float> table(m_ * k);
  quantizer.BuildLookupTable(query, table.data());
  Quantize(table.data(), k);
}

FastScanTable::FastScanTable(const DistanceLut& lut) {
  m_ = lut.num_chunks();
  Quantize(lut.data(), lut.num_centroids());
}

FastScanTable::FastScanTable(const float* table, size_t m, size_t k) {
  m_ = m;
  Quantize(table, k);
}

void FastScanTable::Quantize(const float* table, size_t k) {
  RPQ_CHECK(k > 0 && k <= 16 && "FastScan requires K <= 16 (4-bit codes)");
  RPQ_CHECK(m_ > 0 && m_ <= 256);
  m2_ = m_ + (m_ & 1);
  lut8_.assign(m2_ * 16, 0);

  // Shared scale: per-chunk minima fold into the bias, one delta quantizes
  // every chunk so the kernel's plain integer sum stays meaningful.
  bias_ = 0.f;
  float max_span = 0.f;
  std::vector<float> mins(m_);
  for (size_t j = 0; j < m_; ++j) {
    const float* row = table + j * k;
    float mn = row[0], mx = row[0];
    for (size_t c = 1; c < k; ++c) {
      mn = std::min(mn, row[c]);
      mx = std::max(mx, row[c]);
    }
    mins[j] = mn;
    bias_ += mn;
    max_span = std::max(max_span, mx - mn);
  }
  scale_ = max_span > 0.f ? max_span / 255.f : 1.f;

  // Reciprocal multiply instead of a per-entry divide, and round-half-up
  // instead of lround: this runs on every query, right before the search.
  const float inv_scale = 1.f / scale_;
  for (size_t j = 0; j < m_; ++j) {
    const float* row = table + j * k;
    for (size_t c = 0; c < k; ++c) {
      float q = (row[c] - mins[j]) * inv_scale;
      lut8_[j * 16 + c] =
          static_cast<uint8_t>(std::min(q, 255.f) + 0.5f);
    }
  }
}

void FastScanTable::ScanBlocks(const uint8_t* packed, size_t n_blocks,
                               uint16_t* sums) const {
  simd::AdcFastScan(lut8_.data(), m2_, packed, n_blocks, sums);
}

void FastScanTable::Scan(const PackedCodes& packed, float* out) const {
  RPQ_CHECK_EQ(packed.m2, m2_);
  std::vector<uint16_t> sums(packed.num_blocks() * PackedCodes::kBlockCodes);
  ScanBlocks(packed.data.data(), packed.num_blocks(), sums.data());
  for (size_t i = 0; i < packed.num_codes; ++i) out[i] = DecodeSum(sums[i]);
}

PackedNeighborBlocks PackedNeighborBlocks::Build(
    const graph::ProximityGraph& graph, const uint8_t* codes,
    size_t code_size) {
  RPQ_CHECK(code_size > 0 && code_size <= 256);
  PackedNeighborBlocks out;
  out.m = code_size;
  out.m2 = code_size + (code_size & 1);
  const size_t n = graph.num_vertices();
  const size_t bb = out.block_bytes();

  out.offsets.resize(n + 1);
  size_t total = 0;
  for (uint32_t v = 0; v < n; ++v) {
    out.offsets[v] = total;
    const size_t deg = graph.Neighbors(v).size();
    total += (deg + PackedCodes::kBlockCodes - 1) / PackedCodes::kBlockCodes * bb;
  }
  out.offsets[n] = total;

  out.data.assign(total, 0);
  for (uint32_t v = 0; v < n; ++v) {
    const auto& nbrs = graph.Neighbors(v);
    uint8_t* base = out.data.data() + out.offsets[v];
    for (size_t i = 0; i < nbrs.size(); ++i) {
      uint8_t* block = base + (i / PackedCodes::kBlockCodes) * bb;
      PackCode(codes + static_cast<size_t>(nbrs[i]) * code_size, code_size,
               block, i % PackedCodes::kBlockCodes);
    }
  }
  return out;
}

}  // namespace rpq::quant
