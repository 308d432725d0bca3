#include "quant/adc.h"

#include "common/distance.h"
#include "common/thread_pool.h"

namespace rpq::quant {
namespace {

// Four independent accumulator chains hide the add latency that dominates
// the one-code loop; each chain still sums in chunk order, as Distance()
// does. AVX2 and AVX-512 gather (vpgatherdps) kernels both measured slower
// than this loop on an AVX-512 Xeon, so it is the only batched scan.
template <typename CodeAt>
void ScanFourChains(const DistanceLut& lut, CodeAt code_at, size_t n,
                    float* out) {
  const size_t m = lut.num_chunks();
  const size_t k = lut.num_centroids();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint8_t* c0 = code_at(i);
    const uint8_t* c1 = code_at(i + 1);
    const uint8_t* c2 = code_at(i + 2);
    const uint8_t* c3 = code_at(i + 3);
    float a0 = 0.f, a1 = 0.f, a2 = 0.f, a3 = 0.f;
    const float* t = lut.data();
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
  for (; i < n; ++i) out[i] = lut.Distance(code_at(i));
}

}  // namespace

void DistanceLut::DistanceBatch(const uint8_t* codes, size_t n,
                                float* out) const {
  ScanFourChains(
      *this, [&](size_t i) { return codes + i * m_; }, n, out);
}

void DistanceLut::DistanceBatchGather(const uint8_t* codes, size_t code_stride,
                                      const uint32_t* ids, size_t n,
                                      float* out) const {
  ScanFourChains(
      *this,
      [&](size_t i) {
        return codes + static_cast<size_t>(ids[i]) * code_stride;
      },
      n, out);
}

std::vector<uint8_t> VectorQuantizer::EncodeDataset(const Dataset& data,
                                                    ThreadPool* pool) const {
  const size_t cs = code_size();
  std::vector<uint8_t> codes(data.size() * cs);
  uint8_t* out = codes.data();
  ParallelFor(pool != nullptr ? pool : SharedPool(), data.size(),
              [&](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i) {
                  Encode(data[i], out + i * cs);
                }
              });
  return codes;
}

float SymmetricDistance(const VectorQuantizer& quantizer, const uint8_t* code_a,
                        const uint8_t* code_b) {
  // Scratch survives across calls: SDC is invoked per candidate pair in the
  // ablation benches, and two heap allocations per call dominated it.
  thread_local std::vector<float> a, b;
  const size_t d = quantizer.decoded_dim();
  a.resize(d);
  b.resize(d);
  quantizer.Decode(code_a, a.data());
  quantizer.Decode(code_b, b.data());
  return SquaredL2(a.data(), b.data(), d);
}

SdcTable::SdcTable(const PqQuantizer& quantizer, const float* query)
    : DistanceLut(quantizer.num_chunks(), quantizer.num_centroids()) {
  std::vector<uint8_t> qcode(quantizer.code_size());
  quantizer.Encode(query, qcode.data());
  const Codebook& book = quantizer.codebook();
  size_t sub = book.sub_dim();
  for (size_t j = 0; j < m_; ++j) {
    simd::L2ToMany(book.Word(j, qcode[j]), book.Chunk(j), k_, sub,
                   table_.data() + j * k_);
  }
}

}  // namespace rpq::quant
