// Parity tests for the SIMD kernel subsystem: every dispatched kernel must
// agree with the scalar reference across odd dimensions, unaligned pointers,
// and batch remainders. The ADC kernels, and L2ToMany below sub-dim 4, must
// agree bit-for-bit (they promise scalar accumulation order); the other float
// kernels get 1e-4 relative tolerance because FMA/width changes the
// summation tree.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "quant/adc.h"
#include "quant/pq.h"
#include "simd/simd.h"

namespace rpq::simd {
namespace {

constexpr float kRelTol = 1e-4f;

void ExpectClose(float got, float want) {
  float scale = std::max(1.0f, std::abs(want));
  EXPECT_NEAR(got, want, kRelTol * scale);
}

std::vector<float> RandomVec(size_t n, Rng* rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = rng->Gaussian();
  return v;
}

const size_t kDims[] = {1, 2, 7, 8, 15, 16, 31, 96, 128, 960};

TEST(SimdKernelTest, ActiveBackendIsReported) {
  ASSERT_NE(ActiveKernelName(), nullptr);
  const char* disable = std::getenv("RPQ_DISABLE_SIMD");
  if (disable != nullptr && disable[0] != '\0' && disable[0] != '0') {
    EXPECT_STREQ(ActiveKernelName(), "scalar");
  }
}

TEST(SimdKernelTest, SquaredL2MatchesScalar) {
  Rng rng(1);
  for (size_t d : kDims) {
    auto a = RandomVec(d, &rng);
    auto b = RandomVec(d, &rng);
    ExpectClose(Ops().squared_l2(a.data(), b.data(), d),
                ScalarOps().squared_l2(a.data(), b.data(), d));
  }
}

TEST(SimdKernelTest, DotMatchesScalar) {
  Rng rng(2);
  for (size_t d : kDims) {
    auto a = RandomVec(d, &rng);
    auto b = RandomVec(d, &rng);
    ExpectClose(Ops().dot(a.data(), b.data(), d),
                ScalarOps().dot(a.data(), b.data(), d));
  }
}

TEST(SimdKernelTest, SquaredNormMatchesScalar) {
  Rng rng(3);
  for (size_t d : kDims) {
    auto a = RandomVec(d, &rng);
    ExpectClose(Ops().squared_norm(a.data(), d),
                ScalarOps().squared_norm(a.data(), d));
  }
}

TEST(SimdKernelTest, UnalignedPointersMatchScalar) {
  Rng rng(4);
  for (size_t d : kDims) {
    // Shift both operands one float off any natural vector alignment.
    auto a = RandomVec(d + 1, &rng);
    auto b = RandomVec(d + 1, &rng);
    ExpectClose(Ops().squared_l2(a.data() + 1, b.data() + 1, d),
                ScalarOps().squared_l2(a.data() + 1, b.data() + 1, d));
    ExpectClose(Ops().dot(a.data() + 1, b.data() + 1, d),
                ScalarOps().dot(a.data() + 1, b.data() + 1, d));
  }
}

TEST(SimdKernelTest, L2ToManyMatchesScalar) {
  Rng rng(5);
  // d = 2 takes the cross-centroid kernel (eight centroids per iteration),
  // 1-8 the cross-row small-dim kernel, 9-15 the mid-dim cross-row kernel
  // (two loads per row), and the rest the wide per-row path. The n values
  // straddle the 8-wide and 4-wide bodies and their tails; 256 is a K = 256
  // table chunk.
  for (size_t d : {size_t(1), size_t(2), size_t(3), size_t(4), size_t(5),
                   size_t(6), size_t(7), size_t(8), size_t(9), size_t(10),
                   size_t(11), size_t(12), size_t(13), size_t(14), size_t(15),
                   size_t(16), size_t(96), size_t(128)}) {
    for (size_t n : {size_t(1), size_t(3), size_t(7), size_t(8), size_t(9),
                     size_t(17), size_t(64), size_t(256)}) {
      auto q = RandomVec(d, &rng);
      auto base = RandomVec(n * d, &rng);
      std::vector<float> got(n), want(n);
      Ops().l2_to_many(q.data(), base.data(), n, d, got.data());
      ScalarOps().l2_to_many(q.data(), base.data(), n, d, want.data());
      for (size_t i = 0; i < n; ++i) {
        if (d <= 3) {
          // Below sub-dim 4 every backend promises the scalar summation
          // order: (0 + dx^2) + dy^2 ..., bit for bit.
          EXPECT_EQ(got[i], want[i]) << "d=" << d << " n=" << n << " i=" << i;
        } else {
          ExpectClose(got[i], want[i]);
        }
      }
    }
  }
}

// Reference single-code scan, accumulation in chunk order.
float AdcOneRef(const float* table, size_t m, size_t k, const uint8_t* code) {
  float acc = 0.f;
  for (size_t j = 0; j < m; ++j) acc += table[j * k + code[j]];
  return acc;
}

TEST(SimdKernelTest, AdcBatchMatchesScalarBitExactly) {
  Rng rng(6);
  for (size_t m : {size_t(1), size_t(8), size_t(16), size_t(60)}) {
    for (size_t k : {size_t(16), size_t(256)}) {
      auto table = RandomVec(m * k, &rng);
      // Batch sizes straddling all the unroll remainders (16, 8, scalar tail).
      for (size_t n : {size_t(1), size_t(4), size_t(7), size_t(8), size_t(9),
                       size_t(17), size_t(64), size_t(69)}) {
        std::vector<uint8_t> codes(n * m);
        for (auto& c : codes) c = static_cast<uint8_t>(rng.UniformIndex(k));
        std::vector<float> got(n);
        Ops().adc_batch(table.data(), m, k, codes.data(), m, n, got.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(got[i], AdcOneRef(table.data(), m, k, codes.data() + i * m))
              << "m=" << m << " k=" << k << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, AdcBatchHonorsStride) {
  Rng rng(7);
  const size_t m = 8, k = 64, n = 21, stride = m + 5;
  auto table = RandomVec(m * k, &rng);
  std::vector<uint8_t> codes(n * stride);
  for (auto& c : codes) c = static_cast<uint8_t>(rng.UniformIndex(k));
  std::vector<float> got(n);
  Ops().adc_batch(table.data(), m, k, codes.data(), stride, n, got.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], AdcOneRef(table.data(), m, k, codes.data() + i * stride));
  }
}

TEST(SimdKernelTest, AdcBatchGatherMatchesScalarBitExactly) {
  Rng rng(8);
  const size_t m = 16, k = 256, num_codes = 200;
  auto table = RandomVec(m * k, &rng);
  std::vector<uint8_t> codes(num_codes * m);
  for (auto& c : codes) c = static_cast<uint8_t>(rng.UniformIndex(k));
  for (size_t n : {size_t(1), size_t(8), size_t(13), size_t(33), size_t(80)}) {
    std::vector<uint32_t> ids(n);
    for (auto& id : ids) id = static_cast<uint32_t>(rng.UniformIndex(num_codes));
    std::vector<float> got(n);
    Ops().adc_batch_gather(table.data(), m, k, codes.data(), m, ids.data(), n,
                           got.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i],
                AdcOneRef(table.data(), m, k, codes.data() + ids[i] * m));
    }
  }
}

// FastScan shuffle kernel: raw u16 sums must match the scalar reference
// bit-for-bit (pure integer adds) across odd row counts and block tails.
// m2 = 32 is the shipped K = 256 split shape (m = 16 code bytes, 2m rows).
TEST(SimdKernelTest, AdcFastScanMatchesScalarBitExactly) {
  Rng rng(10);
  for (size_t m2 : {size_t(2), size_t(8), size_t(16), size_t(32), size_t(34),
                    size_t(62)}) {
    for (size_t n_blocks : {size_t(1), size_t(2), size_t(5)}) {
      std::vector<uint8_t> lut8(m2 * 16);
      for (auto& v : lut8) v = static_cast<uint8_t>(rng.UniformIndex(256));
      // Any byte pattern is a valid packed block (both nibbles are in
      // [0, 16)), so random bytes cover the full index space.
      std::vector<uint8_t> packed(n_blocks * 16 * m2);
      for (auto& v : packed) v = static_cast<uint8_t>(rng.UniformIndex(256));
      std::vector<uint16_t> got(n_blocks * 32), want(n_blocks * 32);
      Ops().adc_fastscan(lut8.data(), m2, packed.data(), n_blocks, got.data());
      ScalarOps().adc_fastscan(lut8.data(), m2, packed.data(), n_blocks,
                               want.data());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], want[i])
            << "m2=" << m2 << " blocks=" << n_blocks << " i=" << i;
      }
    }
  }
}

// Multi-query FastScan: query-major sums must match the scalar reference —
// which is literally nq single-query scans — bit-for-bit, across query
// counts straddling every tile width (4/2/1 on x86, 2/1 on NEON).
TEST(SimdKernelTest, AdcFastScanMultiMatchesScalarBitExactly) {
  Rng rng(11);
  for (size_t m2 : {size_t(2), size_t(8), size_t(16), size_t(32), size_t(34)}) {
    for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(4), size_t(5),
                      size_t(7), size_t(8), size_t(9)}) {
      for (size_t n_blocks : {size_t(1), size_t(3)}) {
        std::vector<uint8_t> luts(nq * m2 * 16);
        for (auto& v : luts) v = static_cast<uint8_t>(rng.UniformIndex(256));
        std::vector<uint8_t> packed(n_blocks * 16 * m2);
        for (auto& v : packed) v = static_cast<uint8_t>(rng.UniformIndex(256));
        std::vector<uint16_t> got(nq * n_blocks * 32), want(nq * n_blocks * 32);
        Ops().adc_fastscan_multi(luts.data(), nq, m2, packed.data(), n_blocks,
                                 got.data());
        ScalarOps().adc_fastscan_multi(luts.data(), nq, m2, packed.data(),
                                       n_blocks, want.data());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "m2=" << m2 << " nq=" << nq << " blocks=" << n_blocks
              << " i=" << i;
        }
      }
    }
  }
}

// And against the dispatched single-query kernel: batching queries must not
// change any query's sums — including at the split shapes (m2 = 2m = 32 and
// 34), where IVF's residual groups batch per-cell split tables.
TEST(SimdKernelTest, AdcFastScanMultiMatchesSingleQueryScans) {
  Rng rng(12);
  const size_t n_blocks = 4;
  for (size_t m2 : {size_t(16), size_t(32), size_t(34)}) {
    for (size_t nq : {size_t(1), size_t(2), size_t(3), size_t(5), size_t(6),
                      size_t(8)}) {
      std::vector<uint8_t> luts(nq * m2 * 16);
      for (auto& v : luts) v = static_cast<uint8_t>(rng.UniformIndex(256));
      std::vector<uint8_t> packed(n_blocks * 16 * m2);
      for (auto& v : packed) v = static_cast<uint8_t>(rng.UniformIndex(256));
      std::vector<uint16_t> multi(nq * n_blocks * 32), single(n_blocks * 32);
      Ops().adc_fastscan_multi(luts.data(), nq, m2, packed.data(), n_blocks,
                               multi.data());
      for (size_t q = 0; q < nq; ++q) {
        Ops().adc_fastscan(luts.data() + q * m2 * 16, m2, packed.data(),
                           n_blocks, single.data());
        for (size_t i = 0; i < single.size(); ++i) {
          ASSERT_EQ(multi[q * n_blocks * 32 + i], single[i])
              << "m2=" << m2 << " nq=" << nq << " q=" << q << " i=" << i;
        }
      }
    }
  }
}

TEST(SimdKernelTest, AdcTableBatchAgreesWithSingleCodeDistance) {
  // End-to-end through a trained quantizer: DistanceBatch and
  // DistanceBatchGather must reproduce per-code Distance().
  Rng rng(9);
  const size_t n = 300, d = 32;
  std::vector<float> data(n * d);
  for (auto& x : data) x = rng.Gaussian();
  Dataset train(n, d, std::move(data));
  quant::PqOptions opt;
  opt.m = 8;
  opt.k = 16;
  opt.kmeans_iters = 3;
  auto pq = quant::PqQuantizer::Train(train, opt);
  auto codes = pq->EncodeDataset(train);
  quant::AdcTable table(*pq, train[0]);

  std::vector<float> batch(n);
  table.DistanceBatch(codes.data(), n, batch.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(batch[i], table.Distance(codes.data() + i * pq->code_size()));
  }

  std::vector<uint32_t> ids = {5, 0, 299, 17, 17, 42, 100, 1, 255, 3, 9};
  std::vector<float> gathered(ids.size());
  table.DistanceBatchGather(codes.data(), pq->code_size(), ids.data(),
                            ids.size(), gathered.data());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(gathered[i],
              table.Distance(codes.data() + ids[i] * pq->code_size()));
  }
}

}  // namespace
}  // namespace rpq::simd
