// Parity tests for the SIMD kernel subsystem: every dispatched kernel must
// agree with the scalar reference across odd dimensions, unaligned pointers,
// and batch remainders. The FastScan kernels, and L2ToMany below sub-dim 4,
// must agree bit-for-bit (integer sums; scalar accumulation order); the other
// float kernels get 1e-4 relative tolerance because FMA/width changes the
// summation tree. The float ADC table scan has one loop, DistanceLut's, and
// the last test pins its batched forms to the single-code Distance().
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
  const std::string name = ActiveKernelName();
  EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "avx512" ||
              name == "neon")
      << name;
  const char* force = std::getenv("RPQ_SIMD");
  if (force != nullptr && std::string(force) == "scalar") {
    EXPECT_EQ(name, "scalar");
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
  // DistanceBatchGather must reproduce per-code Distance(). The scan runs
  // four codes per iteration, so the batch sizes cover 0-3 codes left for
  // its tail.
  Rng rng(9);
  const size_t num_codes = 300, d = 32;
  std::vector<float> data(num_codes * d);
  for (auto& x : data) x = rng.Gaussian();
  Dataset train(num_codes, d, std::move(data));
  quant::PqOptions opt;
  opt.m = 8;
  opt.k = 16;
  opt.kmeans_iters = 3;
  auto pq = quant::PqQuantizer::Train(train, opt);
  auto codes = pq->EncodeDataset(train);
  const size_t cs = pq->code_size();
  quant::AdcTable table(*pq, train[0]);

  for (size_t n : {size_t(1), size_t(2), size_t(3), size_t(4), size_t(297),
                   size_t(298), size_t(299), size_t(300)}) {
    std::vector<float> batch(n);
    table.DistanceBatch(codes.data(), n, batch.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch[i], table.Distance(codes.data() + i * cs))
          << "n=" << n << " i=" << i;
    }
  }

  const std::vector<uint32_t> ids = {5,   0, 299, 17, 17, 42,
                                     100, 1, 255, 3,  9,  299};
  for (size_t n = 1; n <= ids.size(); ++n) {
    std::vector<float> gathered(n);
    table.DistanceBatchGather(codes.data(), cs, ids.data(), n,
                              gathered.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(gathered[i], table.Distance(codes.data() + ids[i] * cs))
          << "n=" << n << " i=" << i;
    }
  }
}

}  // namespace
}  // namespace rpq::simd
