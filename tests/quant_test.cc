#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/distance.h"
#include "common/rng.h"
#include "data/synthetic.h"
#include "linalg/matexp.h"
#include "quant/adc.h"
#include "quant/kmeans.h"
#include "quant/opq.h"
#include "quant/pq.h"
#include "quant/split.h"
#include "simd/simd.h"

namespace rpq::quant {
namespace {

Dataset TestData(size_t n = 600, uint64_t seed = 5) {
  synthetic::GmmOptions opt;
  opt.dim = 32;
  opt.num_clusters = 8;
  opt.intrinsic_dim = 8;
  opt.anisotropy = 2.0f;
  return synthetic::MakeGmm(n, opt, seed);
}

TEST(KMeansTest, InertiaNonIncreasingAcrossIterations) {
  Dataset d = TestData();
  KMeansOptions o1;
  o1.k = 16;
  o1.max_iters = 1;
  o1.epsilon = 0.0f;
  KMeansOptions o5 = o1;
  o5.max_iters = 5;
  KMeansOptions o15 = o1;
  o15.max_iters = 15;
  double i1 = RunKMeans(d.data(), d.size(), d.dim(), o1).inertia;
  double i5 = RunKMeans(d.data(), d.size(), d.dim(), o5).inertia;
  double i15 = RunKMeans(d.data(), d.size(), d.dim(), o15).inertia;
  EXPECT_LE(i5, i1 * (1 + 1e-9));
  EXPECT_LE(i15, i5 * (1 + 1e-9));
}

TEST(KMeansTest, AssignmentsPointToNearestCentroid) {
  Dataset d = TestData(300);
  KMeansOptions opt;
  opt.k = 8;
  auto res = RunKMeans(d.data(), d.size(), d.dim(), opt);
  for (size_t i = 0; i < d.size(); ++i) {
    uint32_t nearest = NearestCentroid(d[i], res.centroids.data(), 8, d.dim());
    float d_assigned = SquaredL2(d[i], res.centroids.data() + res.assignment[i] * d.dim(), d.dim());
    float d_nearest = SquaredL2(d[i], res.centroids.data() + nearest * d.dim(), d.dim());
    EXPECT_NEAR(d_assigned, d_nearest, 1e-3f * (1 + d_nearest));
  }
}

TEST(KMeansTest, HandlesFewerPointsThanClusters) {
  Dataset d = TestData(5);
  KMeansOptions opt;
  opt.k = 16;
  auto res = RunKMeans(d.data(), d.size(), d.dim(), opt);
  EXPECT_EQ(res.centroids.size(), 16u * d.dim());
}

TEST(PqTest, EncodeDecodeShrinksError) {
  Dataset d = TestData();
  PqOptions opt;
  opt.m = 4;
  opt.k = 32;
  auto pq = PqQuantizer::Train(d, opt);
  // Reconstruction must be far better than quantizing to the global mean.
  std::vector<float> mean(d.dim(), 0.0f);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < d.dim(); ++j) mean[j] += d[i][j] / d.size();
  }
  double mean_err = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    mean_err += SquaredL2(d[i], mean.data(), d.dim());
  }
  mean_err /= d.size();
  EXPECT_LT(pq->Distortion(d), 0.5 * mean_err);
}

TEST(PqTest, AdcTableMatchesDecodeDistance) {
  Dataset d = TestData(400);
  PqOptions opt;
  opt.m = 8;
  opt.k = 16;
  auto pq = PqQuantizer::Train(d, opt);
  std::vector<uint8_t> code(pq->code_size());
  std::vector<float> rec(d.dim());
  for (size_t q = 0; q < 5; ++q) {
    AdcTable table(*pq, d[q]);
    for (size_t i = 100; i < 110; ++i) {
      pq->Encode(d[i], code.data());
      pq->Decode(code.data(), rec.data());
      float direct = SquaredL2(d[q], rec.data(), d.dim());
      EXPECT_NEAR(table.Distance(code.data()), direct, 1e-2f * (1 + direct));
    }
  }
}

TEST(PqTest, SymmetricDistanceSelfIsZero) {
  Dataset d = TestData(200);
  PqOptions opt;
  opt.m = 4;
  opt.k = 16;
  auto pq = PqQuantizer::Train(d, opt);
  std::vector<uint8_t> code(pq->code_size());
  pq->Encode(d[0], code.data());
  EXPECT_FLOAT_EQ(SymmetricDistance(*pq, code.data(), code.data()), 0.0f);
}

TEST(SplitPqTest, SplitTrainingBeatsFourBitDistortion) {
  Dataset d = TestData();
  PqOptions four;
  four.m = 8;
  four.nbits = 4;  // k defaults to 16
  auto pq4 = PqQuantizer::Train(d, four);
  PqOptions eight;
  eight.m = 8;
  eight.nbits = 8;  // k defaults to 256, split-trained
  auto split = TrainSplitPq(d, eight);
  ASSERT_NE(split->split_model(), nullptr);
  EXPECT_EQ(split->num_centroids(), 256u);
  // 256 additive words per chunk must reconstruct better than 16 free ones.
  EXPECT_LT(split->Distortion(d), pq4->Distortion(d));
}

TEST(SplitPqTest, ProductCodebookIsSumOfLevelWords) {
  Dataset d = TestData(400);
  PqOptions opt;
  opt.m = 4;
  opt.nbits = 8;
  auto split = TrainSplitPq(d, opt);
  const SplitPqModel* model = split->split_model();
  ASSERT_NE(model, nullptr);
  const Codebook& product = split->codebook();
  const size_t sub = model->sub_dim();
  for (size_t j = 0; j < model->num_chunks(); ++j) {
    for (size_t c : {size_t(0), size_t(17), size_t(128), size_t(255)}) {
      const float* word = product.Word(j, c);
      const float* a = model->a.Word(j, c >> 4);
      const float* b = model->b.Word(j, c & 15);
      for (size_t t = 0; t < sub; ++t) {
        EXPECT_NEAR(word[t], a[t] + b[t], 1e-6f) << "j=" << j << " c=" << c;
      }
    }
  }
}

TEST(SplitPqTest, CrossSumMatchesBruteForceDotProducts) {
  Dataset d = TestData(300);
  PqOptions opt;
  opt.m = 8;
  opt.nbits = 8;
  auto split = TrainSplitPq(d, opt);
  const SplitPqModel* model = split->split_model();
  ASSERT_NE(model, nullptr);
  const size_t sub = model->sub_dim();
  std::vector<uint8_t> code(split->code_size());
  for (size_t i = 0; i < 10; ++i) {
    split->Encode(d[i], code.data());
    float want = 0.f;
    for (size_t j = 0; j < model->num_chunks(); ++j) {
      const float* a = model->a.Word(j, code[j] >> 4);
      const float* b = model->b.Word(j, code[j] & 15);
      for (size_t t = 0; t < sub; ++t) want += 2.f * a[t] * b[t];
    }
    EXPECT_NEAR(model->CrossSum(code.data()), want, 1e-4f * (1 + std::abs(want)));
  }
}

// Property sweep: distortion decreases as K or M grows (richer code space).
class PqDistortionSweep
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(PqDistortionSweep, MoreCapacityLessDistortion) {
  auto [m, k] = GetParam();
  Dataset d = TestData();
  PqOptions small;
  small.m = m;
  small.k = k;
  PqOptions bigger_k = small;
  bigger_k.k = k * 2;
  auto q_small = PqQuantizer::Train(d, small);
  auto q_bigk = PqQuantizer::Train(d, bigger_k);
  EXPECT_LT(q_bigk->Distortion(d), q_small->Distortion(d) * 1.02);
}

INSTANTIATE_TEST_SUITE_P(Capacity, PqDistortionSweep,
                         ::testing::Combine(::testing::Values(2, 4, 8),
                                            ::testing::Values(8, 16, 32)));

TEST(OpqTest, RotationIsOrthonormal) {
  Dataset d = TestData(400);
  OpqOptions opt;
  opt.pq.m = 4;
  opt.pq.k = 16;
  opt.outer_iters = 3;
  auto opq = TrainOpq(d, opt);
  ASSERT_TRUE(opq->has_rotation());
  const auto& r = opq->rotation();
  linalg::Matrix rtr = linalg::MatMulTransA(r, r);
  EXPECT_LT(linalg::MaxAbsDiff(rtr, linalg::Matrix::Identity(d.dim())), 5e-3f);
}

TEST(OpqTest, NoWorseThanPqOnAnisotropicData) {
  // The whole point of OPQ: rotation rebalances dimension energy.
  Dataset d = TestData(800, 9);
  PqOptions popt;
  popt.m = 4;
  popt.k = 16;
  auto pq = PqQuantizer::Train(d, popt);
  OpqOptions oopt;
  oopt.pq = popt;
  oopt.outer_iters = 6;
  auto opq = TrainOpq(d, oopt);
  EXPECT_LT(opq->Distortion(d), pq->Distortion(d) * 1.05);
}

TEST(OpqTest, DecodeInvertsRotation) {
  Dataset d = TestData(300);
  OpqOptions opt;
  opt.pq.m = 4;
  opt.pq.k = 64;
  opt.outer_iters = 2;
  auto opq = TrainOpq(d, opt);
  // Decoding an encoded vector must approximate the ORIGINAL vector.
  std::vector<uint8_t> code(opq->code_size());
  std::vector<float> rec(d.dim());
  double err = 0, norm = 0;
  for (size_t i = 0; i < 50; ++i) {
    opq->Encode(d[i], code.data());
    opq->Decode(code.data(), rec.data());
    err += SquaredL2(d[i], rec.data(), d.dim());
    norm += SquaredNorm(d[i], d.dim());
  }
  EXPECT_LT(err, 0.5 * norm);
}

// The quantizer stores R transposed so Rotate can run as column axpys; every
// query-time output must still be bit-identical to the textbook formulation
// with R itself. Sub-dim 2 (m = 16 over 32 dims) is the shape an m = 64 RPQ
// model serves at 128 dims, where L2ToMany promises scalar order on every
// backend, so the whole table is pinned bit for bit.
TEST(PqTest, TransposedRotationIsBitIdentical) {
  const size_t dim = 32, m = 16, k = 256, sub = dim / m;
  Rng rng(21);
  linalg::Matrix g(dim, dim);
  for (size_t i = 0; i < dim * dim; ++i) g.data()[i] = 0.3f * rng.Gaussian();
  const linalg::Matrix r = linalg::MatrixExp(linalg::SkewPart(g));
  Codebook book(m, k, sub);
  for (size_t i = 0; i < book.num_floats(); ++i) {
    book.data()[i] = rng.Gaussian();
  }
  PqQuantizer pq(book, r);

  const linalg::Matrix back = pq.rotation();
  ASSERT_EQ(back.rows(), dim);
  ASSERT_EQ(back.cols(), dim);
  for (size_t i = 0; i < dim * dim; ++i) {
    EXPECT_EQ(back.data()[i], r.data()[i]) << "entry " << i;
  }

  Dataset d = TestData(8);
  std::vector<float> got(dim), want(dim);
  std::vector<float> table(m * k), want_table(m * k);
  std::vector<uint8_t> code(m);
  for (size_t v = 0; v < d.size(); ++v) {
    pq.Rotate(d[v], got.data());
    linalg::MatVec(r, d[v], want.data());
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_EQ(got[i], want[i]) << "rotate v=" << v << " i=" << i;
    }

    pq.BuildLookupTable(d[v], table.data());
    for (size_t j = 0; j < m; ++j) {
      simd::ScalarOps().l2_to_many(want.data() + j * sub, book.Chunk(j), k,
                                   sub, want_table.data() + j * k);
    }
    for (size_t i = 0; i < m * k; ++i) {
      ASSERT_EQ(table[i], want_table[i]) << "lut v=" << v << " entry " << i;
    }

    for (auto& c : code) c = static_cast<uint8_t>(rng.UniformIndex(k));
    pq.Decode(code.data(), got.data());
    std::vector<float> words(dim);
    for (size_t j = 0; j < m; ++j) {
      std::copy(book.Word(j, code[j]), book.Word(j, code[j]) + sub,
                words.begin() + j * sub);
    }
    linalg::MatVecTrans(r, words.data(), want.data());
    for (size_t i = 0; i < dim; ++i) {
      EXPECT_EQ(got[i], want[i]) << "decode v=" << v << " i=" << i;
    }
  }
}

TEST(ModelSizeTest, RotationAddsToModelSize) {
  Dataset d = TestData(300);
  PqOptions popt;
  popt.m = 4;
  popt.k = 16;
  auto pq = PqQuantizer::Train(d, popt);
  OpqOptions oopt;
  oopt.pq = popt;
  oopt.outer_iters = 1;
  auto opq = TrainOpq(d, oopt);
  EXPECT_EQ(opq->ModelSizeBytes(),
            pq->ModelSizeBytes() + d.dim() * d.dim() * sizeof(float));
}

}  // namespace
}  // namespace rpq::quant
