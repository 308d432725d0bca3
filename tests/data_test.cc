#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "common/distance.h"
#include "data/dataset.h"
#include "data/ground_truth.h"
#include "data/io_vecs.h"
#include "data/lid.h"
#include "data/synthetic.h"

namespace rpq {
namespace {

TEST(DatasetTest, SliceAndGather) {
  Dataset d(5, 3);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 3; ++j) d[i][j] = static_cast<float>(i * 10 + j);
  }
  Dataset s = d.Slice(1, 3);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_FLOAT_EQ(s[0][0], 10.f);
  EXPECT_FLOAT_EQ(s[1][2], 22.f);
  Dataset g = d.Gather({4, 0});
  EXPECT_FLOAT_EQ(g[0][1], 41.f);
  EXPECT_FLOAT_EQ(g[1][1], 1.f);
}

TEST(DatasetTest, AppendFixesDim) {
  Dataset d;
  float v[2] = {1, 2};
  d.Append(v, 2);
  d.Append(v, 2);
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(d.dim(), 2u);
}

TEST(IoVecsTest, FvecsRoundTrip) {
  Dataset d = synthetic::MakeSiftLike(50, 1);
  std::string path = ::testing::TempDir() + "/roundtrip.fvecs";
  ASSERT_TRUE(io::WriteFvecs(path, d).ok());
  auto r = io::ReadFvecs(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), d.size());
  ASSERT_EQ(r.value().dim(), d.dim());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_FLOAT_EQ(r.value()[i][0], d[i][0]);
  }
  std::remove(path.c_str());
}

TEST(IoVecsTest, FvecsMaxRecords) {
  Dataset d = synthetic::MakeSiftLike(20, 2);
  std::string path = ::testing::TempDir() + "/maxrec.fvecs";
  ASSERT_TRUE(io::WriteFvecs(path, d).ok());
  auto r = io::ReadFvecs(path, 7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 7u);
  std::remove(path.c_str());
}

TEST(IoVecsTest, MissingFileIsIoError) {
  auto r = io::ReadFvecs("/nonexistent/file.fvecs");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

// A dim-4 record followed by a dim-8 record: the reader rejects the second
// record instead of handing Dataset::Append a row of the wrong width.
TEST(IoVecsTest, FvecsDimensionChangeIsIoError) {
  std::string path = ::testing::TempDir() + "/mixed.fvecs";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const float row[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (const int32_t dim : {4, 8}) {
    ASSERT_EQ(std::fwrite(&dim, sizeof(dim), 1, f), 1u);
    ASSERT_EQ(std::fwrite(row, sizeof(float), dim, f),
              static_cast<size_t>(dim));
  }
  std::fclose(f);
  auto r = io::ReadFvecs(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
  EXPECT_NE(r.status().ToString().find("has dimension 8, the first has 4"),
            std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

TEST(SyntheticTest, ProfilesHaveExpectedDims) {
  EXPECT_EQ(synthetic::MakeSiftLike(10).dim(), 128u);
  EXPECT_EQ(synthetic::MakeBigAnnLike(10).dim(), 128u);
  EXPECT_EQ(synthetic::MakeDeepLike(10).dim(), 96u);
  EXPECT_EQ(synthetic::MakeGistLike(10).dim(), 960u);
  EXPECT_EQ(synthetic::MakeUkbenchLike(10).dim(), 128u);
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  Dataset a = synthetic::MakeSiftLike(30, 7);
  Dataset b = synthetic::MakeSiftLike(30, 7);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a[i][0], b[i][0]);
    EXPECT_FLOAT_EQ(a[i][a.dim() - 1], b[i][b.dim() - 1]);
  }
}

TEST(SyntheticTest, DeepLikeIsUnitNorm) {
  Dataset d = synthetic::MakeDeepLike(50, 3);
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_NEAR(SquaredNorm(d[i], d.dim()), 1.0f, 1e-3f);
  }
}

TEST(SyntheticTest, SiftLikeIsByteValued) {
  Dataset d = synthetic::MakeSiftLike(50, 4);
  for (size_t i = 0; i < d.size(); ++i) {
    for (size_t j = 0; j < d.dim(); ++j) {
      EXPECT_GE(d[i][j], 0.0f);
      EXPECT_LE(d[i][j], 255.0f);
      EXPECT_FLOAT_EQ(d[i][j], std::round(d[i][j]));
    }
  }
}

TEST(SyntheticTest, BaseAndQueriesShareDistribution) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("ukbench", 500, 50, 11, &base, &queries);
  EXPECT_EQ(base.size(), 500u);
  EXPECT_EQ(queries.size(), 50u);
  EXPECT_EQ(base.dim(), queries.dim());
  // A query's nearest base vector should be much closer than a random pair —
  // i.e. queries land inside the base clusters.
  auto gt = ComputeGroundTruth(base, queries, 1);
  double mean_nn = 0;
  for (const auto& g : gt) mean_nn += std::sqrt(g[0].dist);
  mean_nn /= gt.size();
  double mean_rand = 0;
  for (size_t i = 0; i < 50; ++i) {
    mean_rand += std::sqrt(SquaredL2(base[i], base[i + 200], base.dim()));
  }
  mean_rand /= 50;
  EXPECT_LT(mean_nn, 0.7 * mean_rand);
}

TEST(GroundTruthTest, MatchesBruteForceSemantics) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 200, 5, 13, &base, &queries);
  auto gt = ComputeGroundTruth(base, queries, 10);
  ASSERT_EQ(gt.size(), 5u);
  for (size_t q = 0; q < gt.size(); ++q) {
    ASSERT_EQ(gt[q].size(), 10u);
    // Ascending distances.
    for (size_t i = 1; i < gt[q].size(); ++i) {
      EXPECT_LE(gt[q][i - 1].dist, gt[q][i].dist);
    }
    // The top result really is the global minimum.
    float best = std::numeric_limits<float>::max();
    for (size_t i = 0; i < base.size(); ++i) {
      best = std::min(best, SquaredL2(queries[q], base[i], base.dim()));
    }
    EXPECT_FLOAT_EQ(gt[q][0].dist, best);
  }
}

TEST(GroundTruthTest, SelfKnnExcludesSelf) {
  Dataset base = synthetic::MakeUkbenchLike(100, 17);
  auto knn = ComputeSelfKnn(base, 5);
  for (size_t i = 0; i < knn.size(); ++i) {
    for (const auto& nb : knn[i]) EXPECT_NE(nb.id, i);
  }
}

TEST(LidTest, LowIntrinsicDimLowerThanHigh) {
  synthetic::GmmOptions low;
  low.dim = 64;
  low.intrinsic_dim = 4;
  low.num_clusters = 4;
  low.noise = 0.01f;
  synthetic::GmmOptions high = low;
  high.intrinsic_dim = 32;
  Dataset dl = synthetic::MakeGmm(1500, low, 3);
  Dataset dh = synthetic::MakeGmm(1500, high, 3);
  double lid_low = EstimateLid(dl, 20, 100);
  double lid_high = EstimateLid(dh, 20, 100);
  EXPECT_GT(lid_low, 0.0);
  EXPECT_LT(lid_low, lid_high);
}

TEST(LidTest, DegenerateInputsReturnZero) {
  Dataset tiny(3, 4);
  EXPECT_EQ(EstimateLid(tiny, 20, 10), 0.0);
}

}  // namespace
}  // namespace rpq
