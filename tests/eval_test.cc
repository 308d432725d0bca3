#include <gtest/gtest.h>

#include <vector>

#include "eval/harness.h"
#include "eval/recall.h"
#include "serve/search_service.h"

namespace rpq::eval {
namespace {

TEST(RecallTest, ExactMatchIsOne) {
  std::vector<Neighbor> res{{0.1f, 1}, {0.2f, 2}, {0.3f, 3}};
  std::vector<Neighbor> gt{{0.1f, 1}, {0.2f, 2}, {0.3f, 3}};
  EXPECT_DOUBLE_EQ(RecallAtK(res, gt, 3), 1.0);
}

TEST(RecallTest, PartialOverlap) {
  std::vector<Neighbor> res{{0.1f, 1}, {0.2f, 9}, {0.3f, 3}};
  std::vector<Neighbor> gt{{0.1f, 1}, {0.2f, 2}, {0.3f, 3}};
  EXPECT_NEAR(RecallAtK(res, gt, 3), 2.0 / 3.0, 1e-12);
}

TEST(RecallTest, OrderDoesNotMatter) {
  std::vector<Neighbor> res{{0.3f, 3}, {0.1f, 1}};
  std::vector<Neighbor> gt{{0.1f, 1}, {0.3f, 3}};
  EXPECT_DOUBLE_EQ(RecallAtK(res, gt, 2), 1.0);
}

TEST(RecallTest, EmptyResultsZero) {
  std::vector<Neighbor> res;
  std::vector<Neighbor> gt{{0.1f, 1}};
  EXPECT_DOUBLE_EQ(RecallAtK(res, gt, 1), 0.0);
}

// Curve fixtures: {beam, recall, wall_qps, mean_hops, mean_io_ms}.
TEST(AtRecallTest, InterpolatesBetweenPoints) {
  std::vector<OperatingPoint> curve;
  curve.push_back({8, 0.80, 1000.0, 10, 0});
  curve.push_back({16, 0.90, 500.0, 20, 0});
  bool reached = false;
  double qps = AtRecall(curve, 0.85, &OperatingPoint::wall_qps, &reached);
  EXPECT_TRUE(reached);
  EXPECT_NEAR(qps, 750.0, 1e-9);
}

TEST(AtRecallTest, BelowCurveUsesFirstPoint) {
  std::vector<OperatingPoint> curve;
  curve.push_back({8, 0.80, 1000.0, 10, 0});
  curve.push_back({16, 0.90, 500.0, 20, 0});
  bool reached = false;
  EXPECT_DOUBLE_EQ(
      AtRecall(curve, 0.5, &OperatingPoint::wall_qps, &reached), 1000.0);
  EXPECT_TRUE(reached);
}

TEST(AtRecallTest, UnreachedTargetFlagged) {
  std::vector<OperatingPoint> curve;
  curve.push_back({8, 0.80, 1000.0, 10, 0});
  bool reached = true;
  double qps = AtRecall(curve, 0.95, &OperatingPoint::wall_qps, &reached);
  EXPECT_FALSE(reached);
  EXPECT_DOUBLE_EQ(qps, 1000.0);  // best-effort value
}

// One interpolation serves every field: the weights come from recall alone.
TEST(AtRecallTest, InterpolatesAnyField) {
  std::vector<OperatingPoint> curve;
  curve.push_back({16, 0.90, 500.0, 30, 4.0});
  curve.push_back({8, 0.80, 1000.0, 10, 2.0});
  EXPECT_NEAR(AtRecall(curve, 0.85, &OperatingPoint::mean_hops), 20.0, 1e-9);
  EXPECT_NEAR(AtRecall(curve, 0.85, &OperatingPoint::mean_io_ms), 3.0, 1e-9);
}

// The sweep sends every query once per beam, serially, as a copy of the
// spec template with only the query and beam width filled in.
TEST(SweepTest, ServesEveryQueryAtEveryBeam) {
  Dataset queries(3, 2);
  std::vector<std::vector<Neighbor>> gt(3, {{0.0f, 0}});
  std::vector<serve::QuerySpec> seen;
  serve::FunctionService service([&](const serve::QuerySpec& q) {
    seen.push_back(q);
    serve::QueryResult r;
    r.results = {{0.0f, q.beam_width >= 16 ? 0u : 9u}};
    r.stats.hops = q.beam_width;
    return r;
  });
  serve::QuerySpec spec;
  spec.k = 1;
  spec.rerank = 40;
  spec.rerank_mode = refine::RerankMode::kLinkCode;
  auto curve = SweepBeamWidths(service, spec, queries, gt, {8, 16});
  ASSERT_EQ(seen.size(), 6u);
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].query, queries[i % 3]);
    EXPECT_EQ(seen[i].beam_width, i < 3 ? 8u : 16u);
    EXPECT_EQ(seen[i].k, 1u);
    EXPECT_EQ(seen[i].rerank, 40u);
    EXPECT_EQ(seen[i].rerank_mode, refine::RerankMode::kLinkCode);
  }
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].recall, 0.0);  // wrong id at beam 8
  EXPECT_DOUBLE_EQ(curve[1].recall, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].mean_hops, 8.0);
}

// Simulated device time is reported on its own: it shows in mean_io_ms and
// never in wall_qps, which times only the replay. A service that reports an
// hour of simulated I/O per query still runs at full wall-clock speed.
TEST(SweepTest, SimulatedIoShowsOnlyInMeanIoMs) {
  Dataset queries(4, 2);
  std::vector<std::vector<Neighbor>> gt(4, {{0.0f, 0}});
  serve::FunctionService service([](const serve::QuerySpec&) {
    serve::QueryResult r;
    r.results = {{0.0f, 0}};
    r.simulated_io_seconds = 3600.0;
    return r;
  });
  serve::QuerySpec spec;
  spec.k = 1;
  auto curve = SweepBeamWidths(service, spec, queries, gt, {8});
  ASSERT_EQ(curve.size(), 1u);
  EXPECT_NEAR(curve[0].mean_io_ms, 3.6e6, 1e-6);
  // Charging the simulated hours would read 4 / 14400 s = 2.8e-4 QPS.
  EXPECT_GT(curve[0].wall_qps, 1.0);
}

}  // namespace
}  // namespace rpq::eval
