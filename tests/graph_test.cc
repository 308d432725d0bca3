#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include <cstdio>

#include "common/distance.h"
#include "data/ground_truth.h"
#include "data/synthetic.h"
#include "eval/recall.h"
#include "graph/beam_search.h"
#include "graph/build_steps.h"
#include "graph/graph.h"
#include "graph/hnsw.h"
#include "graph/knn_graph.h"
#include "graph/nsg.h"
#include "graph/vamana.h"

namespace rpq::graph {
namespace {

Dataset SmallData(size_t n = 800, uint64_t seed = 3) {
  synthetic::GmmOptions opt;
  opt.dim = 24;
  opt.num_clusters = 8;
  opt.intrinsic_dim = 6;
  return synthetic::MakeGmm(n, opt, seed);
}

TEST(GraphTest, DegreeStats) {
  ProximityGraph g(3);
  g.Neighbors(0) = {1, 2};
  g.Neighbors(1) = {0};
  g.Neighbors(2) = {};
  auto s = g.ComputeDegreeStats();
  EXPECT_EQ(s.min_degree, 0u);
  EXPECT_EQ(s.max_degree, 2u);
  EXPECT_EQ(s.num_edges, 3u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 1.0);
}

TEST(GraphTest, ReachableFraction) {
  ProximityGraph g(4);
  g.Neighbors(0) = {1};
  g.Neighbors(1) = {2};
  g.set_entry_point(0);
  EXPECT_DOUBLE_EQ(g.ReachableFraction(), 0.75);  // vertex 3 unreachable
}

TEST(GraphTest, SaveLoadRoundTrip) {
  ProximityGraph g(3);
  g.Neighbors(0) = {1, 2};
  g.Neighbors(2) = {0};
  g.set_entry_point(2);
  std::string path = ::testing::TempDir() + "/graph.bin";
  ASSERT_TRUE(g.Save(path).ok());
  auto loaded = ProximityGraph::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().entry_point(), 2u);
  EXPECT_EQ(loaded.value().Neighbors(0), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(loaded.value().Neighbors(1), std::vector<uint32_t>{});
  std::remove(path.c_str());
}

TEST(VisitedTableTest, EpochReset) {
  VisitedTable v(10);
  v.NextEpoch();
  v.MarkVisited(3);
  EXPECT_TRUE(v.Visited(3));
  EXPECT_FALSE(v.Visited(4));
  v.NextEpoch();
  EXPECT_FALSE(v.Visited(3));
}

TEST(BeamSearchTest, ExactSearchOnFullGraphIsBruteForce) {
  // With a complete graph and a huge beam, beam search must return exact NN.
  Dataset d = SmallData(120);
  ProximityGraph g(d.size());
  for (uint32_t v = 0; v < d.size(); ++v) {
    for (uint32_t u = 0; u < d.size(); ++u) {
      if (u != v) g.Neighbors(v).push_back(u);
    }
  }
  g.set_entry_point(0);
  auto gt = ComputeSelfKnn(d, 5);
  VisitedTable visited(d.size());
  for (uint32_t q = 0; q < 10; ++q) {
    auto res = BeamSearch(
        g, g.entry_point(),
        [&](uint32_t v) { return SquaredL2(d[q], d[v], d.dim()); },
        {128, 6}, &visited);
    // First hit is q itself (distance 0), then the true neighbors.
    ASSERT_GE(res.size(), 6u);
    EXPECT_EQ(res[0].id, q);
    for (size_t i = 0; i < 5; ++i) EXPECT_EQ(res[i + 1].id, gt[q][i].id);
  }
}

TEST(BeamSearchTest, StatsCountHopsAndDistances) {
  Dataset d = SmallData(100);
  ProximityGraph g(d.size());
  for (uint32_t v = 0; v + 1 < d.size(); ++v) g.Neighbors(v).push_back(v + 1);
  g.set_entry_point(0);
  VisitedTable visited(d.size());
  SearchStats stats;
  BeamSearch(
      g, 0, [&](uint32_t v) { return SquaredL2(d[0], d[v], d.dim()); },
      {200, 1}, &visited, &stats);
  // A chain forces visiting every vertex once.
  EXPECT_EQ(stats.dist_comps, d.size());
  EXPECT_EQ(stats.hops, d.size());
}

TEST(BeamSearchTest, ObserverSeesRankedBeams) {
  Dataset d = SmallData(200);
  VamanaOptions vopt;
  vopt.degree = 8;
  vopt.build_beam = 16;
  auto g = BuildVamana(d, vopt);
  VisitedTable visited(d.size());
  size_t calls = 0;
  BeamSearch(
      g, g.entry_point(),
      [&](uint32_t v) { return SquaredL2(d[5], d[v], d.dim()); }, {16, 5},
      &visited, nullptr, [&](const std::vector<Neighbor>& beam) {
        ++calls;
        for (size_t i = 1; i < beam.size(); ++i) {
          EXPECT_LE(beam[i - 1].dist, beam[i].dist);
        }
        EXPECT_LE(beam.size(), 16u);
      });
  EXPECT_GT(calls, 0u);
}

TEST(KnnGraphTest, ExactListsAreSortedAndCorrect) {
  // Below its size limit BuildKnnAuto returns ComputeSelfKnn's exact lists:
  // pin them to a sorted brute-force scan that skips the vertex itself.
  Dataset d = SmallData(150);
  auto knn = BuildKnnAuto(d, 4);
  ASSERT_EQ(knn.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    std::vector<Neighbor> all;
    for (size_t j = 0; j < d.size(); ++j) {
      if (j == i) continue;
      all.push_back({SquaredL2(d[i], d[j], d.dim()), static_cast<uint32_t>(j)});
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(knn[i].size(), 4u);
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_EQ(knn[i][j], all[j]) << "vertex " << i << " rank " << j;
    }
  }
}

TEST(KnnGraphTest, NnDescentApproximatesExact) {
  Dataset d = SmallData(600, 21);
  NnDescentOptions opt;
  opt.k = 10;
  opt.iters = 10;
  auto approx = BuildNnDescent(d, opt);
  auto exact = ComputeSelfKnn(d, 10);
  double recall = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    size_t hits = 0;
    for (const auto& a : approx[i]) {
      for (const auto& e : exact[i]) {
        if (a.id == e.id) {
          ++hits;
          break;
        }
      }
    }
    recall += static_cast<double>(hits) / 10.0;
  }
  recall /= d.size();
  EXPECT_GT(recall, 0.85);
}

TEST(FindMedoidTest, MedoidMinimizesDistanceToMean) {
  Dataset d = SmallData(100);
  uint32_t m = FindMedoid(d);
  EXPECT_LT(m, d.size());
}

class GraphBuilderRecallTest : public ::testing::TestWithParam<const char*> {};

TEST_P(GraphBuilderRecallTest, ExactSearchReachesHighRecall) {
  // All three PGs must support accurate routing with exact distances.
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("ukbench", 1200, 30, 33, &base, &queries);
  std::string which = GetParam();
  ProximityGraph g;
  if (which == "vamana") {
    VamanaOptions opt;
    opt.degree = 24;
    opt.build_beam = 48;
    g = BuildVamana(base, opt);
  } else if (which == "nsg") {
    NsgOptions opt;
    opt.degree = 24;
    opt.knn_k = 24;
    opt.search_pool = 48;
    g = BuildNsg(base, opt);
  } else {
    HnswOptions opt;
    opt.m = 12;
    opt.ef_construction = 80;
    g = HnswIndex::Build(base, opt)->Flatten();
  }
  EXPECT_GT(g.ReachableFraction(), 0.999) << which;

  auto gt = ComputeGroundTruth(base, queries, 10);
  VisitedTable visited(base.size());
  std::vector<std::vector<Neighbor>> results(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    results[q] = BeamSearch(
        g, g.entry_point(),
        [&](uint32_t v) { return SquaredL2(queries[q], base[v], base.dim()); },
        {64, 10}, &visited);
  }
  EXPECT_GT(eval::MeanRecallAtK(results, gt, 10), 0.9) << which;
}

INSTANTIATE_TEST_SUITE_P(Builders, GraphBuilderRecallTest,
                         ::testing::Values("vamana", "nsg", "hnsw"));

TEST(VamanaTest, RespectsDegreeBound) {
  Dataset d = SmallData(500, 41);
  VamanaOptions opt;
  opt.degree = 10;
  opt.build_beam = 20;
  auto g = BuildVamana(d, opt);
  auto stats = g.ComputeDegreeStats();
  // The reverse-edge step always prunes back to the bound; the slack is for
  // the orphan repair, whose added in-edges are unbounded.
  EXPECT_LE(stats.max_degree, 10u + 1);
  EXPECT_GT(stats.avg_degree, 2.0);
}

TEST(VamanaTest, RobustPruneKeepsNearestFirst) {
  Dataset d = SmallData(50, 43);
  std::vector<Neighbor> cand;
  for (uint32_t i = 1; i < 30; ++i) {
    cand.push_back({SquaredL2(d[0], d[i], d.dim()), i});
  }
  std::sort(cand.begin(), cand.end());
  uint32_t nearest = cand[0].id;
  auto pruned = RobustPrune(d, 0, cand, 1.2f, 8);
  ASSERT_FALSE(pruned.empty());
  EXPECT_EQ(pruned[0], nearest);
  EXPECT_LE(pruned.size(), 8u);
}

TEST(VamanaTest, HigherAlphaKeepsMoreEdges) {
  Dataset d = SmallData(200, 45);
  std::vector<Neighbor> cand;
  for (uint32_t i = 1; i < 100; ++i) {
    cand.push_back({SquaredL2(d[0], d[i], d.dim()), i});
  }
  auto tight = RobustPrune(d, 0, cand, 1.0f, 64);
  auto loose = RobustPrune(d, 0, cand, 1.5f, 64);
  EXPECT_GE(loose.size(), tight.size());
}

// Rows on a line: row i is the 1-d point i, so d(i, j) = (i - j)^2 exactly.
Dataset LineData(size_t n) {
  Dataset d(n, 1);
  for (size_t i = 0; i < n; ++i) d[i][0] = static_cast<float>(i);
  return d;
}

TEST(BuildStepsTest, ReverseEdgesFillRoomSkipDuplicatesAndReselect) {
  Dataset d = LineData(6);
  ProximityGraph g(6);
  g.Neighbors(0) = {1, 2, 3};
  g.Neighbors(2) = {0};     // already links back to 0
  g.Neighbors(3) = {4, 5};  // full at the cap of 2
  std::vector<std::pair<uint32_t, std::vector<Neighbor>>> calls;
  // The caller's rule decides overflow, here "the two farthest".
  const SelectRule farthest = [&](uint32_t p, std::vector<Neighbor> cand) {
    calls.push_back({p, cand});
    std::sort(cand.rbegin(), cand.rend());
    return std::vector<uint32_t>{cand[0].id, cand[1].id};
  };
  AddReverseEdges(&g, d, 0, 2, farthest);
  EXPECT_EQ(g.Neighbors(1), std::vector<uint32_t>{0});  // had room
  EXPECT_EQ(g.Neighbors(2), std::vector<uint32_t>{0});  // no duplicate
  EXPECT_EQ(g.Neighbors(3), (std::vector<uint32_t>{0, 5}));
  ASSERT_EQ(calls.size(), 1u);  // only the overflowing list is re-selected
  EXPECT_EQ(calls[0].first, 3u);
  // Its candidates are its ids (0 appended) with exact distances to 3.
  const std::vector<Neighbor> want = {{1.0f, 4}, {4.0f, 5}, {9.0f, 0}};
  EXPECT_EQ(calls[0].second, want);
  EXPECT_EQ(g.Neighbors(0), (std::vector<uint32_t>{1, 2, 3}));
}

TEST(BuildStepsTest, RepairLinksEachIslandOnceFromTheRulesPick) {
  ProximityGraph g(7);
  g.Neighbors(0) = {1};
  g.Neighbors(1) = {2};
  g.Neighbors(3) = {4};  // island {3, 4}
  g.Neighbors(4) = {3};
  g.Neighbors(5) = {6};  // island {5, 6}
  g.Neighbors(6) = {5};
  g.set_entry_point(0);
  EXPECT_DOUBLE_EQ(g.ReachableFraction(), 3.0 / 7);
  std::vector<uint32_t> orphans;
  // The caller's rule: the highest-id reached vertex.
  RepairReachability(&g, [&](uint32_t v, const std::vector<bool>& reached) {
    orphans.push_back(v);
    uint32_t pick = 0;
    for (uint32_t u = 0; u < reached.size(); ++u) {
      if (reached[u]) pick = u;
    }
    return pick;
  });
  // One in-edge per island, from the vertex the rule picked.
  EXPECT_EQ(orphans, (std::vector<uint32_t>{3, 5}));
  EXPECT_EQ(g.Neighbors(2), std::vector<uint32_t>{3});
  EXPECT_EQ(g.Neighbors(4), (std::vector<uint32_t>{3, 5}));
  EXPECT_EQ(g.ComputeDegreeStats().num_edges, 8u);
  EXPECT_DOUBLE_EQ(g.ReachableFraction(), 1.0);
}

// Why RobustPrune and MRNG stay two rules: c is as far from the selected s
// as from p, so RobustPrune at alpha = 1 (<=) drops it and MRNG (<) keeps it.
TEST(BuildStepsTest, MrngKeepsDistanceTiesThatRobustPruneDrops) {
  Dataset d(3, 2);
  d[1][0] = 2;  // s: d(p, s) = 4
  d[2][0] = 1;  // c: d(p, c) = 5 = d(s, c)
  d[2][1] = 2;
  const std::vector<Neighbor> cand = {{4.0f, 1}, {5.0f, 2}};
  EXPECT_EQ(RobustPrune(d, 0, cand, 1.0f, 8), std::vector<uint32_t>{1});
  EXPECT_EQ(MrngSelect(d, 0, cand, 8), (std::vector<uint32_t>{1, 2}));
}

TEST(NsgTest, FullyReachableAndBounded) {
  Dataset d = SmallData(600, 47);
  NsgOptions opt;
  opt.degree = 12;
  opt.knn_k = 16;
  opt.search_pool = 24;
  auto g = BuildNsg(d, opt);
  EXPECT_GT(g.ReachableFraction(), 0.999);
  // The connectivity pass may add one overflow edge per adopted orphan.
  EXPECT_LE(g.ComputeDegreeStats().max_degree, 12u + 4);
}

TEST(HnswTest, SearchFindsExactNeighborsOnEasyData) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("ukbench", 800, 20, 49, &base, &queries);
  HnswOptions opt;
  opt.m = 12;
  opt.ef_construction = 100;
  auto index = HnswIndex::Build(base, opt);
  auto gt = ComputeGroundTruth(base, queries, 10);
  std::vector<std::vector<Neighbor>> results(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    results[q] = index->Search(queries[q], 10, 80);
  }
  EXPECT_GT(eval::MeanRecallAtK(results, gt, 10), 0.9);
}

TEST(HnswTest, FlattenPreservesBaseLayer) {
  Dataset d = SmallData(300, 51);
  HnswOptions opt;
  opt.m = 8;
  auto index = HnswIndex::Build(d, opt);
  auto g = index->Flatten();
  EXPECT_EQ(g.num_vertices(), d.size());
  EXPECT_EQ(g.entry_point(), index->entry_point());
  auto stats = g.ComputeDegreeStats();
  EXPECT_LE(stats.max_degree, opt.m * 2);
  EXPECT_GT(stats.avg_degree, 2.0);
}

TEST(BeamSearchTest, RecallNonDecreasingInBeamWidth) {
  Dataset base, queries;
  synthetic::MakeBaseAndQueries("sift", 1000, 25, 53, &base, &queries);
  VamanaOptions vopt;
  vopt.degree = 16;
  vopt.build_beam = 32;
  auto g = BuildVamana(base, vopt);
  auto gt = ComputeGroundTruth(base, queries, 10);
  VisitedTable visited(base.size());
  double prev = -1;
  for (size_t beam : {10u, 20u, 40u, 80u, 160u}) {
    std::vector<std::vector<Neighbor>> results(queries.size());
    for (size_t q = 0; q < queries.size(); ++q) {
      results[q] = BeamSearch(
          g, g.entry_point(),
          [&](uint32_t v) { return SquaredL2(queries[q], base[v], base.dim()); },
          {beam, 10}, &visited);
    }
    double rec = eval::MeanRecallAtK(results, gt, 10);
    EXPECT_GE(rec, prev - 0.02);  // allow tiny non-monotonic noise
    prev = rec;
  }
  EXPECT_GT(prev, 0.85);
}

}  // namespace
}  // namespace rpq::graph
