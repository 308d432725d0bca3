#include "graph/vamana.h"

#include <limits>
#include <vector>

#include "common/distance.h"
#include "common/logging.h"
#include "common/rng.h"
#include "graph/build_steps.h"
#include "graph/knn_graph.h"

namespace rpq::graph {

ProximityGraph BuildVamana(const Dataset& base, const VamanaOptions& opt) {
  RPQ_CHECK_GT(base.size(), opt.degree);
  size_t n = base.size();
  Rng rng(opt.seed);

  ProximityGraph g(n);
  // Random R-regular initialization.
  for (uint32_t v = 0; v < n; ++v) {
    auto picks = rng.SampleWithoutReplacement(n - 1, opt.degree);
    auto& nb = g.Neighbors(v);
    nb.reserve(opt.degree);
    for (uint32_t p : picks) nb.push_back(p >= v ? p + 1 : p);
  }
  uint32_t medoid = FindMedoid(base);
  g.set_entry_point(medoid);

  std::vector<uint32_t> order(n);
  for (uint32_t i = 0; i < n; ++i) order[i] = i;

  // DiskANN's two-pass schedule: pure closeness first, then the slack.
  for (float alpha : {1.0f, opt.alpha}) {
    const SelectRule prune = [&](uint32_t p, std::vector<Neighbor> cand) {
      return RobustPrune(base, p, std::move(cand), alpha, opt.degree);
    };
    rng.Shuffle(&order);
    for (uint32_t v : order) {
      // Candidates: everything scored by the search + the current edges.
      std::vector<Neighbor> pool =
          PoolSearch(g, medoid, base, base[v], opt.build_beam);
      for (uint32_t u : g.Neighbors(v)) {
        pool.push_back({SquaredL2(base[v], base[u], base.dim()), u});
      }
      g.Neighbors(v) = prune(v, std::move(pool));
      AddReverseEdges(&g, base, v, opt.degree, prune);
    }
  }

  // Pruning reverse edges can orphan a handful of vertices (Vamana is a
  // directed graph): link each from its nearest reached vertex, by brute
  // force, so routing can always converge.
  RepairReachability(&g, [&](uint32_t v, const std::vector<bool>& reached) {
    uint32_t best = medoid;
    float best_d = std::numeric_limits<float>::max();
    for (uint32_t u = 0; u < n; ++u) {
      if (!reached[u]) continue;
      float d = SquaredL2(base[v], base[u], base.dim());
      if (d < best_d) {
        best_d = d;
        best = u;
      }
    }
    return best;
  });
  return g;
}

}  // namespace rpq::graph
