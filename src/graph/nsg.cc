#include "graph/nsg.h"

#include <vector>

#include "common/logging.h"
#include "graph/build_steps.h"
#include "graph/knn_graph.h"

namespace rpq::graph {

ProximityGraph BuildNsg(const Dataset& base, const NsgOptions& opt) {
  size_t n = base.size();
  RPQ_CHECK_GT(n, opt.knn_k);

  // Stage 1: approximate kNN graph.
  KnnLists knn = BuildKnnAuto(base, opt.knn_k);
  ProximityGraph knn_graph(n);
  for (uint32_t v = 0; v < n; ++v) {
    auto& nb = knn_graph.Neighbors(v);
    nb.reserve(knn[v].size());
    for (const Neighbor& e : knn[v]) nb.push_back(e.id);
  }
  uint32_t medoid = FindMedoid(base);
  knn_graph.set_entry_point(medoid);

  // Stage 2: per-node candidate pools via search on the kNN graph, then MRNG.
  ProximityGraph g(n);
  g.set_entry_point(medoid);
  for (uint32_t v = 0; v < n; ++v) {
    std::vector<Neighbor> pool =
        PoolSearch(knn_graph, medoid, base, base[v], opt.search_pool);
    pool.insert(pool.end(), knn[v].begin(), knn[v].end());
    g.Neighbors(v) = MrngSelect(base, v, std::move(pool), opt.degree);
  }

  // Stage 2b: mutual interconnection (NSG's InterInsert): every selected edge
  // v -> u offers the reverse edge u -> v; overflowing lists are re-pruned
  // with the same MRNG rule. Without this, low in-degree vertices are hard
  // to route into and recall caps early.
  const SelectRule mrng = [&](uint32_t p, std::vector<Neighbor> cand) {
    return MrngSelect(base, p, std::move(cand), opt.degree);
  };
  for (uint32_t v = 0; v < n; ++v) {
    AddReverseEdges(&g, base, v, opt.degree, mrng);
  }

  // Stage 3: connectivity (NSG's spanning-tree step): link each unreached
  // vertex from the nearest reached entry of its (ascending) kNN list, or
  // from the root when none is reached.
  RepairReachability(&g, [&](uint32_t v, const std::vector<bool>& reached) {
    for (const Neighbor& e : knn[v]) {
      if (reached[e.id]) return e.id;
    }
    return medoid;
  });
  return g;
}

}  // namespace rpq::graph
