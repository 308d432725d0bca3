#include "graph/build_steps.h"

#include <algorithm>

#include "common/distance.h"
#include "graph/beam_search.h"

namespace rpq::graph {

std::vector<Neighbor> PoolSearch(const ProximityGraph& g, uint32_t entry,
                                 const Dataset& data, const float* query,
                                 size_t pool_width) {
  std::vector<Neighbor> pool;
  BeamSearchOptions bopt;
  bopt.beam_width = pool_width;
  bopt.k = pool_width;
  BeamSearch(
      g, entry,
      [&](uint32_t u) {
        float d = SquaredL2(query, data[u], data.dim());
        pool.push_back({d, u});
        return d;
      },
      bopt, TlsVisitedTable(g.num_vertices()));
  return pool;
}

void AddReverseEdges(ProximityGraph* g, const Dataset& data, uint32_t v,
                     size_t degree, const SelectRule& select) {
  for (uint32_t u : g->Neighbors(v)) {
    auto& unb = g->Neighbors(u);
    if (std::find(unb.begin(), unb.end(), v) != unb.end()) continue;
    unb.push_back(v);
    if (unb.size() <= degree) continue;
    std::vector<Neighbor> cand;
    cand.reserve(unb.size());
    for (uint32_t w : unb) {
      cand.push_back({SquaredL2(data[u], data[w], data.dim()), w});
    }
    unb = select(u, std::move(cand));
  }
}

std::vector<uint32_t> RobustPrune(const Dataset& base, uint32_t p,
                                  std::vector<Neighbor> candidates, float alpha,
                                  size_t degree) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<uint32_t> result;
  std::vector<bool> removed(candidates.size(), false);
  for (size_t i = 0; i < candidates.size() && result.size() < degree; ++i) {
    if (removed[i] || candidates[i].id == p) continue;
    uint32_t pstar = candidates[i].id;
    result.push_back(pstar);
    // Remove candidates dominated by p*: alpha * d(p*, c) <= d(p, c).
    for (size_t j = i + 1; j < candidates.size(); ++j) {
      if (removed[j]) continue;
      float d_pc = candidates[j].dist;
      float d_sc = SquaredL2(base[pstar], base[candidates[j].id], base.dim());
      if (alpha * alpha * d_sc <= d_pc) removed[j] = true;  // squared metric
    }
  }
  return result;
}

std::vector<uint32_t> MrngSelect(const Dataset& base, uint32_t p,
                                 std::vector<Neighbor> candidates,
                                 size_t degree) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<uint32_t> sel;
  for (const Neighbor& c : candidates) {
    if (sel.size() >= degree) break;
    if (c.id == p) continue;
    bool occluded = false;
    for (uint32_t s : sel) {
      if (SquaredL2(base[c.id], base[s], base.dim()) < c.dist) {
        occluded = true;
        break;
      }
    }
    if (!occluded) sel.push_back(c.id);
  }
  return sel;
}

size_t FloodFill(const ProximityGraph& g, uint32_t from,
                 std::vector<bool>* reached) {
  std::vector<bool>& seen = *reached;
  if (seen[from]) return 0;
  seen[from] = true;
  std::vector<uint32_t> stack{from};
  size_t count = 1;
  while (!stack.empty()) {
    uint32_t v = stack.back();
    stack.pop_back();
    for (uint32_t u : g.Neighbors(v)) {
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
        ++count;
      }
    }
  }
  return count;
}

void RepairReachability(ProximityGraph* g, const NearestReached& nearest) {
  const size_t n = g->num_vertices();
  std::vector<bool> reached(n, false);
  FloodFill(*g, g->entry_point(), &reached);
  for (uint32_t v = 0; v < n; ++v) {
    if (reached[v]) continue;
    g->Neighbors(nearest(v, reached)).push_back(v);
    // Everything hanging off v becomes reachable too.
    FloodFill(*g, v, &reached);
  }
}

}  // namespace rpq::graph
