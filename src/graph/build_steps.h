// The construction steps every graph builder shares: Vamana, FreshVamana,
// NSG and HNSW each call these copies and differ only in the selection rule
// and the extra candidates they pass. RobustPrune and MRNG stay two rules:
// at alpha = 1 RobustPrune occludes on d(s,c) <= d(p,c), MRNG on
// d(s,c) < d(p,c), and integer-valued data has real distance ties.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/topk.h"
#include "data/dataset.h"
#include "graph/graph.h"

namespace rpq::graph {

/// Insert-time beam search from `entry` toward `query` over `data`'s rows
/// with a `pool_width`-wide beam. Returns every vertex it scored (in scoring
/// order) with its exact squared distance to `query`; callers append their
/// own extra candidates before selecting.
std::vector<Neighbor> PoolSearch(const ProximityGraph& g, uint32_t entry,
                                 const Dataset& data, const float* query,
                                 size_t pool_width);

/// A neighbor-selection rule: returns p's new out-list chosen from
/// `candidates`, each scored by its exact squared distance to p.
using SelectRule =
    std::function<std::vector<uint32_t>(uint32_t p, std::vector<Neighbor>)>;

/// Offers the reverse edge u -> v for each out-neighbor u of v, skipping u
/// when it already links to v. When u's list then exceeds `degree`, it is
/// re-selected by `select` over its current ids scored against u.
void AddReverseEdges(ProximityGraph* g, const Dataset& data, uint32_t v,
                     size_t degree, const SelectRule& select);

/// RobustPrune (Vamana): selects up to `degree` diverse neighbors for `p`
/// from `candidates`, dropping every candidate c that a selected s occludes
/// with alpha * d(s, c) <= d(p, c).
std::vector<uint32_t> RobustPrune(const Dataset& base, uint32_t p,
                                  std::vector<Neighbor> candidates, float alpha,
                                  size_t degree);

/// MRNG edge selection (NSG; HNSW adds its backfill on top): sorts and
/// dedupes `candidates`, skips p itself, and keeps c unless a selected s has
/// d(s, c) < d(p, c), up to `degree` edges.
std::vector<uint32_t> MrngSelect(const Dataset& base, uint32_t p,
                                 std::vector<Neighbor> candidates,
                                 size_t degree);

/// Marks every vertex reachable from `from` in `reached` (sized to the
/// graph) and returns how many were newly marked, `from` included.
size_t FloodFill(const ProximityGraph& g, uint32_t from,
                 std::vector<bool>* reached);

/// Picks the reached vertex that should link to the orphan v.
using NearestReached =
    std::function<uint32_t(uint32_t v, const std::vector<bool>& reached)>;

/// Orphan repair: floods from the entry point, then, in id order, links each
/// still-unreached vertex v from `nearest(v, reached)` and floods from v, so
/// one in-edge reconnects v's whole island. The added edges are not bounded
/// by any degree cap.
void RepairReachability(ProximityGraph* g, const NearestReached& nearest);

}  // namespace rpq::graph
