// Hierarchical Navigable Small World graphs [48]. Used two ways:
//  * as the in-memory PG of the paper's Figure 6 experiments (base layer +
//    entry point flattened into a ProximityGraph for PQ-integrated search);
//  * as a fast exact-vector ANN engine for building kNN lists during other
//    constructions (NSG candidate pools, ground-truth shortcuts).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/topk.h"
#include "data/dataset.h"
#include "graph/graph.h"

namespace rpq::graph {

/// HNSW construction knobs.
struct HnswOptions {
  size_t m = 16;                ///< neighbors per node on upper layers
  size_t ef_construction = 150; ///< candidate-pool width during insertion
  uint64_t seed = 23;
};

/// Multi-layer HNSW over a borrowed dataset (must outlive the index).
class HnswIndex {
 public:
  /// Inserts all vectors of `base` (sequentially, deterministic given seed).
  static std::unique_ptr<HnswIndex> Build(const Dataset& base,
                                          const HnswOptions& options);

  /// Exact-distance kNN query over the hierarchy. Const and thread-safe:
  /// the visited table comes from thread-local storage.
  std::vector<Neighbor> Search(const float* query, size_t k, size_t ef) const;

  /// Base layer + hierarchical entry point as a plain proximity graph.
  ProximityGraph Flatten() const;

  size_t max_level() const { return max_level_; }
  uint32_t entry_point() const { return entry_; }

 private:
  HnswIndex(const Dataset& base, const HnswOptions& options);

  void Insert(uint32_t id);
  /// Malkov's heuristic neighbor selection (keeps spatially diverse edges).
  std::vector<uint32_t> SelectNeighbors(const float* query,
                                        std::vector<Neighbor> candidates,
                                        size_t m) const;

  const Dataset& base_;
  HnswOptions opt_;
  double level_mult_;
  Rng rng_;

  // One proximity graph per level over all node ids; a node has edges only
  // on the levels it was inserted into. Level 0 allows 2*M neighbors, upper
  // levels M. Level 0 plus entry_ is what Flatten() returns.
  std::vector<ProximityGraph> levels_;
  uint32_t entry_ = 0;
  size_t max_level_ = 0;
  size_t num_inserted_ = 0;
};

}  // namespace rpq::graph
