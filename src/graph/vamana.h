// Vamana graph construction — the PG underlying DiskANN [36] and the paper's
// hybrid-scenario experiments. Random-regular initialization followed by two
// passes of greedy-search + RobustPrune (alpha = 1, then alpha), with pruned
// reverse edges (graph/build_steps.h).
#pragma once

#include <cstdint>

#include "data/dataset.h"
#include "graph/graph.h"

namespace rpq::graph {

/// Vamana construction knobs (DiskANN defaults scaled to this library).
struct VamanaOptions {
  size_t degree = 32;       ///< R: max out-degree
  size_t build_beam = 64;   ///< L: search list size during construction
  float alpha = 1.2f;       ///< RobustPrune slack of the second pass
  uint64_t seed = 29;
};

/// Builds the Vamana PG; entry point is the dataset medoid.
ProximityGraph BuildVamana(const Dataset& base, const VamanaOptions& options);

}  // namespace rpq::graph
