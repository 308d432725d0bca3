// NSG (Navigating Spreading-out Graph) [26]: refines an (approximate) kNN
// graph with MRNG edge selection from a navigating node (the medoid), then
// enforces connectivity with a spanning pass. Used by the paper's Figure 7
// in-memory experiments.
#pragma once

#include <cstddef>

#include "data/dataset.h"
#include "graph/graph.h"

namespace rpq::graph {

/// NSG construction knobs.
struct NsgOptions {
  size_t knn_k = 48;        ///< degree of the initial kNN graph
  size_t search_pool = 96;  ///< candidate pool gathered per node (L)
  size_t degree = 32;       ///< R: max out-degree of the final graph
};

/// Builds NSG over `base`; entry point = medoid (navigating node).
ProximityGraph BuildNsg(const Dataset& base, const NsgOptions& options);

}  // namespace rpq::graph
