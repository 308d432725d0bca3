// Exact and approximate k-nearest-neighbor graph construction, the substrate
// NSG refines into its final edge set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "common/topk.h"
#include "data/dataset.h"

namespace rpq::graph {

/// knn[i] = up to k nearest neighbors of base[i] (ascending), self excluded.
using KnnLists = std::vector<std::vector<Neighbor>>;

/// NN-Descent [Dong et al.]: iterative neighbor-of-neighbor refinement.
/// Approximate but near-linear; used for larger bases.
struct NnDescentOptions {
  size_t k = 32;
  size_t iters = 8;
  size_t sample = 16;      ///< sampled candidates per side and round
  uint64_t seed = 19;
};
KnnLists BuildNnDescent(const Dataset& base, const NnDescentOptions& options);

/// Chooses exact lists (ComputeSelfKnn, brute force) vs NN-Descent by base
/// size (threshold picked for 1 core).
KnnLists BuildKnnAuto(const Dataset& base, size_t k, ThreadPool* pool = nullptr);

/// Index of the medoid: the vector minimizing distance to the dataset mean.
uint32_t FindMedoid(const Dataset& base);

}  // namespace rpq::graph
