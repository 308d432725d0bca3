// FreshVamana: incremental (streaming) Vamana maintenance in the spirit of
// FreshDiskANN [61], which the paper names as an RPQ integration target
// (§7). Supports online Insert, lazy Delete (tombstones), and Consolidate —
// the edge-repair pass that routes around removed vertices by splicing each
// deleted vertex's out-neighbors into its in-neighbors' lists under
// RobustPrune.
//
// Concurrency model (v1, shared-lock epochs): Search takes a shared lock,
// the mutators (Insert / Delete / Consolidate) take an exclusive lock, and
// per-query scratch comes from thread-local storage — so any number of
// readers run fully in parallel and only pause for the duration of one write
// (no reader ever waits on another reader). The lock is writer-priority
// (common/rwlock.h) so a saturated read load cannot starve the update
// stream. The serving layer (serve::FreshVamanaService) relies on exactly
// this contract.
#pragma once

#include <atomic>
#include <cstdint>
#include <shared_mutex>
#include <vector>

#include "common/rwlock.h"
#include "common/topk.h"
#include "data/dataset.h"
#include "graph/graph.h"
#include "graph/vamana.h"

namespace rpq::graph {

/// Streaming Vamana index owning a growing copy of the vectors.
class FreshVamanaIndex {
 public:
  explicit FreshVamanaIndex(size_t dim, const VamanaOptions& options = {});

  /// Inserts one vector; returns its id. Ids are stable across deletes.
  uint32_t Insert(const float* vec);

  /// Tombstones a vertex: excluded from results immediately, still traversed
  /// until the next Consolidate() (FreshDiskANN's lazy-delete semantics).
  void Delete(uint32_t id);

  /// Repairs the graph around tombstoned vertices and drops their edges.
  void Consolidate();

  /// Beam search; tombstoned vertices are traversed but never returned.
  /// Safe to call from any number of threads concurrently with mutators.
  std::vector<Neighbor> Search(const float* query, size_t k,
                               size_t beam_width) const;

  size_t size() const { return live_count_.load(std::memory_order_relaxed); }
  size_t total_slots() const;  ///< incl. tombstones
  bool IsDeleted(uint32_t id) const;

  /// Structure accessors for tests/tools; callers must ensure no concurrent
  /// mutator is running (they return references into guarded state).
  const ProximityGraph& graph() const { return graph_; }
  const Dataset& data() const { return data_; }

 private:
  /// RobustPrune over the live candidates other than v: v's new out-list.
  /// Caller holds mu_ (exclusive).
  std::vector<uint32_t> PruneLive(uint32_t v, std::vector<Neighbor> pool) const;

  size_t dim_;
  VamanaOptions opt_;
  Dataset data_;
  ProximityGraph graph_;
  std::vector<bool> deleted_;
  std::atomic<size_t> live_count_{0};
  mutable WriterPriorityMutex mu_;
};

}  // namespace rpq::graph
