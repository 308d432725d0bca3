// Proximity-graph container (Definition 2 of the paper): one vertex per base
// vector, adjacency lists as neighbor ids, a designated entry vertex for
// routing. HNSW / NSG / Vamana builders all produce this representation for
// the PQ-integrated search phase.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace rpq::graph {

/// Degree statistics used by tests and reports.
struct DegreeStats {
  size_t min_degree = 0;
  size_t max_degree = 0;
  double avg_degree = 0.0;
  size_t num_edges = 0;  ///< directed edge count
};

/// Directed proximity graph with a routing entry point.
class ProximityGraph {
 public:
  ProximityGraph() = default;
  explicit ProximityGraph(size_t n) : adj_(n) {}

  size_t num_vertices() const { return adj_.size(); }
  uint32_t entry_point() const { return entry_; }
  void set_entry_point(uint32_t e) { entry_ = e; }

  /// Grows the vertex set (new vertices start with no edges).
  void Resize(size_t n) { adj_.resize(n); }

  std::vector<uint32_t>& Neighbors(uint32_t v) { return adj_[v]; }
  const std::vector<uint32_t>& Neighbors(uint32_t v) const { return adj_[v]; }

  DegreeStats ComputeDegreeStats() const;

  /// Fraction of vertices reachable from the entry point (graph::FloodFill).
  double ReachableFraction() const;

  /// Binary (de)serialization so expensive builds can be cached on disk.
  Status Save(const std::string& path) const;
  static Result<ProximityGraph> Load(const std::string& path);

 private:
  std::vector<std::vector<uint32_t>> adj_;
  uint32_t entry_ = 0;
};

/// O(1)-reset visited-set based on epoch stamps, reused across queries.
class VisitedTable {
 public:
  explicit VisitedTable(size_t n) : stamp_(n, 0) {}

  void NextEpoch() {
    if (++epoch_ == 0) {  // wrapped: clear everything once
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      epoch_ = 1;
    }
  }
  bool Visited(uint32_t v) const { return stamp_[v] == epoch_; }
  void MarkVisited(uint32_t v) { stamp_[v] = epoch_; }

  /// Hints that v's stamp is about to be checked (beam-search expansions
  /// touch the table at graph-neighbor stride, which defeats the prefetcher).
  void Prefetch(uint32_t v) const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(stamp_.data() + v);
#endif
  }
  size_t size() const { return stamp_.size(); }

  /// Grows the table (new entries are unvisited in every epoch).
  void Resize(size_t n) { stamp_.resize(n, 0); }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

/// The calling thread's visited-table scratch, grown to at least n entries.
/// Every search starts with NextEpoch(), so one table per thread is safely
/// shared across indexes of any size — stale stamps from another index can
/// never alias the current epoch. This is what makes const Search methods
/// thread-safe: concurrent callers each get their own table.
VisitedTable* TlsVisitedTable(size_t n);

}  // namespace rpq::graph
