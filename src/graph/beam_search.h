// Generic best-first beam search over a proximity graph (paper §3.1).
// The distance oracle is a template parameter, so one routine serves exact
// search, in-memory ADC and FastScan search, and graph construction
// (HNSW's layer search and graph::PoolSearch).
//
// Hot-loop layout: the beam is one flat sorted array of {dist, id, expanded}
// entries (a single memmove per insert instead of a vector<Neighbor> plus a
// bit-packed vector<bool>), and a cursor tracks the next unexpanded entry
// instead of rescanning the beam. Each expansion is one call of
// detail::ExpandVertex, which gathers the unvisited neighbors first so a
// batch-capable oracle (e.g. quant::AdcBatchOracle) can score them in one
// vectorized call. That step is the only copy: the hybrid
// disk::DiskIndex::Search drives it from its I/O waves. Results are
// identical to the straightforward insert-one-at-a-time formulation;
// tests/beam_regression_test.cc pins that.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/deadline.h"
#include "common/topk.h"
#include "graph/graph.h"

namespace rpq::graph {

/// Instrumentation collected per query (the paper reports Hops).
struct SearchStats {
  size_t hops = 0;          ///< next-hop selections (expanded vertices)
  size_t dist_comps = 0;    ///< distance-oracle invocations
  size_t visited_hits = 0;  ///< neighbors skipped because already visited
  bool deadline_hit = false;  ///< search stopped early at its deadline
};

/// Beam-search knobs; beam_width is `h` in the paper.
struct BeamSearchOptions {
  size_t beam_width = 32;
  size_t k = 10;
  /// Optional budget: checked once per hop; on expiry the search returns the
  /// best candidates found so far and sets SearchStats::deadline_hit.
  Deadline deadline;
};

/// How many ids ahead the neighbor-gather loop of detail::ExpandVertex
/// prefetches the visited-table stamp.
inline constexpr size_t kVisitedPrefetchDistance = 4;

/// Optional per-step observer: receives the ranked global candidate set
/// (ascending estimated distance, <= beam_width entries) right before each
/// expansion. Used by the routing-feature extractor (Alg. 2).
using StepObserver = std::function<void(const std::vector<Neighbor>& beam)>;

namespace detail {

/// True when the oracle exposes the batched form dist(ids, n, out); the
/// search then scores a whole expansion's neighbors per call.
template <typename DistFn>
inline constexpr bool kHasBatchScore =
    std::is_invocable_v<DistFn&, const uint32_t*, size_t, float*>;

/// True when the oracle scores a vertex's whole adjacency in one pass via
/// ScoreNeighbors(v, nbrs, deg, out) — the FastScan shape, where per-vertex
/// packed neighbor codes make scoring the full block (visited included)
/// cheaper than gathering the unvisited subset first
/// (quant::FastScanNeighborOracle).
template <typename DistFn, typename = void>
struct HasNeighborBlockScore : std::false_type {};
template <typename DistFn>
struct HasNeighborBlockScore<
    DistFn, std::void_t<decltype(std::declval<DistFn&>().ScoreNeighbors(
                uint32_t{}, static_cast<const uint32_t*>(nullptr), size_t{},
                static_cast<float*>(nullptr)))>> : std::true_type {};
template <typename DistFn>
inline constexpr bool kHasNeighborBlockScore =
    HasNeighborBlockScore<std::decay_t<DistFn>>::value;

/// Optional companion to ScoreNeighbors: PrefetchNeighbors(v) warms the
/// oracle's per-vertex data for a vertex about to be expanded.
template <typename DistFn, typename = void>
struct HasPrefetchNeighbors : std::false_type {};
template <typename DistFn>
struct HasPrefetchNeighbors<
    DistFn, std::void_t<decltype(std::declval<const DistFn&>().PrefetchNeighbors(
                uint32_t{}))>> : std::true_type {};
template <typename DistFn>
inline constexpr bool kHasPrefetchNeighbors =
    HasPrefetchNeighbors<std::decay_t<DistFn>>::value;

/// One beam slot; kept POD so inserts are a single memmove.
struct BeamEntry {
  float dist;
  uint32_t id;
  uint32_t expanded;
};

/// (dist, id) ordering; delegates to Neighbor::operator< so the determinism
/// tie-break is defined in exactly one place.
inline bool EntryBefore(const BeamEntry& e, float dist, uint32_t id) {
  return Neighbor{e.dist, e.id} < Neighbor{dist, id};
}

/// The flat-beam candidate set: one sorted POD array plus a cursor tracking
/// the next unexpanded entry. graph::BeamSearch and the hybrid
/// disk::DiskIndex::Search both keep their beam in one, so the invariant
/// lives (and is regression-tested) in exactly one place.
class FlatBeam {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  explicit FlatBeam(size_t width) : width_(width) {
    entries_.reserve(width + 1);
  }

  const std::vector<BeamEntry>& entries() const { return entries_; }

  /// Bounded sorted insert; keeps at most `width` best (dist, id) entries.
  void Insert(float d, uint32_t id) {
    if (entries_.size() >= width_) {
      const BeamEntry& worst = entries_.back();
      if (!EntryBefore(BeamEntry{d, id, 0}, worst.dist, worst.id)) return;
    }
    auto it = std::lower_bound(entries_.begin(), entries_.end(),
                               BeamEntry{d, id, 0},
                               [](const BeamEntry& e, const BeamEntry& c) {
                                 return EntryBefore(e, c.dist, c.id);
                               });
    size_t pos = static_cast<size_t>(it - entries_.begin());
    entries_.insert(it, BeamEntry{d, id, 0});
    if (entries_.size() > width_) entries_.pop_back();
    if (pos < cursor_) cursor_ = pos;
  }

  /// Distance of the current worst kept entry, or +inf while the beam still
  /// has room. Candidates strictly above this can never enter the beam (the
  /// worst only tightens), so block-scoring oracles prune on it before even
  /// touching the visited table.
  float WorstDist() const {
    return entries_.size() >= width_
               ? entries_.back().dist
               : std::numeric_limits<float>::infinity();
  }

  /// Index of the closest unexpanded entry, or kNone when converged. Does
  /// not mark it: callers flip `expanded` once they commit to the hop.
  size_t NextUnexpanded() {
    while (cursor_ < entries_.size() && entries_[cursor_].expanded != 0) {
      ++cursor_;
    }
    return cursor_ == entries_.size() ? kNone : cursor_;
  }

  void MarkExpanded(size_t pos) { entries_[pos].expanded = 1; }

 private:
  std::vector<BeamEntry> entries_;
  size_t width_;
  size_t cursor_ = 0;
};

/// Per-query buffers of ExpandVertex, reused across expansions. They are
/// grown to the degree before the gather loop, which then writes through a
/// raw pointer: a push_back there would put a reallocation call inside the
/// loop, and the compiler spills the loop's registers around it.
struct ExpandScratch {
  std::vector<uint32_t> ids;  ///< unvisited neighbors of one expansion
  std::vector<float> dists;   ///< their estimates

  explicit ExpandScratch(size_t degree) : ids(degree), dists(degree) {}

  /// Grows both buffers to hold `degree` entries; never shrinks.
  void Fit(size_t degree) {
    if (ids.size() < degree) {
      ids.resize(degree);
      dists.resize(degree);
    }
  }
};

/// Starts a traversal at `entry`: opens a new visited epoch, scores the
/// entry through either oracle form, seeds the beam with it and marks it
/// visited.
template <typename DistFn>
void SeedBeam(uint32_t entry, DistFn& dist, FlatBeam* beam,
              VisitedTable* visited, SearchStats* stats) {
  visited->NextEpoch();
  float d0;
  if constexpr (std::is_invocable_r_v<float, DistFn&, uint32_t>) {
    d0 = dist(entry);
  } else {
    dist(&entry, 1, &d0);
  }
  if (stats != nullptr) ++stats->dist_comps;
  beam->Insert(d0, entry);
  visited->MarkVisited(entry);
}

/// The expansion step, the one copy every graph traversal runs: scores the
/// adjacency nbrs[0, deg) of the expanded vertex v and inserts the unvisited
/// candidates into the beam. graph::BeamSearch calls it once per hop with
/// v's in-memory adjacency; the hybrid disk::DiskIndex::Search calls it once
/// per fetched node block with the adjacency read from the device.
template <typename DistFn>
void ExpandVertex(uint32_t v, const uint32_t* nbrs, size_t deg, DistFn& dist,
                  FlatBeam* beam, VisitedTable* visited,
                  ExpandScratch* scratch, SearchStats* stats) {
  if (deg == 0) return;
  scratch->Fit(deg);
  float* cand_dists = scratch->dists.data();
  if constexpr (kHasNeighborBlockScore<DistFn>) {
    // Neighbor-block oracle: score the WHOLE adjacency in one pass (the
    // packed block scores 32 codes per shuffle, so re-scoring visited
    // entries is cheaper than gathering the unvisited subset), then filter
    // on the way into the beam. Distance-first pruning: a candidate worse
    // than the beam's current worst can never be kept (the bound only
    // tightens), so it is dropped on a register compare without spending a
    // scattered visited-stamp load/store on it. Skipping its visited mark
    // is safe for the same reason — any later encounter prunes again.
    dist.ScoreNeighbors(v, nbrs, deg, cand_dists);
    if (stats != nullptr) stats->dist_comps += deg;
    float worst = beam->WorstDist();
    for (size_t i = 0; i < deg; ++i) {
      if (cand_dists[i] > worst) continue;
      const uint32_t u = nbrs[i];
      if (visited->Visited(u)) {
        if (stats != nullptr) ++stats->visited_hits;
        continue;
      }
      visited->MarkVisited(u);
      beam->Insert(cand_dists[i], u);
      worst = beam->WorstDist();
    }
  } else {
    // Gather the unvisited neighbors first (prefetching visited stamps a
    // few ids ahead), then score them through the oracle — batched when it
    // can.
    uint32_t* cand_ids = scratch->ids.data();
    size_t n = 0;
    for (size_t i = 0; i < deg; ++i) {
      if (i + kVisitedPrefetchDistance < deg) {
        visited->Prefetch(nbrs[i + kVisitedPrefetchDistance]);
      }
      const uint32_t u = nbrs[i];
      if (visited->Visited(u)) {
        if (stats != nullptr) ++stats->visited_hits;
        continue;
      }
      visited->MarkVisited(u);
      cand_ids[n++] = u;
    }
    if (n == 0) return;

    if constexpr (kHasBatchScore<DistFn>) {
      dist(cand_ids, n, cand_dists);
    } else {
      for (size_t i = 0; i < n; ++i) cand_dists[i] = dist(cand_ids[i]);
    }
    if (stats != nullptr) stats->dist_comps += n;
    for (size_t i = 0; i < n; ++i) beam->Insert(cand_dists[i], cand_ids[i]);
  }
}

}  // namespace detail

/// Runs beam search from `entry`; `dist(v)` returns the (estimated) distance
/// of vertex v to the query (oracles may additionally/instead provide the
/// batched form `dist(ids, n, out)`). Returns up to k results ascending by
/// distance.
template <typename DistFn>
std::vector<Neighbor> BeamSearch(const ProximityGraph& g, uint32_t entry,
                                 DistFn&& dist, const BeamSearchOptions& opt,
                                 VisitedTable* visited, SearchStats* stats = nullptr,
                                 const StepObserver& observer = nullptr) {
  detail::FlatBeam beam(std::max(opt.beam_width, opt.k));
  detail::ExpandScratch scratch(64);
  std::vector<Neighbor> observer_view;
  detail::SeedBeam(entry, dist, &beam, visited, stats);

  for (;;) {
    const size_t next = beam.NextUnexpanded();
    if (next == detail::FlatBeam::kNone) break;  // all expanded: converged
    if (opt.deadline.Expired()) {
      // Partial answer: everything inserted so far is still correctly
      // ranked, it just may not have converged.
      if (stats != nullptr) stats->deadline_hit = true;
      break;
    }

    if (observer) {
      observer_view.clear();
      observer_view.reserve(beam.entries().size());
      for (const auto& e : beam.entries()) {
        observer_view.push_back({e.dist, e.id});
      }
      observer(observer_view);
    }
    beam.MarkExpanded(next);
    const uint32_t v = beam.entries()[next].id;
    if (stats != nullptr) ++stats->hops;

    const std::vector<uint32_t>& nbrs = g.Neighbors(v);
    detail::ExpandVertex(v, nbrs.data(), nbrs.size(), dist, &beam, visited,
                         &scratch, stats);
    // Kick off the next expansion's block fetch while this iteration's
    // bookkeeping (observer, stats, cursor walk) still runs.
    if constexpr (detail::kHasPrefetchNeighbors<DistFn>) {
      const size_t peek = beam.NextUnexpanded();
      if (peek != detail::FlatBeam::kNone) {
        dist.PrefetchNeighbors(beam.entries()[peek].id);
      }
    }
  }

  std::vector<Neighbor> results;
  const size_t out_n = std::min(opt.k, beam.entries().size());
  results.reserve(out_n);
  for (size_t i = 0; i < out_n; ++i) {
    results.push_back({beam.entries()[i].dist, beam.entries()[i].id});
  }
  return results;
}

/// Greedy 1-best descent: moves to the best neighbor until none improves.
/// HnswIndex descends its upper levels with it to find the next entry point.
template <typename DistFn>
uint32_t GreedyDescent(const ProximityGraph& g, uint32_t entry, DistFn&& dist) {
  uint32_t cur = entry;
  float cur_d = dist(cur);
  bool improved = true;
  while (improved) {
    improved = false;
    for (uint32_t u : g.Neighbors(cur)) {
      float d = dist(u);
      if (d < cur_d) {
        cur_d = d;
        cur = u;
        improved = true;
      }
    }
  }
  return cur;
}

}  // namespace rpq::graph
