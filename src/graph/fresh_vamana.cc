#include "graph/fresh_vamana.h"

#include <algorithm>
#include <mutex>

#include "common/distance.h"
#include "common/logging.h"
#include "graph/beam_search.h"
#include "graph/build_steps.h"

namespace rpq::graph {

FreshVamanaIndex::FreshVamanaIndex(size_t dim, const VamanaOptions& options)
    : dim_(dim), opt_(options) {}

size_t FreshVamanaIndex::total_slots() const {
  std::shared_lock<WriterPriorityMutex> lk(mu_);
  return data_.size();
}

bool FreshVamanaIndex::IsDeleted(uint32_t id) const {
  std::shared_lock<WriterPriorityMutex> lk(mu_);
  return deleted_[id];
}

std::vector<uint32_t> FreshVamanaIndex::PruneLive(
    uint32_t v, std::vector<Neighbor> pool) const {
  // Tombstoned vertices must not become edges.
  pool.erase(std::remove_if(pool.begin(), pool.end(),
                            [&](const Neighbor& nb) {
                              return deleted_[nb.id] || nb.id == v;
                            }),
             pool.end());
  return RobustPrune(data_, v, std::move(pool), opt_.alpha, opt_.degree);
}

uint32_t FreshVamanaIndex::Insert(const float* vec) {
  std::unique_lock<WriterPriorityMutex> lk(mu_);
  uint32_t id = static_cast<uint32_t>(data_.size());
  data_.Append(vec, dim_);
  deleted_.push_back(false);
  live_count_.fetch_add(1, std::memory_order_relaxed);
  graph_.Resize(data_.size());
  if (id == 0) {
    graph_.set_entry_point(0);
    return id;  // first vertex: entry point, no edges yet
  }

  // Vamana's insert: pool search from the entry, prune, reverse edges.
  std::vector<Neighbor> pool =
      PoolSearch(graph_, graph_.entry_point(), data_, vec, opt_.build_beam);
  graph_.Neighbors(id) = PruneLive(id, std::move(pool));
  AddReverseEdges(&graph_, data_, id, opt_.degree,
                  [this](uint32_t u, std::vector<Neighbor> cand) {
                    return PruneLive(u, std::move(cand));
                  });
  return id;
}

void FreshVamanaIndex::Delete(uint32_t id) {
  std::unique_lock<WriterPriorityMutex> lk(mu_);
  RPQ_CHECK_LT(id, data_.size());
  if (deleted_[id]) return;
  deleted_[id] = true;
  live_count_.fetch_sub(1, std::memory_order_relaxed);
  // Keep the entry point live: move it to the nearest live neighbor.
  if (graph_.entry_point() == id) {
    for (uint32_t u : graph_.Neighbors(id)) {
      if (!deleted_[u]) {
        graph_.set_entry_point(u);
        break;
      }
    }
    if (graph_.entry_point() == id) {
      for (uint32_t v = 0; v < data_.size(); ++v) {
        if (!deleted_[v]) {
          graph_.set_entry_point(v);
          break;
        }
      }
    }
  }
}

void FreshVamanaIndex::Consolidate() {
  std::unique_lock<WriterPriorityMutex> lk(mu_);
  // FreshDiskANN's repair: every in-neighbor p of a deleted vertex d adopts
  // d's (live) out-neighbors as candidates, then re-prunes.
  size_t n = data_.size();
  for (uint32_t p = 0; p < n; ++p) {
    if (deleted_[p]) continue;
    auto& nb = graph_.Neighbors(p);
    bool touches_deleted = false;
    for (uint32_t u : nb) {
      if (deleted_[u]) {
        touches_deleted = true;
        break;
      }
    }
    if (!touches_deleted) continue;
    std::vector<Neighbor> pool;
    for (uint32_t u : nb) {
      if (!deleted_[u]) {
        pool.push_back({SquaredL2(data_[p], data_[u], dim_), u});
      } else {
        for (uint32_t w : graph_.Neighbors(u)) {
          if (!deleted_[w] && w != p) {
            pool.push_back({SquaredL2(data_[p], data_[w], dim_), w});
          }
        }
      }
    }
    nb = PruneLive(p, std::move(pool));
  }
  // Drop tombstoned adjacency so searches no longer traverse them.
  for (uint32_t v = 0; v < n; ++v) {
    if (deleted_[v]) graph_.Neighbors(v).clear();
  }
}

std::vector<Neighbor> FreshVamanaIndex::Search(const float* query, size_t k,
                                               size_t beam_width) const {
  std::shared_lock<WriterPriorityMutex> lk(mu_);
  if (live_count_.load(std::memory_order_relaxed) == 0) return {};
  // Over-fetch so tombstones filtered from the beam still leave k results.
  BeamSearchOptions bopt;
  bopt.beam_width = std::max(beam_width, 2 * k);
  bopt.k = bopt.beam_width;
  auto raw = BeamSearch(
      graph_, graph_.entry_point(),
      [&](uint32_t u) { return SquaredL2(query, data_[u], dim_); }, bopt,
      TlsVisitedTable(data_.size()));
  std::vector<Neighbor> out;
  out.reserve(k);
  for (const Neighbor& nb : raw) {
    if (!deleted_[nb.id]) {
      out.push_back(nb);
      if (out.size() == k) break;
    }
  }
  return out;
}

}  // namespace rpq::graph
