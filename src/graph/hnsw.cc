#include "graph/hnsw.h"

#include <algorithm>
#include <cmath>

#include "common/distance.h"
#include "common/logging.h"
#include "graph/beam_search.h"
#include "graph/build_steps.h"

namespace rpq::graph {
namespace {

// Exact squared-L2 oracle for graph::BeamSearch and graph::GreedyDescent.
auto ExactL2(const Dataset& base, const float* query) {
  return [&base, query](uint32_t v) {
    return SquaredL2(query, base[v], base.dim());
  };
}

// Malkov's heuristic neighbor selection (Algorithm 4): the MRNG rule, then
// backfilled with the nearest rejected candidates when diversity pruning
// kept fewer than m.
std::vector<uint32_t> SelectWithBackfill(const Dataset& base, uint32_t p,
                                         std::vector<Neighbor> candidates,
                                         size_t m) {
  std::vector<uint32_t> selected = MrngSelect(base, p, candidates, m);
  if (selected.size() < m) {
    std::sort(candidates.begin(), candidates.end());
    for (const Neighbor& c : candidates) {
      if (selected.size() >= m) break;
      if (std::find(selected.begin(), selected.end(), c.id) == selected.end()) {
        selected.push_back(c.id);
      }
    }
  }
  return selected;
}

}  // namespace

HnswIndex::HnswIndex(const Dataset& base, const HnswOptions& options)
    : base_(base),
      opt_(options),
      level_mult_(1.0 / std::log(static_cast<double>(options.m))),
      rng_(options.seed) {}

std::unique_ptr<HnswIndex> HnswIndex::Build(const Dataset& base,
                                            const HnswOptions& options) {
  RPQ_CHECK(!base.empty());
  auto index = std::unique_ptr<HnswIndex>(new HnswIndex(base, options));
  for (uint32_t i = 0; i < base.size(); ++i) index->Insert(i);
  return index;
}

void HnswIndex::Insert(uint32_t id) {
  size_t level = static_cast<size_t>(
      -std::log(std::max(1e-12f, rng_.Uniform(0.0f, 1.0f))) * level_mult_);

  while (levels_.size() <= level) {
    levels_.emplace_back(base_.size());
  }

  if (num_inserted_ == 0) {
    entry_ = id;
    max_level_ = level;
    ++num_inserted_;
    return;
  }

  const auto dist = ExactL2(base_, base_[id]);
  uint32_t cur = entry_;

  // Greedy descent through layers above the node's level.
  for (size_t l = max_level_; l > level && l > 0; --l) {
    cur = GreedyDescent(levels_[l], cur, dist);
  }

  // Insert with ef-search on each layer from min(level, max_level_) down to 0.
  BeamSearchOptions bopt;
  bopt.beam_width = opt_.ef_construction;
  bopt.k = opt_.ef_construction;
  for (size_t l = std::min(level, max_level_) + 1; l-- > 0;) {
    auto candidates =
        BeamSearch(levels_[l], cur, dist, bopt, TlsVisitedTable(base_.size()));
    if (!candidates.empty()) cur = candidates.front().id;
    const size_t m_layer = (l == 0) ? opt_.m * 2 : opt_.m;
    ProximityGraph& layer = levels_[l];
    layer.Neighbors(id) =
        SelectWithBackfill(base_, id, std::move(candidates), opt_.m);
    // Overflowing lists shrink with the same diversity heuristic.
    AddReverseEdges(&layer, base_, id, m_layer,
                    [&](uint32_t u, std::vector<Neighbor> cand) {
                      return SelectWithBackfill(base_, u, std::move(cand),
                                                m_layer);
                    });
  }

  if (level > max_level_) {
    max_level_ = level;
    entry_ = id;
  }
  ++num_inserted_;
}

std::vector<Neighbor> HnswIndex::Search(const float* query, size_t k,
                                        size_t ef) const {
  const auto dist = ExactL2(base_, query);
  uint32_t cur = entry_;
  for (size_t l = max_level_; l > 0; --l) {
    cur = GreedyDescent(levels_[l], cur, dist);
  }
  BeamSearchOptions bopt;
  bopt.beam_width = ef;
  bopt.k = k;
  return BeamSearch(levels_[0], cur, dist, bopt, TlsVisitedTable(base_.size()));
}

ProximityGraph HnswIndex::Flatten() const {
  ProximityGraph g = levels_[0];
  g.set_entry_point(entry_);
  return g;
}

}  // namespace rpq::graph
