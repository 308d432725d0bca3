#include "core/memory_index.h"

#include <algorithm>

#include "common/logging.h"
#include "quant/adc.h"

namespace rpq::core {
namespace {

// Per-query stats roll-up into the registry (one TLS add per counter per
// query — never inside the traversal).
void RecordSearchMetrics(const graph::SearchStats& stats) {
  if (!obs::MetricsEnabled()) return;
  static const obs::CounterId queries = obs::GetCounter("memory.queries");
  static const obs::CounterId hops = obs::GetCounter("graph.hops");
  static const obs::CounterId dist = obs::GetCounter("graph.dist_comps");
  static const obs::CounterId hits = obs::GetCounter("graph.visited_hits");
  obs::Add(queries, 1);
  obs::Add(hops, stats.hops);
  obs::Add(dist, stats.dist_comps);
  obs::Add(hits, stats.visited_hits);
}

}  // namespace

std::unique_ptr<MemoryIndex> MemoryIndex::Build(
    const Dataset& base, const graph::ProximityGraph& graph,
    const quant::VectorQuantizer& quantizer,
    const MemoryIndexOptions& options) {
  auto index = std::unique_ptr<MemoryIndex>(new MemoryIndex(graph, quantizer));
  index->codes_ = quantizer.EncodeDataset(base);
  index->dim_ = base.dim();
  if (options.fastscan_layout && quantizer.num_centroids() <= 16 &&
      quant::FastScanCapable(quantizer)) {
    // 4-bit-capable quantizer: lay out every vertex's neighbor codes as
    // packed FastScan blocks so kFastScan searches score whole expansions
    // with register-resident shuffles.
    index->fastscan_ = quant::PackedNeighborBlocks::Build(
        graph, index->codes_.data(), quantizer.code_size());
  }
  if (options.store_vectors) {
    index->vectors_.assign(base.data(), base.data() + base.size() * base.dim());
  }
  return index;
}

quant::DistanceLut MemoryIndex::TableFor(const float* query,
                                        DistanceMode mode) const {
  if (mode != DistanceMode::kSdc) return quant::AdcTable(quantizer_, query);
  const auto* pq = dynamic_cast<const quant::PqQuantizer*>(&quantizer_);
  RPQ_CHECK(pq != nullptr && "SDC requires a PQ-family quantizer");
  return quant::SdcTable(*pq, query);
}

MemorySearchResult MemoryIndex::SearchFastScan(
    const float* query, const quant::DistanceLut& table, size_t k,
    const graph::BeamSearchOptions& opt, const refine::RerankSpec& rerank,
    graph::VisitedTable* visited, obs::QueryTrace* trace) const {
  RPQ_CHECK(fastscan_.has_value() &&
            "FastScan needs a quantizer with K <= 16 (see PqOptions.nbits)");
  MemorySearchResult out;
  const size_t code_size = quantizer_.code_size();

  // Navigate on the u8-quantized table; the refinement stage (float ADC by
  // default — the float table is what the u8 one was quantized from — or
  // exact / Link&Code when the index carries that state) re-scores the
  // widened candidate list to undo the u8 rounding error.
  quant::FastScanTable ftable(table);
  quant::FastScanNeighborOracle oracle(ftable, codes_.data(), code_size,
                                       *fastscan_);
  // The rerank list is drawn from the beam, so it is capped at the effective
  // beam width — widening it never widens the traversal (the A/B against
  // the float-ADC path stays beam-for-beam fair).
  const size_t beam_width = std::max(opt.beam_width, k);
  const size_t width =
      std::min(beam_width, refine::EffectiveRerankWidth(rerank.width, k));
  std::vector<Neighbor> cands;
  {
    obs::ScopedStage span(obs::Stage::kBeam, trace);
    cands = graph::BeamSearch(graph_, graph_.entry_point(), oracle,
                              {beam_width, width, opt.deadline}, visited,
                              &out.stats);
  }

  // Shared refinement epilogue: the beam's survivors become a
  // CandidateBuffer (bulk-fed — the beam was invoked with result count =
  // width, so nothing can evict), one Refiner stage re-scores them, top-k
  // comes back sorted by (refined distance, id).
  refine::CandidateBuffer buffer(width);
  buffer.PushBounded(cands.data(), cands.size());
  out.stats.dist_comps += buffer.size();
  switch (refine::ResolveAutoMode(rerank.mode, stores_vectors())) {
    case refine::RerankMode::kExact: {
      RPQ_CHECK(stores_vectors() &&
                "RerankMode::kExact needs MemoryIndexOptions.store_vectors");
      refine::ExactRefiner refiner(query, dim_, vectors_.data());
      out.results = refine::RefineTopK(buffer, refiner, k, trace);
      break;
    }
    case refine::RerankMode::kLinkCode: {
      RPQ_CHECK(linkcode_ != nullptr &&
                "RerankMode::kLinkCode needs set_linkcode()");
      refine::LinkCodeRefiner refiner(query, *linkcode_);
      out.results = refine::RefineTopK(buffer, refiner, k, trace);
      break;
    }
    default: {
      // Float-ADC: batched through the gather kernel (one call for all
      // candidates).
      refine::AdcRefiner refiner(table, codes_.data(), code_size);
      out.results = refine::RefineTopK(buffer, refiner, k, trace);
      break;
    }
  }
  return out;
}

MemorySearchResult MemoryIndex::Search(const float* query, size_t k,
                                       const graph::BeamSearchOptions& opt,
                                       DistanceMode mode,
                                       const refine::RerankSpec& rerank,
                                       obs::QueryTrace* trace) const {
  return std::move(SearchBatch(&query, 1, k, opt, mode, rerank, trace)[0]);
}

std::vector<MemorySearchResult> MemoryIndex::SearchBatch(
    const float* const* queries, size_t nq, size_t k,
    const graph::BeamSearchOptions& opt, DistanceMode mode,
    const refine::RerankSpec& rerank, obs::QueryTrace* trace) const {
  std::vector<MemorySearchResult> out(nq);
  if (nq == 0) return out;
  graph::VisitedTable* visited = graph::TlsVisitedTable(graph_.num_vertices());
  const size_t code_size = quantizer_.code_size();
  // Tiled: table memory stays bounded and the tile's tables stay
  // cache-resident no matter how large the submitted batch is. The FastScan
  // branch derives its u8 tables inside SearchFastScan from the same float
  // tables, so every mode shares the amortized build.
  constexpr size_t kTile = 16;
  std::vector<quant::DistanceLut> tables;
  tables.reserve(std::min(nq, kTile));
  for (size_t base = 0; base < nq; base += kTile) {
    const size_t tile = std::min(kTile, nq - base);
    tables.clear();
    {
      obs::ScopedStage span(obs::Stage::kLutBuild, trace);
      for (size_t i = 0; i < tile; ++i) {
        tables.push_back(TableFor(queries[base + i], mode));
      }
    }
    for (size_t i = 0; i < tile; ++i) {
      MemorySearchResult& res = out[base + i];
      if (mode == DistanceMode::kFastScan) {
        res = SearchFastScan(queries[base + i], tables[i], k, opt, rerank,
                             visited, trace);
      } else {
        quant::AdcBatchOracle oracle{tables[i], codes_.data(), code_size};
        obs::ScopedStage span(obs::Stage::kBeam, trace);
        res.results = graph::BeamSearch(graph_, graph_.entry_point(), oracle,
                                        {opt.beam_width, k, opt.deadline},
                                        visited, &res.stats);
      }
      RecordSearchMetrics(res.stats);
    }
  }
  return out;
}

size_t MemoryIndex::MemoryBytes() const {
  size_t bytes = codes_.size() + quantizer_.ModelSizeBytes();
  if (fastscan_.has_value()) bytes += fastscan_->MemoryBytes();
  bytes += vectors_.size() * sizeof(float);
  return bytes;
}

}  // namespace rpq::core
