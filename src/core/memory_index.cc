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

refine::RerankMode MemoryIndex::ResolveRerankMode(
    refine::RerankMode requested) const {
  const refine::RerankMode mode =
      requested != refine::RerankMode::kAuto ? requested : rerank_mode_;
  return refine::ResolveAutoMode(mode, stores_vectors());
}

MemorySearchResult MemoryIndex::SearchFastScan(
    const float* query, const quant::AdcTable& table, size_t k,
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
      std::min(beam_width,
               refine::EffectiveRerankWidth(
                   rerank.width > 0 ? rerank.width : rerank_width_, k));
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
  switch (ResolveRerankMode(rerank.mode)) {
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
  RecordSearchMetrics(out.stats);
  return out;
}

MemorySearchResult MemoryIndex::Search(const float* query, size_t k,
                                       const graph::BeamSearchOptions& opt,
                                       DistanceMode mode,
                                       const refine::RerankSpec& rerank,
                                       obs::QueryTrace* trace) const {
  MemorySearchResult out;
  graph::VisitedTable* visited = graph::TlsVisitedTable(graph_.num_vertices());
  const size_t code_size = quantizer_.code_size();
  if (mode == DistanceMode::kSdc) {
    const auto* pq = dynamic_cast<const quant::PqQuantizer*>(&quantizer_);
    RPQ_CHECK(pq != nullptr && "SDC requires a PQ-family quantizer");
    quant::SdcTable table(*pq, query);
    quant::AdcBatchOracle oracle{table, codes_.data(), code_size};
    obs::ScopedStage span(obs::Stage::kBeam, trace);
    out.results =
        graph::BeamSearch(graph_, graph_.entry_point(), oracle,
                          {opt.beam_width, k, opt.deadline}, visited,
                          &out.stats);
    RecordSearchMetrics(out.stats);
    return out;
  }
  std::optional<quant::AdcTable> table;
  {
    obs::ScopedStage span(obs::Stage::kLutBuild, trace);
    table.emplace(quantizer_, query);
  }
  if (mode == DistanceMode::kFastScan) {
    return SearchFastScan(query, *table, k, opt, rerank, visited, trace);
  }
  quant::AdcBatchOracle oracle{*table, codes_.data(), code_size};
  {
    obs::ScopedStage span(obs::Stage::kBeam, trace);
    out.results =
        graph::BeamSearch(graph_, graph_.entry_point(), oracle,
                          {opt.beam_width, k, opt.deadline}, visited,
                          &out.stats);
  }
  RecordSearchMetrics(out.stats);
  return out;
}

std::vector<MemorySearchResult> MemoryIndex::SearchBatch(
    const float* const* queries, size_t nq, size_t k,
    const graph::BeamSearchOptions& opt, DistanceMode mode,
    const refine::RerankSpec& rerank, obs::QueryTrace* trace) const {
  std::vector<MemorySearchResult> out(nq);
  if (nq == 0) return out;
  if (mode == DistanceMode::kSdc) {
    // SDC tables quantize the query first; no cross-query work to amortize,
    // so the batch is just the per-query path run back-to-back.
    for (size_t i = 0; i < nq; ++i) {
      out[i] = Search(queries[i], k, opt, mode, {}, trace);
    }
    return out;
  }
  graph::VisitedTable* visited = graph::TlsVisitedTable(graph_.num_vertices());
  const size_t code_size = quantizer_.code_size();
  // Tiled: table memory stays bounded and the tile's tables stay
  // cache-resident no matter how large the submitted batch is. The FastScan
  // branch derives its u8 tables inside SearchFastScan from the same float
  // tables, so both modes share the amortized build.
  constexpr size_t kTile = 16;
  std::vector<quant::AdcTable> tables;
  tables.reserve(std::min(nq, kTile));
  for (size_t base = 0; base < nq; base += kTile) {
    const size_t tile = std::min(kTile, nq - base);
    tables.clear();
    {
      obs::ScopedStage span(obs::Stage::kLutBuild, trace);
      for (size_t i = 0; i < tile; ++i) {
        tables.emplace_back(quantizer_, queries[base + i]);
      }
    }
    for (size_t i = 0; i < tile; ++i) {
      if (mode == DistanceMode::kFastScan) {
        out[base + i] = SearchFastScan(queries[base + i], tables[i], k, opt,
                                       rerank, visited, trace);
        continue;
      }
      quant::AdcBatchOracle oracle{tables[i], codes_.data(), code_size};
      obs::ScopedStage span(obs::Stage::kBeam, trace);
      out[base + i].results = graph::BeamSearch(
          graph_, graph_.entry_point(), oracle, {opt.beam_width, k, opt.deadline},
          visited, &out[base + i].stats);
      RecordSearchMetrics(out[base + i].stats);
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
